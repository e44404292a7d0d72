CREATE VIEW xdb_q7_t0 AS SELECT part.p_partkey AS p_partkey, part.p_type AS p_type FROM part WHERE part.p_type = 'ECONOMY ANODIZED STEEL'
CREATE FOREIGN TABLE xdb_q7_t0_t1_ft (p_partkey BIGINT, p_type VARCHAR) SERVER db6 OPTIONS (remote 'xdb_q7_t0')
CREATE VIEW xdb_q7_t1 AS SELECT t0.p_partkey AS p_partkey, t0.p_type AS p_type, lineitem.l_orderkey AS l_orderkey, lineitem.l_partkey AS l_partkey, lineitem.l_suppkey AS l_suppkey, lineitem.l_extendedprice AS l_extendedprice, lineitem.l_discount AS l_discount FROM xdb_q7_t0_t1_ft AS t0, lineitem WHERE t0.p_partkey = lineitem.l_partkey
CREATE FOREIGN TABLE xdb_q7_t1_t2_ft (p_partkey BIGINT, p_type VARCHAR, l_orderkey BIGINT, l_partkey BIGINT, l_suppkey BIGINT, l_extendedprice DOUBLE, l_discount DOUBLE) SERVER db1 OPTIONS (remote 'xdb_q7_t1')
CREATE VIEW xdb_q7_t2 AS SELECT t1.p_partkey AS p_partkey, t1.p_type AS p_type, t1.l_orderkey AS l_orderkey, t1.l_partkey AS l_partkey, t1.l_suppkey AS l_suppkey, t1.l_extendedprice AS l_extendedprice, t1.l_discount AS l_discount, orders.o_orderkey AS o_orderkey, orders.o_custkey AS o_custkey, orders.o_orderdate AS o_orderdate FROM xdb_q7_t1_t2_ft AS t1, orders WHERE orders.o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' AND t1.l_orderkey = orders.o_orderkey
CREATE VIEW xdb_q7_t3 AS SELECT n1.n_nationkey AS n_nationkey, n1.n_regionkey AS n_regionkey FROM nation AS n1
CREATE VIEW xdb_q7_t4 AS SELECT region.r_regionkey AS r_regionkey, region.r_name AS r_name FROM region WHERE region.r_name = 'AMERICA'
CREATE VIEW xdb_q7_t5 AS SELECT supplier.s_suppkey AS s_suppkey, supplier.s_nationkey AS s_nationkey FROM supplier
CREATE VIEW xdb_q7_t6 AS SELECT n2.n_nationkey AS n_nationkey, n2.n_name AS n_name FROM nation AS n2
CREATE FOREIGN TABLE xdb_q7_t2_t7_ft (p_partkey BIGINT, p_type VARCHAR, l_orderkey BIGINT, l_partkey BIGINT, l_suppkey BIGINT, l_extendedprice DOUBLE, l_discount DOUBLE, o_orderkey BIGINT, o_custkey BIGINT, o_orderdate DATE) SERVER db2 OPTIONS (remote 'xdb_q7_t2')
CREATE FOREIGN TABLE xdb_q7_t3_t7_ft (n_nationkey BIGINT, n_regionkey BIGINT) SERVER db7 OPTIONS (remote 'xdb_q7_t3')
CREATE FOREIGN TABLE xdb_q7_t4_t7_ft (r_regionkey BIGINT, r_name VARCHAR) SERVER db7 OPTIONS (remote 'xdb_q7_t4')
CREATE FOREIGN TABLE xdb_q7_t5_t7_ft (s_suppkey BIGINT, s_nationkey BIGINT) SERVER db3 OPTIONS (remote 'xdb_q7_t5')
CREATE FOREIGN TABLE xdb_q7_t6_t7_ft (n_nationkey BIGINT, n_name VARCHAR) SERVER db7 OPTIONS (remote 'xdb_q7_t6')
CREATE VIEW xdb_q7_t7 AS SELECT all_nations.o_year AS o_year, sum(CASE WHEN all_nations.nation = 'BRAZIL' THEN all_nations.volume ELSE 0 END) / sum(all_nations.volume) AS mkt_share FROM (SELECT EXTRACT(YEAR FROM t2.o_orderdate) AS o_year, t2.l_extendedprice * (1 - t2.l_discount) AS volume, t6.n_name AS nation FROM xdb_q7_t2_t7_ft AS t2, customer, xdb_q7_t3_t7_ft AS t3, xdb_q7_t4_t7_ft AS t4, xdb_q7_t5_t7_ft AS t5, xdb_q7_t6_t7_ft AS t6 WHERE t2.o_custkey = customer.c_custkey AND customer.c_nationkey = t3.n_nationkey AND t3.n_regionkey = t4.r_regionkey AND t2.l_suppkey = t5.s_suppkey AND t5.s_nationkey = t6.n_nationkey) AS all_nations GROUP BY all_nations.o_year ORDER BY all_nations.o_year
DROP VIEW IF EXISTS xdb_q7_t7
DROP FOREIGN TABLE IF EXISTS xdb_q7_t6_t7_ft
DROP FOREIGN TABLE IF EXISTS xdb_q7_t5_t7_ft
DROP FOREIGN TABLE IF EXISTS xdb_q7_t4_t7_ft
DROP FOREIGN TABLE IF EXISTS xdb_q7_t3_t7_ft
DROP FOREIGN TABLE IF EXISTS xdb_q7_t2_t7_ft
DROP VIEW IF EXISTS xdb_q7_t6
DROP VIEW IF EXISTS xdb_q7_t5
DROP VIEW IF EXISTS xdb_q7_t4
DROP VIEW IF EXISTS xdb_q7_t3
DROP VIEW IF EXISTS xdb_q7_t2
DROP FOREIGN TABLE IF EXISTS xdb_q7_t1_t2_ft
DROP VIEW IF EXISTS xdb_q7_t1
DROP FOREIGN TABLE IF EXISTS xdb_q7_t0_t1_ft
DROP VIEW IF EXISTS xdb_q7_t0
SELECT * FROM xdb_q7_t7
