//! The paper's cross-database workload: TPC-H queries Q3, Q5, Q7, Q8, Q9,
//! and Q10 with their spec-default substitution parameters (chosen in the
//! paper "based on the number of joins ... ranging from three to eight").

/// The evaluated queries, in the paper's order, plus four extended-workload
/// queries (Q1/Q6/Q12/Q14) beyond the paper's set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpchQuery {
    Q1,
    Q3,
    Q4,
    Q5,
    Q6,
    Q7,
    Q8,
    Q9,
    Q10,
    Q12,
    Q14,
    Q18,
}

impl TpchQuery {
    /// The paper's evaluation set (Section VI-A).
    pub const ALL: [TpchQuery; 6] = [
        TpchQuery::Q3,
        TpchQuery::Q5,
        TpchQuery::Q7,
        TpchQuery::Q8,
        TpchQuery::Q9,
        TpchQuery::Q10,
    ];

    /// Extended workload beyond the paper: single-table aggregations
    /// (Q1, Q6 — single-task delegation plans) and two-relation joins
    /// (Q12, Q14).
    pub const EXTENDED: [TpchQuery; 6] = [
        TpchQuery::Q1,
        TpchQuery::Q4,
        TpchQuery::Q6,
        TpchQuery::Q12,
        TpchQuery::Q14,
        TpchQuery::Q18,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TpchQuery::Q1 => "Q1",
            TpchQuery::Q3 => "Q3",
            TpchQuery::Q4 => "Q4",
            TpchQuery::Q18 => "Q18",
            TpchQuery::Q5 => "Q5",
            TpchQuery::Q6 => "Q6",
            TpchQuery::Q7 => "Q7",
            TpchQuery::Q8 => "Q8",
            TpchQuery::Q9 => "Q9",
            TpchQuery::Q10 => "Q10",
            TpchQuery::Q12 => "Q12",
            TpchQuery::Q14 => "Q14",
        }
    }

    /// Table abbreviations (Table III letters) this query touches.
    pub fn tables(self) -> &'static [&'static str] {
        match self {
            TpchQuery::Q1 | TpchQuery::Q6 => &["l"],
            TpchQuery::Q4 => &["o", "l"],
            TpchQuery::Q18 => &["c", "o", "l"],
            TpchQuery::Q12 => &["o", "l"],
            TpchQuery::Q14 => &["l", "p"],
            TpchQuery::Q3 => &["c", "o", "l"],
            TpchQuery::Q5 => &["c", "o", "l", "s", "n", "r"],
            TpchQuery::Q7 => &["s", "l", "o", "c", "n"],
            TpchQuery::Q8 => &["p", "s", "l", "o", "c", "n", "r"],
            TpchQuery::Q9 => &["p", "s", "l", "ps", "o", "n"],
            TpchQuery::Q10 => &["c", "o", "l", "n"],
        }
    }

    pub fn sql(self) -> &'static str {
        match self {
            TpchQuery::Q1 => Q1_SQL,
            TpchQuery::Q4 => Q4_SQL,
            TpchQuery::Q18 => Q18_SQL,
            TpchQuery::Q6 => Q6_SQL,
            TpchQuery::Q12 => Q12_SQL,
            TpchQuery::Q14 => Q14_SQL,
            TpchQuery::Q3 => Q3_SQL,
            TpchQuery::Q5 => Q5_SQL,
            TpchQuery::Q7 => Q7_SQL,
            TpchQuery::Q8 => Q8_SQL,
            TpchQuery::Q9 => Q9_SQL,
            TpchQuery::Q10 => Q10_SQL,
        }
    }
}

/// Q1 — Pricing Summary Report (single relation; the delegation plan is a
/// single task on lineitem's home DBMS).
pub const Q1_SQL: &str = "\
select l_returnflag, l_linestatus,
       sum(l_quantity) as sum_qty,
       sum(l_extendedprice) as sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
       avg(l_quantity) as avg_qty,
       avg(l_extendedprice) as avg_price,
       avg(l_discount) as avg_disc,
       count(*) as count_order
from lineitem
where l_shipdate <= date '1998-12-01' - interval '90' day
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus";

/// Q4 — Order Priority Checking (correlated EXISTS → semi join).
pub const Q4_SQL: &str = "\
select o_orderpriority, count(*) as order_count
from orders
where o_orderdate >= date '1993-07-01'
  and o_orderdate < date '1993-07-01' + interval '3' month
  and exists (
    select * from lineitem
    where l_orderkey = o_orderkey and l_commitdate < l_receiptdate
  )
group by o_orderpriority
order by o_orderpriority";

/// Q18 — Large Volume Customer (uncorrelated IN over an aggregating
/// subquery → semi join).
pub const Q18_SQL: &str = "\
select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, sum(l_quantity) as total_qty
from customer, orders, lineitem
where o_orderkey in (
    select l_orderkey from lineitem group by l_orderkey having sum(l_quantity) > 212
  )
  and c_custkey = o_custkey
  and o_orderkey = l_orderkey
group by c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
order by o_totalprice desc, o_orderdate
limit 100";

/// Q6 — Forecasting Revenue Change (single relation).
pub const Q6_SQL: &str = "\
select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date '1994-01-01'
  and l_shipdate < date '1994-01-01' + interval '1' year
  and l_discount between 0.05 and 0.07
  and l_quantity < 24";

/// Q12 — Shipping Modes and Order Priority (2 relations).
pub const Q12_SQL: &str = "\
select l_shipmode,
       sum(case when o_orderpriority = '1-URGENT' or o_orderpriority = '2-HIGH'
                then 1 else 0 end) as high_line_count,
       sum(case when o_orderpriority <> '1-URGENT' and o_orderpriority <> '2-HIGH'
                then 1 else 0 end) as low_line_count
from orders, lineitem
where o_orderkey = l_orderkey
  and l_shipmode in ('MAIL', 'SHIP')
  and l_commitdate < l_receiptdate
  and l_shipdate < l_commitdate
  and l_receiptdate >= date '1994-01-01'
  and l_receiptdate < date '1994-01-01' + interval '1' year
group by l_shipmode
order by l_shipmode";

/// Q14 — Promotion Effect (2 relations, aggregate-over-aggregate
/// arithmetic).
pub const Q14_SQL: &str = "\
select 100.00 * sum(case when p_type like 'PROMO%'
                         then l_extendedprice * (1 - l_discount) else 0 end)
       / sum(l_extendedprice * (1 - l_discount)) as promo_revenue
from lineitem, part
where l_partkey = p_partkey
  and l_shipdate >= date '1995-09-01'
  and l_shipdate < date '1995-09-01' + interval '1' month";

/// Q3 — Shipping Priority (3 relations).
pub const Q3_SQL: &str = "\
select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue, o_orderdate, o_shippriority
from customer, orders, lineitem
where c_mktsegment = 'BUILDING'
  and c_custkey = o_custkey
  and l_orderkey = o_orderkey
  and o_orderdate < date '1995-03-15'
  and l_shipdate > date '1995-03-15'
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate
limit 10";

/// Q5 — Local Supplier Volume (6 relations).
pub const Q5_SQL: &str = "\
select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from customer, orders, lineitem, supplier, nation, region
where c_custkey = o_custkey
  and l_orderkey = o_orderkey
  and l_suppkey = s_suppkey
  and c_nationkey = s_nationkey
  and s_nationkey = n_nationkey
  and n_regionkey = r_regionkey
  and r_name = 'ASIA'
  and o_orderdate >= date '1994-01-01'
  and o_orderdate < date '1994-01-01' + interval '1' year
group by n_name
order by revenue desc";

/// Q7 — Volume Shipping (5 relations, self-joined nation).
pub const Q7_SQL: &str = "\
select supp_nation, cust_nation, l_year, sum(volume) as revenue
from (
  select n1.n_name as supp_nation, n2.n_name as cust_nation,
         extract(year from l_shipdate) as l_year,
         l_extendedprice * (1 - l_discount) as volume
  from supplier, lineitem, orders, customer, nation n1, nation n2
  where s_suppkey = l_suppkey
    and o_orderkey = l_orderkey
    and c_custkey = o_custkey
    and s_nationkey = n1.n_nationkey
    and c_nationkey = n2.n_nationkey
    and ((n1.n_name = 'FRANCE' and n2.n_name = 'GERMANY')
      or (n1.n_name = 'GERMANY' and n2.n_name = 'FRANCE'))
    and l_shipdate between date '1995-01-01' and date '1996-12-31'
) as shipping
group by supp_nation, cust_nation, l_year
order by supp_nation, cust_nation, l_year";

/// Q8 — National Market Share (8 relations).
pub const Q8_SQL: &str = "\
select o_year, sum(case when nation = 'BRAZIL' then volume else 0 end) / sum(volume) as mkt_share
from (
  select extract(year from o_orderdate) as o_year,
         l_extendedprice * (1 - l_discount) as volume,
         n2.n_name as nation
  from part, supplier, lineitem, orders, customer, nation n1, nation n2, region
  where p_partkey = l_partkey
    and s_suppkey = l_suppkey
    and l_orderkey = o_orderkey
    and o_custkey = c_custkey
    and c_nationkey = n1.n_nationkey
    and n1.n_regionkey = r_regionkey
    and r_name = 'AMERICA'
    and s_nationkey = n2.n_nationkey
    and o_orderdate between date '1995-01-01' and date '1996-12-31'
    and p_type = 'ECONOMY ANODIZED STEEL'
) as all_nations
group by o_year
order by o_year";

/// Q9 — Product Type Profit Measure (6 relations).
pub const Q9_SQL: &str = "\
select nation, o_year, sum(amount) as sum_profit
from (
  select n_name as nation, extract(year from o_orderdate) as o_year,
         l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity as amount
  from part, supplier, lineitem, partsupp, orders, nation
  where s_suppkey = l_suppkey
    and ps_suppkey = l_suppkey
    and ps_partkey = l_partkey
    and p_partkey = l_partkey
    and o_orderkey = l_orderkey
    and s_nationkey = n_nationkey
    and p_name like '%green%'
) as profit
group by nation, o_year
order by nation, o_year desc";

/// Q10 — Returned Item Reporting (4 relations).
pub const Q10_SQL: &str = "\
select c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) as revenue,
       c_acctbal, n_name, c_address, c_phone, c_comment
from customer, orders, lineitem, nation
where c_custkey = o_custkey
  and l_orderkey = o_orderkey
  and o_orderdate >= date '1993-10-01'
  and o_orderdate < date '1993-10-01' + interval '3' month
  and l_returnflag = 'R'
  and c_nationkey = n_nationkey
group by c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
order by revenue desc
limit 20";

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_sql::parse_select;

    #[test]
    fn all_queries_parse() {
        for q in TpchQuery::ALL.iter().chain(&TpchQuery::EXTENDED) {
            parse_select(q.sql()).unwrap_or_else(|e| panic!("{} failed: {e}", q.name()));
        }
    }
}
