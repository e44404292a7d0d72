//! SQL conformance suite: a catalogue of language behaviours, each checked
//! against hand-computed expected results on a fixed dataset — once on a
//! single engine, and once through a two-DBMS XDB federation (which
//! additionally exercises delegation for every construct).

use xdb::core::{GlobalCatalog, Xdb};
use xdb::engine::cluster::Cluster;
use xdb::engine::error::EngineError;
use xdb::engine::profile::EngineProfile;
use xdb::engine::relation::Relation;
use xdb::net::Scenario;
use xdb::sql::bind::BindError;
use xdb::sql::value::{date, DataType, Value};
use xdb::tpch::{build_cluster, distributions, ProfileAssignment, TableDist};

fn i(v: i64) -> Value {
    Value::Int(v)
}
fn f(v: f64) -> Value {
    Value::Float(v)
}
fn s(v: &str) -> Value {
    Value::str(v)
}
fn d(v: &str) -> Value {
    Value::Date(date::parse(v).unwrap())
}

/// orders(id, cust, amount, placed, status) and customers(cust, name, tier).
fn orders_fields() -> Vec<(String, DataType)> {
    vec![
        ("id".into(), DataType::Int),
        ("cust".into(), DataType::Int),
        ("amount".into(), DataType::Float),
        ("placed".into(), DataType::Date),
        ("status".into(), DataType::Str),
    ]
}

fn orders_rows() -> Vec<Vec<Value>> {
    vec![
        vec![i(1), i(10), f(100.0), d("1995-01-10"), s("open")],
        vec![i(2), i(10), f(250.0), d("1995-02-20"), s("done")],
        vec![i(3), i(20), f(75.5), d("1995-03-05"), s("open")],
        vec![i(4), i(30), f(300.0), d("1996-01-15"), s("done")],
        vec![i(5), i(20), Value::Null, d("1996-06-30"), s("open")],
        vec![i(6), i(99), f(10.0), d("1994-12-31"), s("void")],
    ]
}

fn customers_fields() -> Vec<(String, DataType)> {
    vec![
        ("cust".into(), DataType::Int),
        ("name".into(), DataType::Str),
        ("tier".into(), DataType::Str),
    ]
}

fn customers_rows() -> Vec<Vec<Value>> {
    vec![
        vec![i(10), s("acme"), s("gold")],
        vec![i(20), s("globex"), s("silver")],
        vec![i(30), s("initech"), s("gold")],
        vec![i(40), s("hooli"), s("bronze")],
    ]
}

/// (description, sql, expected rows)
fn cases() -> Vec<(&'static str, &'static str, Vec<Vec<Value>>)> {
    vec![
        (
            "projection with arithmetic",
            "SELECT id, amount * 2 AS dbl FROM orders WHERE id = 1",
            vec![vec![i(1), f(200.0)]],
        ),
        (
            "filter with AND/OR grouping",
            "SELECT id FROM orders WHERE (status = 'open' OR status = 'void') AND amount < 80 ORDER BY id",
            vec![vec![i(3)], vec![i(6)]],
        ),
        (
            "IS NULL and IS NOT NULL",
            "SELECT id FROM orders WHERE amount IS NULL",
            vec![vec![i(5)]],
        ),
        (
            "BETWEEN on dates",
            "SELECT id FROM orders WHERE placed BETWEEN DATE '1995-01-01' AND DATE '1995-12-31' ORDER BY id",
            vec![vec![i(1)], vec![i(2)], vec![i(3)]],
        ),
        (
            "date interval arithmetic in predicates",
            "SELECT id FROM orders WHERE placed >= DATE '1995-12-01' + INTERVAL '1' MONTH ORDER BY id",
            vec![vec![i(4)], vec![i(5)]],
        ),
        (
            "EXTRACT year grouping",
            "SELECT extract(year from placed) AS y, count(*) AS n FROM orders GROUP BY y ORDER BY y",
            vec![vec![i(1994), i(1)], vec![i(1995), i(3)], vec![i(1996), i(2)]],
        ),
        (
            "LIKE with wildcards",
            "SELECT name FROM customers WHERE name LIKE '%o%' ORDER BY name",
            vec![vec![s("globex")], vec![s("hooli")]],
        ),
        (
            "NOT LIKE",
            "SELECT name FROM customers WHERE name NOT LIKE '%o%' ORDER BY name",
            vec![vec![s("acme")], vec![s("initech")]],
        ),
        (
            "IN list",
            "SELECT id FROM orders WHERE cust IN (10, 30) ORDER BY id",
            vec![vec![i(1)], vec![i(2)], vec![i(4)]],
        ),
        (
            "CASE searched form",
            "SELECT id, CASE WHEN amount >= 250 THEN 'big' WHEN amount IS NULL THEN 'unknown' ELSE 'small' END AS size FROM orders ORDER BY id",
            vec![
                vec![i(1), s("small")],
                vec![i(2), s("big")],
                vec![i(3), s("small")],
                vec![i(4), s("big")],
                vec![i(5), s("unknown")],
                vec![i(6), s("small")],
            ],
        ),
        (
            "CASE simple form",
            "SELECT CASE status WHEN 'open' THEN 1 WHEN 'done' THEN 2 ELSE 0 END AS code, count(*) AS n FROM orders GROUP BY 1 ORDER BY 1",
            vec![vec![i(0), i(1)], vec![i(1), i(3)], vec![i(2), i(2)]],
        ),
        (
            "aggregates ignore NULLs",
            "SELECT count(amount) AS c, sum(amount) AS t, min(amount) AS lo, max(amount) AS hi FROM orders",
            vec![vec![i(5), f(735.5), f(10.0), f(300.0)]],
        ),
        (
            "count(*) counts NULL rows",
            "SELECT count(*) AS n FROM orders",
            vec![vec![i(6)]],
        ),
        (
            "avg over floats",
            "SELECT avg(amount) AS a FROM orders WHERE cust = 10",
            vec![vec![f(175.0)]],
        ),
        (
            "count distinct",
            "SELECT count(DISTINCT cust) AS n FROM orders",
            vec![vec![i(4)]],
        ),
        (
            "group by with having",
            "SELECT cust, count(*) AS n FROM orders GROUP BY cust HAVING count(*) > 1 ORDER BY cust",
            vec![vec![i(10), i(2)], vec![i(20), i(2)]],
        ),
        (
            "having on sum",
            "SELECT cust, sum(amount) AS t FROM orders GROUP BY cust HAVING sum(amount) > 100 ORDER BY cust",
            vec![vec![i(10), f(350.0)], vec![i(30), f(300.0)]],
        ),
        (
            "expression over aggregates",
            "SELECT sum(amount) / count(amount) AS mean FROM orders WHERE cust = 10",
            vec![vec![f(175.0)]],
        ),
        (
            "inner join",
            "SELECT o.id, c.name FROM orders o, customers c WHERE o.cust = c.cust AND o.status = 'done' ORDER BY o.id",
            vec![vec![i(2), s("acme")], vec![i(4), s("initech")]],
        ),
        (
            "join eliminates dangling rows",
            "SELECT count(*) AS n FROM orders o, customers c WHERE o.cust = c.cust",
            vec![vec![i(5)]], // order 6 has cust 99, unmatched
        ),
        (
            "explicit JOIN ON syntax",
            "SELECT o.id FROM orders o JOIN customers c ON o.cust = c.cust WHERE c.tier = 'gold' ORDER BY o.id",
            vec![vec![i(1)], vec![i(2)], vec![i(4)]],
        ),
        (
            "join with aggregation",
            "SELECT c.tier, count(*) AS n FROM orders o, customers c WHERE o.cust = c.cust GROUP BY c.tier ORDER BY c.tier",
            vec![vec![s("gold"), i(3)], vec![s("silver"), i(2)]],
        ),
        (
            "order by desc with limit",
            "SELECT id FROM orders WHERE amount IS NOT NULL ORDER BY amount DESC LIMIT 2",
            vec![vec![i(4)], vec![i(2)]],
        ),
        (
            "order by alias",
            "SELECT id, amount * 0.1 AS fee FROM orders WHERE amount > 90 ORDER BY fee DESC LIMIT 1",
            vec![vec![i(4), f(30.0)]],
        ),
        (
            "order by unprojected column",
            "SELECT id FROM orders WHERE cust = 10 ORDER BY placed DESC",
            vec![vec![i(2)], vec![i(1)]],
        ),
        (
            "distinct",
            "SELECT DISTINCT status FROM orders ORDER BY status",
            vec![vec![s("done")], vec![s("open")], vec![s("void")]],
        ),
        (
            "derived table",
            "SELECT big.id FROM (SELECT id, amount FROM orders WHERE amount > 90) AS big WHERE big.amount < 280 ORDER BY big.id",
            vec![vec![i(1)], vec![i(2)]],
        ),
        (
            "aggregate over derived table",
            "SELECT count(*) AS n FROM (SELECT cust FROM orders WHERE status = 'open') AS o",
            vec![vec![i(3)]],
        ),
        (
            "cast and concat",
            "SELECT cast(id as varchar) || '-' || status AS tag FROM orders WHERE id = 3",
            vec![vec![s("3-open")]],
        ),
        (
            "scalar functions",
            "SELECT upper(name) AS u, length(name) AS l, substr(name, 1, 3) AS pre FROM customers WHERE cust = 20",
            vec![vec![s("GLOBEX"), i(6), s("glo")]],
        ),
        (
            "limit zero",
            "SELECT id FROM orders LIMIT 0",
            vec![],
        ),
        (
            "empty group-by input yields no groups",
            "SELECT status, count(*) AS n FROM orders WHERE id > 100 GROUP BY status",
            vec![],
        ),
        (
            "global aggregate over empty input yields one row",
            "SELECT count(*) AS n, sum(amount) AS t FROM orders WHERE id > 100",
            vec![vec![i(0), Value::Null]],
        ),
        (
            "three-valued logic excludes NULL comparisons",
            "SELECT id FROM orders WHERE amount > 0 OR amount < 0 ORDER BY id",
            vec![vec![i(1)], vec![i(2)], vec![i(3)], vec![i(4)], vec![i(6)]],
        ),
        (
            "NOT over null comparison stays unknown",
            "SELECT id FROM orders WHERE NOT (amount > 0) ORDER BY id",
            vec![],
        ),
        (
            "date subtraction",
            // 1996-01-15 is 379 days after the epoch below; 1996-06-30 is
            // 546 days after it.
            "SELECT id FROM orders WHERE placed - DATE '1995-01-01' > 400 ORDER BY id",
            vec![vec![i(5)]],
        ),
        (
            "correlated EXISTS (semi join)",
            "SELECT name FROM customers c WHERE EXISTS \
             (SELECT 1 FROM orders o WHERE o.cust = c.cust AND o.status = 'done') ORDER BY name",
            vec![vec![s("acme")], vec![s("initech")]],
        ),
        (
            "NOT EXISTS (anti join)",
            "SELECT name FROM customers c WHERE NOT EXISTS \
             (SELECT 1 FROM orders o WHERE o.cust = c.cust) ORDER BY name",
            vec![vec![s("hooli")]],
        ),
        (
            "IN subquery (semi join)",
            "SELECT id FROM orders WHERE cust IN \
             (SELECT cust FROM customers WHERE tier = 'gold') ORDER BY id",
            vec![vec![i(1)], vec![i(2)], vec![i(4)]],
        ),
        (
            "IN over aggregating subquery",
            "SELECT name FROM customers WHERE cust IN \
             (SELECT cust FROM orders GROUP BY cust HAVING count(*) > 1) ORDER BY name",
            vec![vec![s("acme")], vec![s("globex")]],
        ),
        (
            "EXISTS combined with scalar filters",
            "SELECT id FROM orders o WHERE o.amount > 50 AND EXISTS \
             (SELECT 1 FROM customers c WHERE c.cust = o.cust AND c.tier = 'silver') ORDER BY id",
            vec![vec![i(3)]],
        ),
        (
            "group by ordinal and order by ordinal",
            "SELECT status, sum(amount) AS t FROM orders WHERE amount IS NOT NULL GROUP BY 1 ORDER BY 2 DESC",
            vec![
                vec![s("done"), f(550.0)],
                vec![s("open"), f(175.5)],
                vec![s("void"), f(10.0)],
            ],
        ),
    ]
}

fn single_engine() -> Cluster {
    let cluster = Cluster::lan(&["solo"], EngineProfile::postgres());
    let engine = cluster.engine("solo").unwrap();
    engine
        .load_table("orders", Relation::new(orders_fields(), orders_rows()))
        .unwrap();
    engine
        .load_table(
            "customers",
            Relation::new(customers_fields(), customers_rows()),
        )
        .unwrap();
    cluster
}

fn federation() -> (Cluster, GlobalCatalog) {
    let cluster = Cluster::lan(&["east", "west"], EngineProfile::postgres());
    cluster
        .engine("east")
        .unwrap()
        .load_table("orders", Relation::new(orders_fields(), orders_rows()))
        .unwrap();
    cluster
        .engine("west")
        .unwrap()
        .load_table(
            "customers",
            Relation::new(customers_fields(), customers_rows()),
        )
        .unwrap();
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    for t in catalog.table_names() {
        catalog.consult(&cluster, &t).unwrap();
    }
    (cluster, catalog)
}

#[test]
fn conformance_on_single_engine() {
    let cluster = single_engine();
    for (what, sql, expected) in cases() {
        let (rel, _) = cluster
            .query("solo", sql)
            .unwrap_or_else(|e| panic!("{what}: {e}\n{sql}"));
        let exp = Relation::new(rel.fields.clone(), expected);
        assert!(
            rel.same_bag(&exp),
            "{what}:\n{sql}\ngot\n{}\nexpected\n{}",
            rel.to_table_string(10),
            exp.to_table_string(10)
        );
        // Ordered queries must match row-for-row, not just as bags.
        if sql.to_ascii_uppercase().contains("ORDER BY") {
            for (a, b) in rel.rows().zip(exp.rows()) {
                let ra = Relation::new(rel.fields.clone(), vec![a]);
                let rb = Relation::new(rel.fields.clone(), vec![b]);
                assert!(ra.same_bag(&rb), "{what}: order mismatch\n{sql}");
            }
        }
    }
}

#[test]
fn conformance_through_federation() {
    let (cluster, catalog) = federation();
    let xdb = Xdb::new(&cluster, &catalog);
    for (what, sql, expected) in cases() {
        let out = xdb
            .submit(sql)
            .unwrap_or_else(|e| panic!("{what}: {e}\n{sql}"));
        let exp = Relation::new(out.relation.fields.clone(), expected);
        assert!(
            out.relation.same_bag(&exp),
            "{what} (federated):\n{sql}\ngot\n{}\nexpected\n{}",
            out.relation.to_table_string(10),
            exp.to_table_string(10)
        );
    }
}

/// `SELECT count(*) FROM region r0, …, region r{n-1}` with the relations
/// chained by key equalities: five rows, one per region.
fn region_chain(n: usize) -> String {
    let from: Vec<String> = (0..n).map(|i| format!("region r{i}")).collect();
    let on: Vec<String> = (1..n)
        .map(|i| format!("r{}.r_regionkey = r{i}.r_regionkey", i - 1))
        .collect();
    format!(
        "SELECT count(*) AS n FROM {} WHERE {}",
        from.join(", "),
        on.join(" AND ")
    )
}

/// What the binder rejects reaches the caller as a bind error, from a
/// single engine and through TD1, and nothing panics: an aggregate call
/// without exactly one argument, a FROM clause of more relations than a
/// relation set (a `u64` mask) holds, and `NOT IN` over a subquery, whose
/// NULL semantics an anti join does not have. A FROM clause of 64 still
/// answers.
#[test]
fn rejected_inputs_are_bind_errors() {
    let solo = Cluster::lan(&["solo"], EngineProfile::postgres());
    distributions::load_all_on(&solo, "solo", 0.001).unwrap();
    let td1 = build_cluster(
        TableDist::Td1,
        0.001,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    let catalog = GlobalCatalog::discover(&td1).unwrap();
    let xdb = Xdb::new(&td1, &catalog);
    for (sql, message) in [
        (
            "SELECT sum() FROM nation".to_string(),
            "aggregate sum takes exactly one argument, got 0",
        ),
        (
            "SELECT max() FROM nation".to_string(),
            "aggregate max takes exactly one argument, got 0",
        ),
        (
            "SELECT sum(n_nationkey, n_regionkey) FROM nation".to_string(),
            "aggregate sum takes exactly one argument, got 2",
        ),
        (
            region_chain(65),
            "a FROM clause of 65 relations exceeds the limit of 64",
        ),
        (
            "SELECT n_name FROM nation WHERE n_regionkey NOT IN \
             (SELECT r_regionkey FROM region WHERE r_name = 'ASIA')"
                .to_string(),
            "NOT IN over a subquery is not supported: a NULL on either side \
             is not an anti join; write NOT EXISTS instead",
        ),
    ] {
        let expected = EngineError::Bind(BindError {
            message: message.to_string(),
        });
        let short = &sql[..sql.len().min(48)];
        assert_eq!(solo.query("solo", &sql).unwrap_err(), expected, "{short}");
        assert_eq!(xdb.submit(&sql).unwrap_err(), expected, "{short}");
    }
    let five = Relation::new(vec![("n".to_string(), DataType::Int)], vec![vec![i(5)]]);
    let sql = region_chain(64);
    assert!(solo.query("solo", &sql).unwrap().0.same_bag(&five));
    assert!(xdb.submit(&sql).unwrap().relation.same_bag(&five));
}
