//! Engine edge-case suite: behaviours not covered by the module unit
//! tests — composite keys, self joins, non-equi joins, NULL handling in
//! every operator, and DDL lifecycle corners.

use xdb_engine::cluster::{Cluster, FaultSite};
use xdb_engine::exec::{Execution, MapResolver};
use xdb_engine::profile::EngineProfile;
use xdb_engine::relation::Relation;
use xdb_engine::{EngineError, NoRemote, StatementOptions, DEFAULT_STREAM_CHUNK_ROWS};
use xdb_sql::algebra::LogicalPlan;
use xdb_sql::ast::{BinaryOp, Expr};
use xdb_sql::bind::intern_fields;
use xdb_sql::value::{date, DataType, Value};

fn cluster() -> Cluster {
    let c = Cluster::lan(&["db"], EngineProfile::postgres());
    c.execute_script(
        "db",
        "CREATE TABLE pairs (a BIGINT, b BIGINT, tag VARCHAR);
         INSERT INTO pairs VALUES
           (1, 1, 'one-one'), (1, 2, 'one-two'), (2, 1, 'two-one'), (2, 2, 'two-two');
         CREATE TABLE lookup (a BIGINT, b BIGINT, label VARCHAR);
         INSERT INTO lookup VALUES (1, 2, 'L12'), (2, 2, 'L22'), (3, 3, 'L33');
         CREATE TABLE events (id BIGINT, day DATE, name VARCHAR);
         INSERT INTO events VALUES
           (1, DATE '1995-01-01', 'alpha'), (2, DATE '1995-06-15', 'omega'),
           (3, DATE '1996-02-29', 'leap'), (4, NULL, NULL);",
    )
    .unwrap();
    c
}

fn q(c: &Cluster, sql: &str) -> Relation {
    c.query("db", sql).unwrap().0
}

#[test]
fn composite_key_join() {
    let c = cluster();
    let r = q(
        &c,
        "SELECT p.tag, l.label FROM pairs p, lookup l WHERE p.a = l.a AND p.b = l.b ORDER BY p.tag",
    );
    assert_eq!(r.len(), 2);
    assert_eq!(r.value(0, 0), Value::str("one-two"));
    assert_eq!(r.value(0, 1), Value::str("L12"));
    assert_eq!(r.value(1, 0), Value::str("two-two"));
}

#[test]
fn self_join_with_aliases() {
    let c = cluster();
    // Pairs (x, y) with swapped counterparts.
    let r = q(
        &c,
        "SELECT p1.tag, p2.tag FROM pairs p1, pairs p2 \
         WHERE p1.a = p2.b AND p1.b = p2.a AND p1.a < p1.b",
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r.value(0, 0), Value::str("one-two"));
    assert_eq!(r.value(0, 1), Value::str("two-one"));
}

#[test]
fn non_equi_join_falls_back_to_nested_loop() {
    let c = cluster();
    let r = q(
        &c,
        "SELECT count(*) AS n FROM pairs p, lookup l WHERE p.a < l.a",
    );
    // pairs.a values {1,1,2,2}; lookup.a values {1,2,3}.
    // 1<2,1<3 (x2 rows with a=1 → 4), 2<3 (x2 rows with a=2 → 2) = 6.
    assert_eq!(r.value(0, 0), Value::Int(6));
}

/// 3 000 × 3 000: nine million candidate pairs, of which the residual keeps
/// under 1 %. A join without key pairs packs every row to the one empty
/// key, and the residual runs a block of candidates at a time, so no
/// `l × r` vector is held; the rows come out left-major, right ascending,
/// as a row-wise loop over the same predicate yields them.
#[test]
fn large_cross_join_with_selective_residual() {
    let c = cluster();
    let n = 3000i64;
    let table = |name: &str, col: &str, f: &dyn Fn(i64) -> Value| {
        let fields = vec![
            ("id".to_string(), xdb_sql::DataType::Int),
            (col.to_string(), xdb_sql::DataType::Int),
        ];
        let rows = (0..n).map(|i| vec![Value::Int(i), f(i)]).collect();
        let engine = c.engine("db").unwrap();
        engine
            .load_table(name, Relation::new(fields, rows))
            .unwrap();
    };
    // NULL one row in eleven on either side: never a match.
    let nullable = |i: i64, v: i64| {
        if i % 11 == 0 {
            Value::Null
        } else {
            Value::Int(v)
        }
    };
    table("lhs", "x", &|i| nullable(i, (i * 7919) % 1000));
    table("rhs", "y", &|i| nullable(i, (i * 104_729) % 1000));
    let r = q(
        &c,
        "SELECT a.id, b.id FROM lhs a, rhs b WHERE a.x > b.y + 990 OR (a.x = 3 AND b.y = 4)",
    );
    let x = |i: i64| (i % 11 != 0).then_some((i * 7919) % 1000);
    let y = |i: i64| (i % 11 != 0).then_some((i * 104_729) % 1000);
    let mut want = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if let (Some(x), Some(y)) = (x(i), y(j)) {
                if x > y + 990 || (x == 3 && y == 4) {
                    want.push(vec![Value::Int(i), Value::Int(j)]);
                }
            }
        }
    }
    assert!(!want.is_empty() && want.len() < 90_000, "{}", want.len());
    assert_eq!(r.rows().collect::<Vec<_>>(), want);
}

/// Table `name` of `n` rows whose columns `cols` (all Int) hold `row(i)`
/// in row `i`, put into `resolver`, and a scan of it.
fn int_table(
    resolver: &mut MapResolver,
    name: &str,
    cols: &[&str],
    n: i64,
    row: impl Fn(i64) -> Vec<Option<i64>>,
) -> LogicalPlan {
    let fields: Vec<(String, DataType)> = cols
        .iter()
        .map(|c| (c.to_string(), DataType::Int))
        .collect();
    let value = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let rows = (0..n).map(|i| row(i).into_iter().map(value).collect());
    resolver.insert(name, Relation::new(fields.clone(), rows.collect()));
    LogicalPlan::scan(name, name, intern_fields(&fields).iter().cloned())
}

/// Column `i`'s Int values, NULL as `None`.
fn ints(rel: &Relation, c: usize) -> Vec<Option<i64>> {
    (0..rel.len()).map(|i| rel.value(i, c).as_int()).collect()
}

/// `NOT EXISTS` whose only correlation is an inequality: an anti join
/// without key pairs over 3 000 × 3 000 rows, nine million candidates,
/// that keeps the left rows for which no right row passes — a NULL on
/// either side passes nothing — in left order, as a row-wise loop does.
#[test]
fn not_exists_with_only_an_inequality() {
    let n = 3000;
    let mut resolver = MapResolver::new();
    let x = |i: i64| (i % 11 != 0).then_some((i * 7919) % 1000);
    let y = |i: i64| (i % 13 != 0).then_some((i * 104_729) % 1000);
    let lhs = int_table(&mut resolver, "lhs", &["id", "x"], n, |i| {
        vec![Some(i), x(i)]
    });
    let rhs = int_table(&mut resolver, "rhs", &["id", "y"], n, |i| {
        vec![Some(i), y(i)]
    });
    // b.y > a.x + 990
    let residual = Expr::binary(
        BinaryOp::Gt,
        Expr::qcol("rhs", "y"),
        Expr::binary(
            BinaryOp::Plus,
            Expr::qcol("lhs", "x"),
            Expr::lit(Value::Int(990)),
        ),
    );
    let plan = LogicalPlan::SemiJoin {
        left: Box::new(lhs),
        right: Box::new(rhs),
        on: vec![],
        residual: Some(residual),
        negated: true,
    };
    let got = Execution::new(&resolver).run(&plan).unwrap();
    let ys: Vec<Option<i64>> = (0..n).map(y).collect();
    let want: Vec<Option<i64>> = (0..n)
        .filter(|&i| {
            !ys.iter()
                .any(|&y| matches!((x(i), y), (Some(x), Some(y)) if y > x + 990))
        })
        .map(Some)
        .collect();
    assert!(want.len() > 2900 && want.len() < 3000, "{}", want.len());
    assert_eq!(ints(&got, 0), want);
}

/// One hot key: 800 × 1 000 rows, nearly all on key 0, so a keyed join
/// holds over 600 000 candidates and its residual runs on many blocks.
/// The inner join's probe side is the smaller, so its table goes over the
/// left rows and the right rows' keys probe it in blocks; the semi join
/// keeps its table over the right rows. Both equal a row-wise loop: the
/// inner join's pairs left-major, right rows ascending; the semi join's
/// left rows with a passing candidate, in order.
#[test]
fn a_hot_key_splits_a_residual_into_blocks() {
    let (ln, rn) = (800, 1000);
    let mut resolver = MapResolver::new();
    // Every tenth row has a key of its own, every 37th none.
    let k = |i: i64| match i {
        _ if i % 37 == 0 => None,
        _ if i % 10 == 0 => Some(i),
        _ => Some(0),
    };
    let x = |i: i64| (i * 7919) % 1000;
    let y = |i: i64| (i * 104_729) % 1000;
    let lhs = int_table(&mut resolver, "lhs", &["id", "k", "x"], ln, |i| {
        vec![Some(i), k(i), Some(x(i))]
    });
    let rhs = int_table(&mut resolver, "rhs", &["id", "k", "y"], rn, |i| {
        vec![Some(i), k(i), Some(y(i))]
    });
    let on = vec![(Expr::qcol("lhs", "k"), Expr::qcol("rhs", "k"))];
    // b.y > a.x + 990 OR a.id = b.id
    let residual = Expr::binary(
        BinaryOp::Or,
        Expr::binary(
            BinaryOp::Gt,
            Expr::qcol("rhs", "y"),
            Expr::binary(
                BinaryOp::Plus,
                Expr::qcol("lhs", "x"),
                Expr::lit(Value::Int(990)),
            ),
        ),
        Expr::binary(
            BinaryOp::Eq,
            Expr::qcol("lhs", "id"),
            Expr::qcol("rhs", "id"),
        ),
    );
    let passes = |i: i64, j: i64| k(i).is_some() && k(i) == k(j) && (y(j) > x(i) + 990 || i == j);
    let candidates = (0..ln)
        .map(|i| (0..rn).filter(|&j| k(i).is_some() && k(i) == k(j)).count())
        .sum::<usize>();
    assert!(candidates > 8 * 65_536, "{candidates}");

    let join = lhs
        .clone()
        .join_on(rhs.clone(), on.clone(), Some(residual.clone()));
    let got = Execution::new(&resolver).run(&join).unwrap();
    let mut want = Vec::new();
    for i in 0..ln {
        want.extend(
            (0..rn)
                .filter(|&j| passes(i, j))
                .map(|j| (Some(i), Some(j))),
        );
    }
    assert!(want.len() > 500 && want.len() < 20_000, "{}", want.len());
    let pairs: Vec<_> = ints(&got, 0).into_iter().zip(ints(&got, 3)).collect();
    assert_eq!(pairs, want);

    let semi = LogicalPlan::SemiJoin {
        left: Box::new(lhs),
        right: Box::new(rhs),
        on,
        residual: Some(residual),
        negated: false,
    };
    let got = Execution::new(&resolver).run(&semi).unwrap();
    let want: Vec<Option<i64>> = (0..ln)
        .filter(|&i| (0..rn).any(|j| passes(i, j)))
        .map(Some)
        .collect();
    assert!(want.len() > 100 && want.len() < 790, "{}", want.len());
    assert_eq!(ints(&got, 0), want);
}

#[test]
fn inequality_plus_equality_uses_residual() {
    let c = cluster();
    let r = q(
        &c,
        "SELECT p.tag FROM pairs p, lookup l WHERE p.a = l.a AND p.b < l.b ORDER BY p.tag",
    );
    // a=1: lookup (1,2): pairs (1,1) passes. a=2: lookup (2,2): pairs (2,1).
    assert_eq!(r.len(), 2);
    assert_eq!(r.value(0, 0), Value::str("one-one"));
    assert_eq!(r.value(1, 0), Value::str("two-one"));
}

#[test]
fn min_max_over_strings_and_dates() {
    let c = cluster();
    let r = q(
        &c,
        "SELECT min(name) AS lo, max(name) AS hi, min(day) AS first, max(day) AS last FROM events",
    );
    assert_eq!(r.value(0, 0), Value::str("alpha"));
    assert_eq!(r.value(0, 1), Value::str("omega"));
    assert_eq!(
        r.value(0, 2),
        Value::Date(date::parse("1995-01-01").unwrap())
    );
    assert_eq!(
        r.value(0, 3),
        Value::Date(date::parse("1996-02-29").unwrap())
    );
}

#[test]
fn distinct_treats_null_as_one_group() {
    let c = cluster();
    c.execute_script(
        "db",
        "CREATE TABLE n (v BIGINT);
         INSERT INTO n VALUES (1), (NULL), (1), (NULL), (2);",
    )
    .unwrap();
    let r = q(&c, "SELECT DISTINCT v FROM n");
    assert_eq!(r.len(), 3);
    let r = q(&c, "SELECT v, count(*) AS c FROM n GROUP BY v");
    assert_eq!(r.len(), 3);
    let null_group = r
        .rows()
        .find(|row| row[0].is_null())
        .expect("null group exists");
    assert_eq!(null_group[1], Value::Int(2));
}

#[test]
fn insert_evaluates_expressions() {
    let c = cluster();
    c.execute_script(
        "db",
        "CREATE TABLE calc (x BIGINT, y VARCHAR, z DATE);
         INSERT INTO calc VALUES (2 + 3 * 4, upper('ok'), DATE '1995-01-01' + INTERVAL '2' MONTH);",
    )
    .unwrap();
    let r = q(&c, "SELECT * FROM calc");
    assert_eq!(r.value(0, 0), Value::Int(14));
    assert_eq!(r.value(0, 1), Value::str("OK"));
    assert_eq!(
        r.value(0, 2),
        Value::Date(date::parse("1995-03-01").unwrap())
    );
}

#[test]
fn order_by_mixed_directions() {
    let c = cluster();
    let r = q(&c, "SELECT a, b FROM pairs ORDER BY a ASC, b DESC");
    let got: Vec<(i64, i64)> = r
        .rows()
        .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
        .collect();
    assert_eq!(got, vec![(1, 2), (1, 1), (2, 2), (2, 1)]);
}

#[test]
fn view_lifecycle_drop_and_recreate() {
    let c = cluster();
    c.execute("db", "CREATE VIEW v AS SELECT a FROM pairs WHERE b = 1")
        .unwrap();
    assert_eq!(
        q(&c, "SELECT count(*) AS n FROM v").value(0, 0),
        Value::Int(2)
    );
    c.execute("db", "DROP VIEW v").unwrap();
    assert!(c.query("db", "SELECT * FROM v").is_err());
    c.execute("db", "CREATE VIEW v AS SELECT b FROM pairs WHERE a = 2")
        .unwrap();
    assert_eq!(
        q(&c, "SELECT count(*) AS n FROM v").value(0, 0),
        Value::Int(2)
    );
}

#[test]
fn dropping_table_breaks_dependent_view_at_query_time() {
    let c = cluster();
    c.execute("db", "CREATE VIEW lv AS SELECT label FROM lookup")
        .unwrap();
    c.execute("db", "DROP TABLE lookup").unwrap();
    let err = c.query("db", "SELECT * FROM lv").unwrap_err();
    assert!(matches!(err, EngineError::Bind(_)), "{err}");
}

#[test]
fn explain_statement_returns_estimates_row() {
    let c = cluster();
    let r = q(&c, "EXPLAIN SELECT * FROM pairs WHERE a = 1");
    assert_eq!(r.width(), 3);
    assert_eq!(r.len(), 1);
}

#[test]
fn group_by_date_extract_with_nulls() {
    let c = cluster();
    let r = q(
        &c,
        "SELECT extract(year from day) AS y, count(*) AS n FROM events GROUP BY y ORDER BY 1",
    );
    // 1995 (x2), 1996, NULL year group.
    assert_eq!(r.len(), 3);
}

#[test]
fn like_on_null_is_not_a_match() {
    let c = cluster();
    let r = q(&c, "SELECT count(*) AS n FROM events WHERE name LIKE '%p%'");
    assert_eq!(r.value(0, 0), Value::Int(2)); // alpha, leap — NULL excluded
}

#[test]
fn engine_rejects_unknown_statement_targets() {
    let c = cluster();
    assert!(matches!(
        c.execute("db", "DROP TABLE ghost").unwrap_err(),
        EngineError::Catalog(_)
    ));
    assert!(matches!(
        c.execute("db", "INSERT INTO ghost VALUES (1)").unwrap_err(),
        EngineError::Catalog(_)
    ));
}

#[test]
fn load_table_rejects_duplicates() {
    let c = cluster();
    let rel = Relation::new(vec![("x".into(), xdb_sql::DataType::Int)], vec![]);
    c.engine("db")
        .unwrap()
        .load_table("fresh", rel.clone())
        .unwrap();
    assert!(c.engine("db").unwrap().load_table("fresh", rel).is_err());
}

#[test]
fn create_if_not_exists_is_idempotent() {
    let c = cluster();
    c.execute("db", "CREATE TABLE IF NOT EXISTS pairs (zz BIGINT)")
        .unwrap();
    // Original schema intact.
    assert_eq!(
        q(&c, "SELECT count(*) AS n FROM pairs").value(0, 0),
        Value::Int(4)
    );
    // Plain CREATE still errors.
    assert!(c.execute("db", "CREATE TABLE pairs (zz BIGINT)").is_err());
}

#[test]
fn no_remote_is_rejected_for_foreign_scan() {
    let c = cluster();
    c.execute(
        "db",
        "CREATE FOREIGN TABLE ft (x BIGINT) SERVER elsewhere OPTIONS (remote 'r')",
    )
    .unwrap();
    let engine = c.engine("db").unwrap();
    let err = engine
        .execute_sql("SELECT * FROM ft", &NoRemote)
        .unwrap_err();
    assert!(matches!(err, EngineError::Remote(_)));
}

/// A fetch that fails mid-edge is an error of the statement that read it,
/// whether the edge was read whole (a scan, a CTAS) or streamed (a join's
/// probe side, cut after its first chunk). The failed edge leaves no
/// ledger record and the CTAS no table.
#[test]
fn fetch_failing_mid_edge_is_an_error_and_leaves_no_trace() {
    let c = Cluster::lan(&["db_r", "db_s"], EngineProfile::postgres());
    c.execute_script(
        "db_r",
        "CREATE TABLE r (x BIGINT, y VARCHAR);
         INSERT INTO r VALUES (1, 'a'), (2, 'b'), (3, 'c');",
    )
    .unwrap();
    c.execute_script(
        "db_s",
        "CREATE TABLE s (x BIGINT, z VARCHAR);
         INSERT INTO s VALUES (2, 'beta'), (3, 'gamma'), (4, 'delta');
         CREATE FOREIGN TABLE ft (x BIGINT, y VARCHAR) SERVER db_r OPTIONS (remote 'r');",
    )
    .unwrap();
    let fails = |sql: &str, after: usize, chunk_rows: usize| {
        let records = c.ledger.len();
        let opts = StatementOptions {
            chunk_rows,
            ..Default::default()
        };
        c.fail_once("db_r", 0, FaultSite::Edge { after });
        let err = c.execute_with("db_s", sql, opts).unwrap_err();
        assert!(matches!(err, EngineError::Remote(_)), "{sql}: {err}");
        assert_eq!(
            c.ledger.len(),
            records,
            "{sql}: the failed edge was recorded"
        );
    };
    fails("SELECT * FROM ft", 0, DEFAULT_STREAM_CHUNK_ROWS);
    fails(
        "CREATE TABLE t AS SELECT * FROM ft",
        0,
        DEFAULT_STREAM_CHUNK_ROWS,
    );
    let consumer = c.engine("db_s").unwrap();
    assert!(!consumer
        .with_catalog(|cat| cat.names())
        .contains(&"t".to_string()));

    let join = "SELECT ft.y, s.z FROM ft, s WHERE ft.x = s.x";
    fails(join, 1, 1);
    // Uncut, the same streamed edge delivers all three of its morsels.
    let opts = StatementOptions {
        chunk_rows: 1,
        ..Default::default()
    };
    let (rel, _) = c
        .execute_with("db_s", join, opts)
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(rel.len(), 2);
}
