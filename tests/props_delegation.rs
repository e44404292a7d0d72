//! Property test of the paper's core correctness claim: a delegation
//! plan's fully decentralized execution is equivalent to running the same
//! query on a single engine that holds every table.
//!
//! Random federations (3 DBMSes, 3 tables with random small contents) and
//! random SPJA queries (filters, equi-join chains, optional aggregation,
//! ordering, limits, correlated `EXISTS` / `NOT EXISTS`) are executed both
//! ways and compared as bags. Some join keys are NULL, so joins, semi joins
//! and anti joins meet SQL's three-valued logic on both sides.

#[path = "../crates/core/tests/common/mod.rs"]
mod staged;

use proptest::prelude::*;
use xdb::core::annotate::AnnotateOptions;
use xdb::core::{GlobalCatalog, Xdb, XdbOptions};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::engine::relation::Relation;
use xdb::net::Movement;
use xdb::sql::optimize::{JoinShape, OptimizeOptions};
use xdb::sql::value::{DataType, Value};

#[derive(Debug, Clone)]
struct Federation {
    /// rows for r0(a, g, s) on node n0; `a` is NULL in some rows.
    r0: Vec<(Option<i64>, i64, String)>,
    /// rows for r1(a, b) on node n1.
    r1: Vec<(i64, i64)>,
    /// rows for r2(b, h) on node n2; `b` is NULL in some rows.
    r2: Vec<(Option<i64>, String)>,
}

fn arb_federation() -> impl Strategy<Value = Federation> {
    let key = 0i64..8;
    // One key in five is NULL.
    let nullable_key = || (0i64..10).prop_map(|k| (k < 8).then_some(k));
    (
        prop::collection::vec((nullable_key(), -5i64..5, "[a-c]{1,3}"), 0..24),
        prop::collection::vec((key.clone(), key), 0..24),
        prop::collection::vec((nullable_key(), "[a-c]{1,3}"), 0..16),
    )
        .prop_map(|(r0, r1, r2)| Federation { r0, r1, r2 })
}

#[derive(Debug, Clone)]
struct Query {
    filter_a: Option<i64>,
    join_r1: bool,
    join_r2: bool,
    aggregate: bool,
    order_limit: Option<u64>,
    /// None = no subquery; Some(false) = EXISTS, Some(true) = NOT EXISTS
    /// (correlated on r2 via r0.a = r2.b — a cross-DBMS semi/anti join).
    exists_r2: Option<bool>,
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop::option::of(0i64..8),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop::option::of(1u64..6),
        prop::option::of(any::<bool>()),
    )
        .prop_map(
            |(filter_a, join_r1, join_r2, aggregate, order_limit, exists_r2)| Query {
                filter_a,
                // r2 joins through r1; don't both join and semi-join it.
                join_r2: join_r1 && join_r2 && exists_r2.is_none(),
                join_r1,
                aggregate,
                order_limit,
                exists_r2,
            },
        )
}

impl Query {
    fn sql(&self) -> String {
        let mut from = vec!["r0"];
        let mut preds: Vec<String> = Vec::new();
        if self.join_r1 {
            from.push("r1");
            preds.push("r0.a = r1.a".into());
        }
        if self.join_r2 {
            from.push("r2");
            preds.push("r1.b = r2.b".into());
        }
        if let Some(v) = self.filter_a {
            preds.push(format!("r0.a >= {v}"));
        }
        if let Some(negated) = self.exists_r2 {
            preds.push(format!(
                "{}EXISTS (SELECT 1 FROM r2 WHERE r2.b = r0.a)",
                if negated { "NOT " } else { "" }
            ));
        }
        let where_clause = if preds.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", preds.join(" AND "))
        };
        let (select, group) = if self.aggregate {
            (
                "r0.g AS g, count(*) AS n, sum(r0.a) AS total".to_string(),
                " GROUP BY r0.g".to_string(),
            )
        } else if self.join_r2 {
            ("r0.a AS a, r0.s AS s, r2.h AS h".to_string(), String::new())
        } else {
            ("r0.a AS a, r0.g AS g, r0.s AS s".to_string(), String::new())
        };
        let tail = match self.order_limit {
            Some(n) if self.aggregate => format!(" ORDER BY n DESC, g LIMIT {n}"),
            Some(n) => format!(" ORDER BY 1, 2, 3 LIMIT {n}"),
            None => String::new(),
        };
        format!(
            "SELECT {select} FROM {}{where_clause}{group}{tail}",
            from.join(", ")
        )
    }
}

fn int_or_null(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

fn load(cluster: &Cluster, node: &str, fed: &Federation, table: &str) {
    let rel = match table {
        "r0" => Relation::new(
            vec![
                ("a".into(), DataType::Int),
                ("g".into(), DataType::Int),
                ("s".into(), DataType::Str),
            ],
            fed.r0
                .iter()
                .map(|(a, g, s)| vec![int_or_null(*a), Value::Int(*g), Value::str(s)])
                .collect(),
        ),
        "r1" => Relation::new(
            vec![("a".into(), DataType::Int), ("b".into(), DataType::Int)],
            fed.r1
                .iter()
                .map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)])
                .collect(),
        ),
        "r2" => Relation::new(
            vec![("b".into(), DataType::Int), ("h".into(), DataType::Str)],
            fed.r2
                .iter()
                .map(|(b, h)| vec![int_or_null(*b), Value::str(h)])
                .collect(),
        ),
        _ => unreachable!(),
    };
    cluster
        .engine(node)
        .unwrap()
        .load_table(table, rel)
        .unwrap();
}

fn run_case(fed: &Federation, q: &Query, options: XdbOptions) -> (Relation, Relation) {
    // Decentralized.
    let cluster = Cluster::lan(&["n0", "n1", "n2"], EngineProfile::postgres());
    load(&cluster, "n0", fed, "r0");
    load(&cluster, "n1", fed, "r1");
    load(&cluster, "n2", fed, "r2");
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    for t in catalog.table_names() {
        catalog.consult(&cluster, &t).unwrap();
    }
    let xdb = Xdb::new(&cluster, &catalog).with_options(options);
    let got = xdb.submit(&q.sql()).unwrap().relation;

    // Oracle.
    let solo = Cluster::lan(&["solo"], EngineProfile::postgres());
    load(&solo, "solo", fed, "r0");
    load(&solo, "solo", fed, "r1");
    load(&solo, "solo", fed, "r2");
    let expected = solo.query("solo", &q.sql()).unwrap().0;
    (got, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn decentralized_equals_single_engine(fed in arb_federation(), q in arb_query()) {
        let (got, expected) = run_case(&fed, &q, XdbOptions::default());
        // LIMIT without a total order can legitimately pick different
        // rows; our ORDER BY covers all output columns for the
        // non-aggregate case, and (n, g) keys for the aggregate case —
        // aggregate rows are unique per g, so both are deterministic.
        prop_assert!(
            got.same_bag(&expected),
            "query {:?}\ngot\n{}\nexpected\n{}",
            q.sql(),
            got.to_table_string(30),
            expected.to_table_string(30)
        );
    }

    #[test]
    fn forced_movements_preserve_semantics(fed in arb_federation(), q in arb_query()) {
        for movement in [Movement::Implicit, Movement::Explicit] {
            let options = XdbOptions {
                annotate: AnnotateOptions {
                    force_movement: Some(movement),
                    ..Default::default()
                },
                ..Default::default()
            };
            let (got, expected) = run_case(&fed, &q, options);
            prop_assert!(
                got.same_bag(&expected),
                "movement {:?}, query {:?}",
                movement,
                q.sql()
            );
        }
    }

    #[test]
    fn disabled_optimizations_preserve_semantics(fed in arb_federation(), q in arb_query()) {
        let options = XdbOptions {
            no_join_reorder: true,
            no_column_pruning: true,
            ..Default::default()
        };
        let (got, expected) = run_case(&fed, &q, options);
        prop_assert!(got.same_bag(&expected), "query {:?}", q.sql());
    }

    #[test]
    fn every_planning_stage_carries_the_oracle_schema(
        fed in arb_federation(),
        q in arb_query(),
        reorder_joins in any::<bool>(),
        prune_columns in any::<bool>(),
        bushy in any::<bool>(),
    ) {
        let cluster = Cluster::lan(&["n0", "n1", "n2"], EngineProfile::postgres());
        load(&cluster, "n0", &fed, "r0");
        load(&cluster, "n1", &fed, "r1");
        load(&cluster, "n2", &fed, "r2");
        let catalog = GlobalCatalog::discover(&cluster).unwrap();
        for t in catalog.table_names() {
            catalog.consult(&cluster, &t).unwrap();
        }
        staged::assert_staged_schemas(
            &cluster,
            &catalog,
            &q.sql(),
            OptimizeOptions {
                reorder_joins,
                prune_columns,
                join_shape: if bushy { JoinShape::Bushy } else { JoinShape::LeftDeep },
            },
            AnnotateOptions::default(),
        );
    }

    #[test]
    fn bushy_plans_preserve_semantics(fed in arb_federation(), q in arb_query()) {
        let options = XdbOptions {
            bushy_joins: true,
            ..Default::default()
        };
        let (got, expected) = run_case(&fed, &q, options);
        prop_assert!(got.same_bag(&expected), "query {:?}", q.sql());
    }
}
