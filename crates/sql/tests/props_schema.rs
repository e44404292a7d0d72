//! Plan once: a node's output schema is built when the node is built.
//! These properties compare the schema every node carries with a
//! from-scratch recomputation (`common::recomputed_schema`, the recursive
//! function production code no longer has) over random select-project-
//! join-aggregate queries — the shape of `tests/props_delegation.rs`,
//! plus views, derived tables and DISTINCT — bound and then optimised
//! under every combination of optimiser options.

mod common;

use common::{assert_schemas, recomputed_schema, resolve_comparing_every_field};
use proptest::prelude::*;
use std::sync::Arc;
use xdb_sql::algebra::{Field, LogicalPlan, PlanSchema};
use xdb_sql::ast::Expr;
use xdb_sql::bind::{bind_select, intern_fields, ResolvedRelation, SchemaProvider};
use xdb_sql::optimize::{optimize, JoinShape, OptimizeOptions};
use xdb_sql::parse_select;
use xdb_sql::stats::NoStats;
use xdb_sql::value::DataType;

/// r0(a, g, s), r1(a, b), r2(b, h) and the view v1 over r1.
struct Tables;

impl SchemaProvider for Tables {
    fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
        let base = |cols: &[(&str, DataType)]| ResolvedRelation::Base {
            fields: intern_fields(cols),
        };
        Some(match name.to_ascii_lowercase().as_str() {
            "r0" => base(&[
                ("a", DataType::Int),
                ("g", DataType::Int),
                ("s", DataType::Str),
            ]),
            "r1" => base(&[("a", DataType::Int), ("b", DataType::Int)]),
            "r2" => base(&[("b", DataType::Int), ("h", DataType::Str)]),
            "v1" => ResolvedRelation::View {
                query: Arc::new(parse_select("SELECT a, b, a * 0.5 AS half FROM r1").unwrap()),
            },
            _ => return None,
        })
    }
}

#[derive(Debug, Clone)]
struct Query {
    filter_a: Option<i64>,
    /// None = no join; Some(false) = the table r1, Some(true) = the view v1.
    join_r1: Option<bool>,
    join_r2: bool,
    aggregate: bool,
    distinct: bool,
    order_limit: Option<u64>,
    /// None = no subquery; Some(false) = EXISTS, Some(true) = NOT EXISTS.
    exists_r2: Option<bool>,
    /// Wrap the whole block into a derived table and select from it.
    derived: bool,
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        (
            prop::option::of(0i64..8),
            prop::option::of(any::<bool>()),
            any::<bool>(),
            prop::option::of(any::<bool>()),
        ),
        (
            any::<bool>(),
            any::<bool>(),
            prop::option::of(1u64..6),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (filter_a, join_r1, join_r2, exists_r2),
                (aggregate, distinct, order_limit, derived),
            )| {
                Query {
                    filter_a,
                    join_r2: join_r1.is_some() && join_r2 && exists_r2.is_none(),
                    join_r1,
                    aggregate,
                    distinct: distinct && !aggregate,
                    order_limit,
                    exists_r2,
                    derived,
                }
            },
        )
}

impl Query {
    fn sql(&self) -> String {
        let mut from = vec!["r0".to_string()];
        let mut preds: Vec<String> = Vec::new();
        if let Some(view) = self.join_r1 {
            from.push(if view { "v1 AS r1" } else { "r1" }.to_string());
            preds.push("r0.a = r1.a".into());
        }
        if self.join_r2 {
            from.push("r2".into());
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
                "r0.g AS g, count(*) AS n, sum(r0.a) AS total, avg(r0.a) AS mean",
                " GROUP BY r0.g",
            )
        } else if self.join_r2 {
            ("r0.a AS a, r0.s AS s, r2.h AS h", "")
        } else {
            ("r0.a AS a, r0.g + 1 AS g, r0.s AS s", "")
        };
        let tail = match self.order_limit {
            Some(n) if self.aggregate => format!(" ORDER BY n DESC, g LIMIT {n}"),
            Some(n) => format!(" ORDER BY 1, 2, 3 LIMIT {n}"),
            None => String::new(),
        };
        let block = format!(
            "SELECT {}{select} FROM {}{where_clause}{group}{tail}",
            if self.distinct { "DISTINCT " } else { "" },
            from.join(", ")
        );
        if self.derived {
            format!("SELECT d.* FROM ({block}) AS d")
        } else {
            block
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bound_and_optimised_plans_carry_the_oracle_schema(
        q in arb_query(),
        reorder_joins in any::<bool>(),
        prune_columns in any::<bool>(),
        bushy in any::<bool>(),
    ) {
        let bound = bind_select(&parse_select(&q.sql()).unwrap(), &Tables).unwrap();
        assert_schemas(&bound, "bound");
        let output = bound.schema().clone();
        let options = OptimizeOptions {
            reorder_joins,
            prune_columns,
            join_shape: if bushy { JoinShape::Bushy } else { JoinShape::LeftDeep },
        };
        let optimized = optimize(bound, &NoStats, options);
        assert_schemas(&optimized, "optimized");
        prop_assert_eq!(optimized.schema(), &output, "query {:?}", q.sql());
    }
}

/// Names and qualifiers from a pool small enough that random schemas hold
/// case variants of one name, one name under several qualifiers, and bare
/// duplicates; `x`/`zz` and `q9` are never in a schema.
fn arb_name() -> impl Strategy<Value = &'static str> {
    (0usize..8).prop_map(|i| ["a", "A", "ab", "Ab", "b", "a_b", "x", "zz"][i])
}

fn arb_qualifier() -> impl Strategy<Value = Option<&'static str>> {
    prop::option::of((0usize..5).prop_map(|i| ["t", "T", "u", "tu", "q9"][i]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `resolve` answers what the loop that compared every field answered:
    /// the same index, the same `Unknown`, the same `Ambiguous`, with the
    /// same text.
    #[test]
    fn resolve_agrees_with_comparing_every_field(
        fields in prop::collection::vec((arb_qualifier(), arb_name()), 0..9),
        lookups in prop::collection::vec((arb_qualifier(), arb_name()), 1..12),
    ) {
        let schema = PlanSchema::new(
            fields
                .iter()
                .filter(|(q, n)| *q != Some("q9") && !matches!(*n, "x" | "zz"))
                .map(|(q, n)| Field::new(*q, n, DataType::Int))
                .collect(),
        );
        // Every reference drawn, and every field addressed as it is named.
        let own = schema.fields.iter().map(|f| (f.qualifier.as_deref(), &*f.name));
        for (q, n) in lookups.iter().copied().chain(own) {
            prop_assert_eq!(
                schema.resolve(q, n),
                resolve_comparing_every_field(&schema, q, n),
                "{:?}.{} in {:?}", q, n, schema
            );
        }
    }
}

#[test]
fn a_twelve_way_join_hands_out_one_schema() {
    let table = |i: usize| {
        let name = format!("t{i}");
        LogicalPlan::scan(
            name.clone(),
            name,
            intern_fields(&[
                (format!("k{i}"), DataType::Int),
                (format!("v{i}"), DataType::Str),
            ])
            .iter()
            .cloned(),
        )
    };
    let mut plan = table(0);
    for i in 1..12 {
        let on = (
            Expr::qcol(format!("t{}", i - 1), format!("k{}", i - 1)),
            Expr::qcol(format!("t{i}"), format!("k{i}")),
        );
        plan = plan.join(table(i), vec![on]);
    }
    assert_eq!(plan.schema().len(), 24);
    assert_schemas(&plan, "left-deep join");
    // The root's schema is the one it was built with: the same allocation
    // on every call, sharing each name with the leaf that introduced it.
    let (first, second) = (plan.schema(), plan.schema());
    assert!(std::ptr::eq(first, second));
    assert!(Arc::ptr_eq(&first.fields, &second.fields));
    let mut leaf = &plan;
    while let LogicalPlan::Join { left, .. } = leaf {
        leaf = left;
    }
    assert!(Arc::ptr_eq(
        &first.fields[0].name,
        &leaf.schema().fields[0].name
    ));
    assert_eq!(*first, recomputed_schema(&plan));
}

/// The oracle has teeth: a field edited behind the constructors' back is
/// exactly the stale schema it exists to catch.
#[test]
#[should_panic(expected = "stale schema")]
fn the_oracle_catches_a_schema_edited_in_place() {
    let mut plan = LogicalPlan::scan("t", "t", [("a".into(), DataType::Int)]);
    if let LogicalPlan::Scan { alias, .. } = &mut plan {
        *alias = "renamed".into();
    }
    assert_schemas(&plan, "edited in place");
}
