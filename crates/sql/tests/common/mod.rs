//! Test oracle for plan schemas: the from-scratch, recursive derivation
//! that `LogicalPlan::schema()` was before nodes carried their schema.
//! Production code reads the schema a node was built with; tests compare
//! it with this at every node. Shared with `crates/core/tests` by path.

use xdb_sql::algebra::{infer_type, AggCall, Field, LogicalPlan, Name, PlanSchema, SchemaError};
use xdb_sql::ast::Expr;
use xdb_sql::value::DataType;

/// Output schema of `plan`, derived from its leaves up, reading no stored
/// schema above a leaf (a leaf's own column list is its definition).
pub fn recomputed_schema(plan: &LogicalPlan) -> PlanSchema {
    match plan {
        LogicalPlan::Scan { alias, schema, .. }
        | LogicalPlan::Placeholder { alias, schema, .. } => PlanSchema::new(
            schema
                .fields
                .iter()
                .map(|f| Field::new(Some(&**alias), &f.name, f.data_type))
                .collect(),
        ),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input } => recomputed_schema(input),
        LogicalPlan::SubqueryAlias { input, alias, .. } => PlanSchema::new(
            recomputed_schema(input)
                .fields
                .iter()
                .map(|f| Field::new(Some(&**alias), &f.name, f.data_type))
                .collect(),
        ),
        LogicalPlan::OneRow => PlanSchema::default(),
        LogicalPlan::Project { input, exprs, .. } => {
            let in_schema = recomputed_schema(input);
            PlanSchema::new(
                exprs
                    .iter()
                    .map(|(e, name)| {
                        Field::bare(name, infer_type(e, &in_schema).unwrap_or(DataType::Float))
                    })
                    .collect(),
            )
        }
        LogicalPlan::Join { left, right, .. } => {
            let mut fields = recomputed_schema(left).fields.to_vec();
            fields.extend(recomputed_schema(right).fields.iter().cloned());
            PlanSchema::new(fields)
        }
        LogicalPlan::SemiJoin { left, .. } => recomputed_schema(left),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => aggregate_schema(&recomputed_schema(input), group_by, aggregates),
    }
}

fn aggregate_schema(
    in_schema: &PlanSchema,
    group_by: &[(Expr, Name)],
    aggregates: &[(AggCall, Name)],
) -> PlanSchema {
    let mut fields = Vec::new();
    for (e, name) in group_by {
        fields.push(Field::bare(
            name,
            infer_type(e, in_schema).unwrap_or(DataType::Str),
        ));
    }
    for (agg, name) in aggregates {
        fields.push(Field::bare(name, agg.output_type(in_schema)));
    }
    PlanSchema::new(fields)
}

/// Every node of `plan` carries the schema the oracle derives for it, and
/// hands out the same allocation on every call.
pub fn assert_schemas(plan: &LogicalPlan, what: &str) {
    let carried = plan.schema();
    assert_eq!(
        *carried,
        recomputed_schema(plan),
        "{what}: stale schema at\n{}",
        plan.tree_string()
    );
    assert!(
        std::ptr::eq(carried, plan.schema())
            && std::sync::Arc::ptr_eq(&carried.fields, &plan.schema().fields),
        "{what}: schema() built a new schema at\n{}",
        plan.tree_string()
    );
    for child in plan.children() {
        assert_schemas(child, what);
    }
}

/// Test oracle for [`PlanSchema::resolve`]: the loop it was before it
/// asked for the name first, comparing name and qualifier of every field.
/// Only `props_schema.rs` of the binaries that include this module uses it.
#[allow(dead_code)]
pub fn resolve_comparing_every_field(
    schema: &PlanSchema,
    qualifier: Option<&str>,
    name: &str,
) -> Result<usize, SchemaError> {
    let shown = || match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    };
    let mut found: Option<usize> = None;
    for (i, f) in schema.fields.iter().enumerate() {
        let name_matches = f.name.eq_ignore_ascii_case(name);
        let qual_matches = match qualifier {
            Some(q) => f
                .qualifier
                .as_deref()
                .is_some_and(|fq| fq.eq_ignore_ascii_case(q)),
            None => true,
        };
        if name_matches && qual_matches {
            if found.is_some() {
                return Err(SchemaError::Ambiguous(shown()));
            }
            found = Some(i);
        }
    }
    found.ok_or_else(|| SchemaError::Unknown(shown()))
}
