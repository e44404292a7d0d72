//! Schema checks over every stage of XDB planning, shared by
//! `schema_oracle.rs` here and (by path) the root `props_delegation.rs`.

#[path = "../../../sql/tests/common/mod.rs"]
mod oracle;

use std::collections::HashMap;
use xdb_core::delegation::bind_placeholders;
use xdb_core::plan::placeholder_name;
use xdb_core::{AnnotateOptions, Annotator, GlobalCatalog};
use xdb_engine::cluster::Cluster;
use xdb_sql::bind::bind_select;
use xdb_sql::optimize::{optimize, OptimizeOptions};

/// Plan `sql` the way `Xdb::plan` does and compare, at every node, the
/// schema the plan carries with the oracle's from-scratch derivation: the
/// bound plan, the optimised plan, every annotated task body (after `cut`
/// and `apply_renames`) and every task body with its placeholders bound.
pub fn assert_staged_schemas(
    cluster: &Cluster,
    catalog: &GlobalCatalog,
    sql: &str,
    optimize_options: OptimizeOptions,
    annotate_options: AnnotateOptions,
) {
    let select = xdb_sql::parse_select(sql).unwrap();
    let bound = bind_select(&select, catalog).unwrap();
    oracle::assert_schemas(&bound, "bound");
    let output = bound.schema().clone();
    let optimized = optimize(bound, catalog, optimize_options);
    oracle::assert_schemas(&optimized, "optimized");
    assert_eq!(*optimized.schema(), output, "optimize changed the output");
    let annotation = Annotator::new(catalog, cluster, annotate_options)
        .run(&optimized)
        .unwrap();
    let plan = &annotation.plan;
    for task in &plan.tasks {
        oracle::assert_schemas(&task.plan, "task body");
        let bindings: HashMap<String, String> = plan
            .in_edges(task.id)
            .map(|e| (placeholder_name(e.from), format!("bound_{}", e.from)))
            .collect();
        let mut body = task.plan.clone();
        bind_placeholders(&mut body, &bindings).unwrap();
        oracle::assert_schemas(&body, "bound task body");
        assert_eq!(body.schema(), task.plan.schema());
    }
}
