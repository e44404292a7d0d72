//! # xdb-baselines
//!
//! The systems the paper evaluates XDB against, re-implemented as
//! execution *strategies* over the same engine/network substrate so the
//! comparison isolates exactly what the paper studies — where
//! cross-database operations run and how intermediate data moves:
//!
//! - [`mediator`]: the Mediator-Wrapper architecture. `MediatorConfig::garlic`
//!   is the single-node Garlic-like system (binary protocol, co-located
//!   join pushdown); `MediatorConfig::presto` is the Presto/Trino-like
//!   scaled-out mediator (JDBC connectors, N workers).
//! - [`sclera`]: the ScleraDB-like naive in-situ system that moves every
//!   intermediate explicitly through its mediator with heuristic join
//!   placement.

pub mod mediator;
pub mod sclera;

pub use mediator::{Mediator, MediatorConfig, MwReport};
pub use sclera::{Sclera, ScleraReport};

use xdb_core::annotate::{AnnotateOptions, Annotator};
use xdb_core::global::GlobalCatalog;
use xdb_core::plan::DelegationPlan;
use xdb_engine::cluster::Cluster;
use xdb_engine::engine::log_parse_error;
use xdb_engine::error::{EngineError, Result};
use xdb_sql::ast::Statement;
use xdb_sql::bind::bind_select;
use xdb_sql::optimize::{optimize, OptimizeOptions};

/// The planning front half every baseline shares: parse, accept a SELECT
/// only (`who` names the system in the error), consult every table of the
/// federation, bind, optimize, and annotate under the baseline's own
/// placement policy.
fn plan_query(
    cluster: &Cluster,
    catalog: &GlobalCatalog,
    who: &str,
    sql: &str,
    optimize_options: OptimizeOptions,
    annotate: AnnotateOptions,
) -> Result<DelegationPlan> {
    let stmt =
        xdb_sql::parse_statement(sql).map_err(|e| log_parse_error(cluster.telemetry(), sql, e))?;
    let Statement::Select(select) = stmt else {
        return Err(EngineError::Unsupported(format!(
            "{who} accepts SELECT queries only"
        )));
    };
    for t in catalog.table_names() {
        catalog.consult(cluster, &t)?;
    }
    let bound = bind_select(&select, catalog)?;
    let optimized = optimize(bound, catalog, optimize_options);
    catalog.clear_placeholders();
    Ok(Annotator::new(catalog, cluster, annotate)
        .run(&optimized)?
        .plan)
}

/// The fleet telemetry of one finished baseline submission, emitted once
/// from its single-threaded tail so it is deterministic: the `mw.*` series
/// under `system`, and the completion `event` (target, message) with its
/// `fields`.
fn note_submit(
    cluster: &Cluster,
    system: &str,
    total_ms: f64,
    (bytes, encoded_bytes): (u64, u64),
    (target, message): (&str, &str),
    fields: &[(&str, &str)],
) {
    let telemetry = cluster.telemetry();
    let labels = [("system", system)];
    telemetry.metrics.observe("mw.total_ms", &labels, total_ms);
    telemetry.metrics.counter_add("mw.queries", &labels, 1.0);
    telemetry
        .metrics
        .counter_add("mw.fetch_bytes", &labels, bytes as f64);
    telemetry
        .metrics
        .counter_add("mw.fetch_encoded_bytes", &labels, encoded_bytes as f64);
    telemetry.events.log(
        xdb_obs::Level::Info,
        target,
        None,
        total_ms,
        message,
        fields,
    );
}
