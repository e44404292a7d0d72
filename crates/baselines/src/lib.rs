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

use xdb_core::annotate::{plan_fingerprint, result_digest, stable_hash_hex};
use xdb_core::annotate::{AnnotateOptions, Annotator};
use xdb_core::client::edge_observations;
use xdb_core::global::GlobalCatalog;
use xdb_core::plan::DelegationPlan;
use xdb_engine::cluster::Cluster;
use xdb_engine::engine::log_parse_error;
use xdb_engine::error::{EngineError, Result};
use xdb_engine::relation::Relation;
use xdb_net::Transfer;
use xdb_obs::HistoryRecord;
use xdb_sql::ast::Statement;
use xdb_sql::bind::bind_select;
use xdb_sql::optimize::{optimize, OptimizeOptions};

/// A baseline's decomposed query, with what its history record needs
/// from planning: this query's own consultation-cache hits and misses,
/// and the annotator's round trips.
struct Planned {
    plan: DelegationPlan,
    consult_hits: u64,
    consult_misses: u64,
    consult_roundtrips: u64,
}

/// The planning front half every baseline shares: parse, accept a SELECT
/// only (`who` names the system in the error), consult every table of the
/// federation, bind, optimize, and annotate under the baseline's own
/// placement policy. The probes are counted as `Xdb` counts its own: from
/// what each consult and the annotation answered.
fn plan_query(
    cluster: &Cluster,
    catalog: &GlobalCatalog,
    who: &str,
    sql: &str,
    optimize_options: OptimizeOptions,
    annotate: AnnotateOptions,
) -> Result<Planned> {
    let stmt =
        xdb_sql::parse_statement(sql).map_err(|e| log_parse_error(cluster.telemetry(), sql, e))?;
    let Statement::Select(select) = stmt else {
        return Err(EngineError::Unsupported(format!(
            "{who} accepts SELECT queries only"
        )));
    };
    let (mut hits, mut misses) = (0, 0);
    for t in catalog.table_names() {
        let hit = catalog.consult(cluster, &t)?;
        *if hit { &mut hits } else { &mut misses } += 1;
    }
    let bound = bind_select(&select, catalog)?;
    let optimized = optimize(bound, catalog, optimize_options);
    let annotation = Annotator::new(catalog, cluster, annotate).run(&optimized)?;
    Ok(Planned {
        plan: annotation.plan,
        consult_hits: hits + annotation.cache_hits,
        consult_misses: misses + annotation.consults,
        consult_roundtrips: annotation.consults,
    })
}

/// The [`HistoryRecord`] of one finished baseline submission, which its
/// report carries: built under `deployment` from the SQL text, the digest
/// of `result`, the planning counts and the edges of the run's own
/// `transfers`. The label is left empty for the runner to stamp.
fn record(
    (sql, result): (&str, &Relation),
    planned: &Planned,
    transfers: &[Transfer],
    deployment: &str,
    (total_ms, transfer_ms): (f64, f64),
) -> HistoryRecord {
    HistoryRecord {
        deployment: deployment.to_string(),
        sql_fnv: stable_hash_hex(sql.as_bytes()),
        fingerprint: plan_fingerprint(&planned.plan),
        tasks: planned.plan.tasks.len() as u64,
        result_digest: result_digest(result),
        total_ms,
        phases: vec![("transfer".to_string(), transfer_ms)],
        consult_hits: planned.consult_hits,
        consult_misses: planned.consult_misses,
        consult_roundtrips: planned.consult_roundtrips,
        edges: edge_observations(transfers),
        ..HistoryRecord::default()
    }
}

/// Publish one finished baseline submission, on its single thread so it
/// is deterministic: the `mw.*` series under `system`, read off its
/// `record` (moved bytes by the record's one rule), and the completion
/// `event` (target, message, fields).
fn note_submit(
    cluster: &Cluster,
    system: &str,
    record: &HistoryRecord,
    (target, message, fields): (&str, &str, &[(&str, &str)]),
) {
    let telemetry = cluster.telemetry();
    let (bytes, encoded_bytes) = record.moved_bytes();
    let labels = [("system", system)];
    telemetry
        .metrics
        .observe("mw.total_ms", &labels, record.total_ms);
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
        record.total_ms,
        message,
        fields,
    );
}
