//! The delegation engine (Section V): rewrite a delegation plan into
//! DBMS-specific DDL statements that "prepare" the underlying DBMSes, then
//! trigger the in-situ execution with a single XDB query.
//!
//! For every task (Algorithm 1):
//! 1. each in-edge becomes a `CREATE FOREIGN TABLE` on the consuming DBMS
//!    pointing at the producing task's view;
//! 2. an *explicit* in-edge additionally materializes the foreign table
//!    with `CREATE TABLE ... AS SELECT * FROM <ft>`;
//! 3. the task body becomes a `CREATE VIEW` over local tables, foreign
//!    tables and materialized copies — always a *virtual relation* on the
//!    producer side, which is what prevents the "undesirable executions"
//!    of vendor wrappers pushing operations to the wrong side.
//!
//! The client then runs `SELECT * FROM <root view>` on the root DBMS; the
//! chained views trickle the execution down across all DBMSes (Fig 8).

use crate::plan::{placeholder_name, DelegationPlan};
use std::collections::HashMap;
use std::ops::Range;
use xdb_engine::cluster::Cluster;
use xdb_engine::engine::{ExecReport, StatementOptions};
use xdb_engine::error::{DropFailure, EngineError, FailedStatement, Result};
use xdb_engine::relation::Relation;
use xdb_net::{params, Movement, NodeId, Transfer};
use xdb_obs::{ExecProfile, SpanId, SpanKind, TraceCtx};
use xdb_sql::algebra::{plan_to_select, LogicalPlan};
use xdb_sql::ast::{ColumnDef, Statement};
use xdb_sql::display::render_statement;

/// What a DDL step does (for display and cleanup ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdlKind {
    View,
    ForeignTable,
    Materialize,
}

/// One DDL statement addressed to one DBMS.
#[derive(Debug, Clone)]
pub struct DdlStep {
    pub node: NodeId,
    pub sql: String,
    pub kind: DdlKind,
    /// Task whose deployment this step belongs to.
    pub task: usize,
    /// For `Materialize` steps: the edge (producer task) being
    /// materialized.
    pub edge_from: Option<usize>,
}

/// The rendered deployment: DDLs, cleanup, and the final XDB query.
#[derive(Debug, Clone)]
pub struct DelegationScript {
    /// The query id baked into every `xdb_q<id>_*` object name; doubles as
    /// the correlation id on telemetry events.
    pub query_id: u64,
    pub steps: Vec<DdlStep>,
    /// DROP statements undoing every created object, in reverse order.
    pub cleanup: Vec<(NodeId, String)>,
    /// The XDB query handed back to the client (Section III, step 4).
    pub xdb_query: String,
    pub root_node: NodeId,
}

/// Outcome of running a delegation script.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    pub relation: Relation,
    /// Simulated time of the delegation + execution phase: DDL round
    /// trips, explicit materializations (respecting task dependencies),
    /// and the final pipelined query.
    pub exec_ms: f64,
    pub ddl_count: usize,
    /// What the XDB query pulled through the implicit pipeline, in the
    /// order the ledger received it.
    pub pulled: Vec<Transfer>,
}

impl DelegationScript {
    /// `cause`, as the failure of statement `index`, sent to `node`
    /// ([`EngineError::Statement`]; the XDB query's index is the step count).
    fn failed(&self, index: usize, node: &NodeId, cause: EngineError) -> EngineError {
        EngineError::Statement(Box::new(FailedStatement {
            query_id: self.query_id,
            node: node.to_string(),
            index,
            cause,
            cleanup: Vec::new(),
        }))
    }

    /// Each task and the range of its steps, in script order: also the
    /// range of its reports and transfers in [`Deployed`] and of its
    /// control messages. [`build_script`] emits a task as one contiguous
    /// run of steps, so the ranges tile the script.
    pub(crate) fn task_runs(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let mut at = 0;
        self.steps
            .chunk_by(|a, b| a.task == b.task)
            .map(move |run| {
                at += run.len();
                (run[0].task, at - run.len()..at)
            })
    }
}

/// Names for the short-lived relations of one deployed query.
pub(crate) fn view_name(query_id: u64, task: usize) -> String {
    format!("xdb_q{query_id}_t{task}")
}

fn foreign_name(query_id: u64, from: usize, to: usize) -> String {
    format!("xdb_q{query_id}_t{from}_t{to}_ft")
}

fn mat_name(query_id: u64, from: usize, to: usize) -> String {
    format!("xdb_q{query_id}_t{from}_t{to}_mat")
}

/// Render the delegation plan into per-DBMS DDL statements (Algorithm 1).
pub fn build_script(
    plan: &DelegationPlan,
    query_id: u64,
    cluster: &Cluster,
) -> Result<DelegationScript> {
    build_script_with_reuse(plan, query_id, cluster, &HashMap::new())
}

/// [`build_script`] with plan folding: tasks present in `reuse` are
/// *already deployed* by an earlier query of the same scheduling window
/// (the map gives the live view name of the shared fragment on the
/// producer's node), so no DDL is emitted for them and foreign tables of
/// their consumers point straight at the shared view. With an empty map
/// this is exactly Algorithm 1.
pub(crate) fn build_script_with_reuse(
    plan: &DelegationPlan,
    query_id: u64,
    cluster: &Cluster,
    reuse: &HashMap<usize, String>,
) -> Result<DelegationScript> {
    let mut steps: Vec<DdlStep> = Vec::new();
    let mut cleanup: Vec<(NodeId, String)> = Vec::new();
    for id in plan.topo_order() {
        if reuse.contains_key(&id) {
            continue;
        }
        let task = plan.task(id);
        let dialect = cluster.engine(task.dbms.as_str())?.profile.dialect;
        // Bind each placeholder to a foreign table (implicit) or a
        // materialized copy (explicit).
        let mut bindings: HashMap<String, String> = HashMap::new();
        for edge in plan.in_edges(id) {
            let producer = plan.task(edge.from);
            let ft = foreign_name(query_id, edge.from, id);
            let columns: Vec<ColumnDef> = producer
                .output_fields
                .iter()
                .map(|(n, t)| ColumnDef {
                    name: n.clone(),
                    data_type: *t,
                })
                .collect();
            let create_ft = Statement::CreateForeignTable {
                name: ft.clone(),
                columns,
                server: producer.dbms.as_str().to_string(),
                remote_name: Some(
                    reuse
                        .get(&edge.from)
                        .cloned()
                        .unwrap_or_else(|| view_name(query_id, edge.from)),
                ),
            };
            steps.push(DdlStep {
                node: task.dbms.clone(),
                sql: render_statement(&create_ft, dialect),
                kind: DdlKind::ForeignTable,
                task: id,
                edge_from: Some(edge.from),
            });
            cleanup.push((
                task.dbms.clone(),
                format!("DROP FOREIGN TABLE IF EXISTS {ft}"),
            ));
            let bound = match edge.movement {
                Movement::Implicit => ft,
                Movement::Explicit => {
                    let mat = mat_name(query_id, edge.from, id);
                    steps.push(DdlStep {
                        node: task.dbms.clone(),
                        sql: format!("CREATE TABLE {mat} AS SELECT * FROM {ft}"),
                        kind: DdlKind::Materialize,
                        task: id,
                        edge_from: Some(edge.from),
                    });
                    cleanup.push((task.dbms.clone(), format!("DROP TABLE IF EXISTS {mat}")));
                    mat
                }
            };
            bindings.insert(placeholder_name(edge.from), bound);
        }
        // Rewrite placeholders to their bound relation names and render
        // the task body as a view.
        let mut body = task.plan.clone();
        bind_placeholders(&mut body, &bindings)?;
        let select = plan_to_select(&body)?;
        let view = view_name(query_id, id);
        let create_view = Statement::CreateView {
            name: view.clone(),
            query: Box::new(select),
            or_replace: false,
        };
        steps.push(DdlStep {
            node: task.dbms.clone(),
            sql: render_statement(&create_view, dialect),
            kind: DdlKind::View,
            task: id,
            edge_from: None,
        });
        cleanup.push((task.dbms.clone(), format!("DROP VIEW IF EXISTS {view}")));
    }
    cleanup.reverse();
    let root = plan.task(plan.root);
    let root_view = reuse
        .get(&plan.root)
        .cloned()
        .unwrap_or_else(|| view_name(query_id, plan.root));
    Ok(DelegationScript {
        query_id,
        steps,
        cleanup,
        xdb_query: format!("SELECT * FROM {root_view}"),
        root_node: root.dbms.clone(),
    })
}

/// Replace placeholder relation names with their bound (foreign or
/// materialized) relation names, in place: a placeholder's name is not part
/// of any schema. Also used by the fragment-key canonicalization, which
/// rebinds placeholders to child-key-derived names.
pub fn bind_placeholders(plan: &mut LogicalPlan, bindings: &HashMap<String, String>) -> Result<()> {
    match plan {
        LogicalPlan::Placeholder { name, .. } => {
            let bound = bindings
                .get(name.as_str())
                .ok_or_else(|| EngineError::Execution(format!("unbound placeholder {name:?}")))?;
            name.clone_from(bound);
            Ok(())
        }
        LogicalPlan::Scan { .. } | LogicalPlan::OneRow => Ok(()),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::SubqueryAlias { input, .. } => bind_placeholders(input, bindings),
        LogicalPlan::Join { left, right, .. } | LogicalPlan::SemiJoin { left, right, .. } => {
            bind_placeholders(left, bindings)?;
            bind_placeholders(right, bindings)
        }
    }
}

/// Tail of a script's execution: replay the simulated timeline from the
/// per-step reports (in script order), run the final XDB query, and emit the
/// execution spans. `script` is the one the reports belong to: the deployed
/// script, or for a partially folded query its solo script with the
/// fragment owners' reports spliced in.
///
/// DDLs are cheap control messages. Explicit materializations are
/// *execution* work: each `CREATE TABLE AS` pulls its upstream pipeline;
/// independent materializations overlap, dependent ones chain. The final
/// `SELECT * FROM <root view>` then streams through the remaining implicit
/// pipeline.
///
/// Everything here is driven only by script order and the step reports,
/// which come off the simulated clock. The XDB query runs under `opts`, as
/// the deployment's steps did.
pub(crate) fn finish_script(
    cluster: &Cluster,
    plan: &DelegationPlan,
    script: &DelegationScript,
    step_reports: &[ExecReport],
    trace: &TraceCtx<'_>,
    opts: StatementOptions,
) -> Result<ExecutionOutcome> {
    debug_assert_eq!(step_reports.len(), script.steps.len());
    // (from, to) -> producer ready-time / absolute finish time of each
    // materialization. The CTAS report already contains the implicit
    // upstream chain of the producer's view; its base is the ready-time of
    // the producer (its own explicit dependencies).
    let mut mat_base: HashMap<(usize, usize), f64> = HashMap::new();
    let mut mat_finish: HashMap<(usize, usize), f64> = HashMap::new();
    for (step, report) in script.steps.iter().zip(step_reports) {
        if step.kind == DdlKind::Materialize {
            let from = step.edge_from.expect("materialize step has an edge");
            let mut memo = HashMap::new();
            let base = ready(plan, from, &mat_finish, &mut memo);
            mat_base.insert((from, step.task), base);
            mat_finish.insert((from, step.task), base + report.finish_ms);
        }
    }
    let ddl_count = script.steps.len();
    let ddl_ms = ddl_count as f64 * params::DDL_ROUNDTRIP_MS;

    // The XDB query triggers the in-situ pipeline.
    let root = &script.root_node;
    let failed = |e| script.failed(script.steps.len(), root, e);
    let mut outcome = cluster
        .execute_with(root.as_str(), &script.xdb_query, opts)
        .map_err(failed)?;
    let pulled = std::mem::take(&mut outcome.transfers);
    let (relation, report) = outcome.into_rows().map_err(failed)?;
    let mut memo = HashMap::new();
    let root_ready = ready(plan, plan.root, &mat_finish, &mut memo);
    let exec_ms = ddl_ms + root_ready + report.finish_ms;
    emit_exec_spans(
        trace,
        plan,
        script,
        step_reports,
        &report,
        ddl_ms,
        &mat_base,
        &mat_finish,
        root_ready,
    );
    let telemetry = cluster.telemetry();
    for (step, report) in script.steps.iter().zip(step_reports) {
        telemetry.metrics.observe(
            "exec.step_work_ms",
            &[("engine", step.node.as_str())],
            report.work_ms,
        );
        if step.kind == DdlKind::Materialize {
            let from = step.edge_from.expect("materialize step has an edge");
            let key = (from, step.task);
            telemetry.metrics.observe(
                "exec.materialize_ms",
                &[("movement", "explicit")],
                mat_finish[&key] - mat_base[&key],
            );
        }
    }
    telemetry.metrics.observe("exec.query_ms", &[], exec_ms);
    telemetry.metrics.observe("exec.ddl_ms", &[], ddl_ms);
    let rows = relation.len().to_string();
    let ddls = ddl_count.to_string();
    telemetry.events.log(
        xdb_obs::Level::Info,
        "core.delegation",
        Some(script.query_id),
        exec_ms,
        "delegated execution finished",
        &[
            ("root", script.root_node.as_str()),
            ("rows", &rows),
            ("ddl_count", &ddls),
        ],
    );
    Ok(ExecutionOutcome {
        relation,
        exec_ms,
        ddl_count,
        pulled,
    })
}

/// Emit the execution-phase spans: one Task span per contiguous run of
/// same-task DDL steps, one Ddl span per round-trip, one Exec span per
/// materialization and for the final pipelined query (with per-operator and
/// remote-producer children when operator tracing is on), plus per-node
/// counters. All `start_ms` values are relative to the exec phase origin
/// (`trace.base_ms`).
#[allow(clippy::too_many_arguments)]
fn emit_exec_spans(
    trace: &TraceCtx<'_>,
    plan: &DelegationPlan,
    script: &DelegationScript,
    step_reports: &[ExecReport],
    final_report: &ExecReport,
    ddl_ms: f64,
    mat_base: &HashMap<(usize, usize), f64>,
    mat_finish: &HashMap<(usize, usize), f64>,
    root_ready: f64,
) {
    let mut task_span: Option<(usize, SpanId)> = None;
    for (k, (step, report)) in script.steps.iter().zip(step_reports).enumerate() {
        let start = k as f64 * params::DDL_ROUNDTRIP_MS;
        let tspan = match task_span {
            Some((t, id)) if t == step.task => id,
            _ => {
                let len = script.steps[k..]
                    .iter()
                    .take_while(|s| s.task == step.task)
                    .count();
                let dbms = &plan.task(step.task).dbms;
                let id = trace.span(
                    SpanKind::Task,
                    format!("task {}", step.task),
                    dbms.as_str(),
                    start,
                    len as f64 * params::DDL_ROUNDTRIP_MS,
                );
                trace.collector.attr(id, "dbms", dbms.as_str());
                task_span = Some((step.task, id));
                id
            }
        };
        let label = match step.kind {
            DdlKind::View => "create view",
            DdlKind::ForeignTable => "create foreign table",
            DdlKind::Materialize => "create table as",
        };
        let ddl = trace.span_under(
            tspan,
            SpanKind::Ddl,
            label,
            step.node.as_str(),
            start,
            params::DDL_ROUNDTRIP_MS,
        );
        trace.collector.attr(ddl, "sql", &step.sql);
        trace.add(
            &format!("node.{}.work_ms", step.node.as_str()),
            report.work_ms,
        );
        if step.kind == DdlKind::Materialize {
            let from = step.edge_from.expect("materialize step has an edge");
            let key = (from, step.task);
            let start_ms = ddl_ms + mat_base[&key];
            let dur = mat_finish[&key] - mat_base[&key];
            let mat = trace.span_under(
                tspan,
                SpanKind::Exec,
                format!("materialize t{} -> t{}", from, step.task),
                step.node.as_str(),
                start_ms,
                dur,
            );
            trace.collector.attr(mat, "rows", report.rows.to_string());
            // Critical-path inputs: the pure-compute tail of this span
            // (`work_ms`) and the producer node feeding it (`from`) — the
            // profiler splits the span at `end - work_ms` into a transfer
            // head and a compute tail.
            trace
                .collector
                .attr(mat, "work_ms", format!("{}", report.work_ms));
            trace
                .collector
                .attr(mat, "from", plan.task(from).dbms.as_str());
            if let Some(profile) = &report.profile {
                emit_profile_spans(trace, mat, profile, start_ms, dur);
            }
        }
    }
    // The final pipelined query on the root node.
    let qstart = ddl_ms + root_ready;
    let q = trace.span(
        SpanKind::Exec,
        "xdb query",
        script.root_node.as_str(),
        qstart,
        final_report.finish_ms,
    );
    trace.collector.attr(q, "sql", &script.xdb_query);
    trace
        .collector
        .attr(q, "rows", final_report.rows.to_string());
    trace
        .collector
        .attr(q, "work_ms", format!("{}", final_report.work_ms));
    let root = script.root_node.as_str();
    trace.add(&format!("node.{root}.work_ms"), final_report.work_ms);
    if let Some(profile) = &final_report.profile {
        emit_profile_spans(trace, q, profile, qstart, final_report.finish_ms);
    }
}

/// Recursively emit the per-operator and remote-producer spans of one
/// engine-side execution profile as children of `parent`.
///
/// Remote producers feed the consumer's pipeline, so their spans share the
/// parent's start and are clamped into its extent. Operator spans subdivide
/// the parent's interval proportionally by rows touched — an EXPLAIN
/// ANALYZE-style visual breakdown, not an independent timing source.
fn emit_profile_spans(
    trace: &TraceCtx<'_>,
    parent: SpanId,
    profile: &ExecProfile,
    start_ms: f64,
    dur_ms: f64,
) {
    for (remote, wire_ms) in &profile.remotes {
        let d = remote.finish_ms.min(dur_ms);
        let id = trace.span_under(
            parent,
            SpanKind::Exec,
            format!("pipeline from {}", remote.node),
            remote.node.as_str(),
            start_ms,
            d,
        );
        trace.collector.attr(id, "wire_ms", format!("{wire_ms}"));
        emit_profile_spans(trace, id, remote, start_ms, d);
    }
    let total: f64 = profile
        .ops
        .iter()
        .map(|o| (o.rows_in + o.rows_out + 1) as f64)
        .sum();
    let mut cursor = start_ms;
    for op in &profile.ops {
        let w = (op.rows_in + op.rows_out + 1) as f64;
        let d = if total > 0.0 {
            dur_ms * (w / total)
        } else {
            0.0
        };
        let id = trace.span_under(
            parent,
            SpanKind::Operator,
            op.op,
            profile.node.as_str(),
            cursor,
            d,
        );
        trace.collector.attr(id, "rows_in", op.rows_in.to_string());
        trace
            .collector
            .attr(id, "rows_out", op.rows_out.to_string());
        if op.build_rows > 0 || op.probe_rows > 0 {
            trace
                .collector
                .attr(id, "build_rows", op.build_rows.to_string());
            trace
                .collector
                .attr(id, "probe_rows", op.probe_rows.to_string());
        }
        cursor += d;
    }
}

/// Ready-time of a task: the instant all of its explicit upstream
/// materializations have finished (implicit edges chain through their
/// producers).
fn ready(
    plan: &DelegationPlan,
    task: usize,
    mat_finish: &HashMap<(usize, usize), f64>,
    memo: &mut HashMap<usize, f64>,
) -> f64 {
    if let Some(v) = memo.get(&task) {
        return *v;
    }
    let mut t = 0.0f64;
    for e in plan.in_edges(task) {
        let upstream = match e.movement {
            Movement::Explicit => *mat_finish.get(&(e.from, e.to)).unwrap_or(&0.0),
            Movement::Implicit => ready(plan, e.from, mat_finish, memo),
        };
        t = t.max(upstream);
    }
    memo.insert(task, t);
    t
}

/// What [`deploy_script`] leaves behind.
pub(crate) struct Deployed {
    /// Execution report of every step, in script order.
    pub(crate) step_reports: Vec<ExecReport>,
    /// What every step moved, in script order: the pulls of a
    /// materialization (views and foreign tables move nothing).
    pub(crate) step_transfers: Vec<Vec<Transfer>>,
}

/// Execute every step of a delegation script, in script order, on the
/// calling thread: the client "sends the DDL statements" (Section III) and
/// a DBMS runs one delegated statement after the other. Each step's report
/// and transfers are kept. The first failing step stops the script, so
/// exactly the statements before it ran, and its error names the step
/// ([`EngineError::Statement`]). Every step runs under `opts` (the client
/// fills them from its `XdbOptions`).
pub(crate) fn deploy_script(
    cluster: &Cluster,
    script: &DelegationScript,
    opts: StatementOptions,
) -> Result<Deployed> {
    let mut step_reports = Vec::with_capacity(script.steps.len());
    let mut step_transfers = Vec::with_capacity(script.steps.len());
    for (k, step) in script.steps.iter().enumerate() {
        let outcome = cluster
            .execute_with(step.node.as_str(), &step.sql, opts)
            .map_err(|e| script.failed(k, &step.node, e))?;
        step_reports.push(outcome.report);
        step_transfers.push(outcome.transfers);
    }
    Ok(Deployed {
        step_reports,
        step_transfers,
    })
}

/// Deploy and execute a delegation script at the default chunk size, its
/// spans under `trace`: [`deploy_script`], then [`finish_script`] runs the
/// XDB query and replays the simulated timeline.
pub fn run_script_parallel(
    cluster: &Cluster,
    plan: &DelegationPlan,
    script: &DelegationScript,
    trace: &TraceCtx<'_>,
) -> Result<ExecutionOutcome> {
    let opts = StatementOptions::default();
    let deployed = deploy_script(cluster, script, opts)?;
    finish_script(cluster, plan, script, &deployed.step_reports, trace, opts)
}

/// Drop every short-lived object of `script` through the one teardown,
/// [`Cluster::teardown`], in reverse creation order, and return the drops
/// that failed. Every drop is `IF EXISTS`, so a script that stopped part
/// way is undone by the same call, and a second call drops nothing twice.
pub fn run_cleanup(cluster: &Cluster, script: &DelegationScript) -> Vec<DropFailure> {
    let drops = script.cleanup.iter().map(|(n, sql)| (n.as_str(), sql));
    let failed = cluster.teardown(drops);
    let dropped = script.cleanup.len() - failed.len();
    let telemetry = cluster.telemetry();
    telemetry
        .metrics
        .counter_add("ddl.objects_dropped", &[], dropped as f64);
    let n = dropped.to_string();
    telemetry.events.log(
        xdb_obs::Level::Info,
        "core.delegation",
        Some(script.query_id),
        0.0,
        "cleanup dropped short-lived objects",
        &[("dropped", &n)],
    );
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{AnnotateOptions, Annotator};
    use crate::global::GlobalCatalog;
    use crate::scenario;
    use xdb_engine::FaultSite;
    use xdb_net::Purpose;
    use xdb_obs::TraceCollector;
    use xdb_sql::bind::bind_select;
    use xdb_sql::optimize::{optimize, OptimizeOptions};
    use xdb_sql::parse_select;
    use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

    /// [`run_script_parallel`] under a collector of its own.
    fn run_traced(
        cluster: &Cluster,
        plan: &DelegationPlan,
        script: &DelegationScript,
    ) -> Result<ExecutionOutcome> {
        let collector = TraceCollector::new();
        run_script_parallel(cluster, plan, script, &TraceCtx::new(&collector, 0.0, None))
    }

    fn delegate(
        sql: &str,
        options: AnnotateOptions,
    ) -> (Cluster, GlobalCatalog, DelegationPlan, DelegationScript) {
        let (cluster, catalog) = scenario::build(scenario::ScenarioConfig::default()).unwrap();
        let plan = bind_select(&parse_select(sql).unwrap(), &catalog).unwrap();
        let plan = optimize(plan, &catalog, OptimizeOptions::default());
        let ann = Annotator::new(&catalog, &cluster, options)
            .run(&plan)
            .unwrap();
        let script = build_script(&ann.plan, 1, &cluster).unwrap();
        (cluster, catalog, ann.plan, script)
    }

    /// Single-engine oracle: run the query against one engine holding all
    /// tables.
    fn oracle(sql: &str) -> Relation {
        let c = Cluster::lan(&["solo"], xdb_engine::EngineProfile::postgres());
        // Rebuild all scenario tables on one node.
        let (src, _) = scenario::build(scenario::ScenarioConfig::default()).unwrap();
        for node in ["cdb", "vdb", "hdb"] {
            let engine = src.engine(node).unwrap();
            for name in engine.with_catalog(|cat| cat.names()) {
                let rel = engine.with_catalog(|cat| match cat.get(&name) {
                    Some(xdb_engine::catalog::CatalogEntry::Table(t)) => Some(t.to_relation()),
                    _ => None,
                });
                if let Some(rel) = rel {
                    c.engine("solo").unwrap().load_table(&name, rel).unwrap();
                }
            }
        }
        c.query("solo", sql).unwrap().0
    }

    fn assert_nothing_deployed(cluster: &Cluster) {
        for node in cluster.node_names() {
            let names = cluster.engine(&node).unwrap().with_catalog(|c| c.names());
            assert!(
                names.iter().all(|n| !n.starts_with("xdb_q")),
                "{node} kept {names:?}"
            );
        }
    }

    fn tpch_federation(td: TableDist) -> (Cluster, GlobalCatalog) {
        let cluster = build_cluster(
            td,
            0.001,
            xdb_net::Scenario::OnPremise,
            &ProfileAssignment::uniform(xdb_engine::EngineProfile::postgres()),
        )
        .unwrap();
        let catalog = GlobalCatalog::discover(&cluster).unwrap();
        (cluster, catalog)
    }

    fn tpch_script(
        cluster: &Cluster,
        catalog: &GlobalCatalog,
        q: TpchQuery,
        forced: Option<Movement>,
    ) -> (DelegationPlan, DelegationScript) {
        let plan = bind_select(&parse_select(q.sql()).unwrap(), catalog).unwrap();
        let plan = optimize(plan, catalog, OptimizeOptions::default());
        let options = AnnotateOptions {
            force_movement: forced,
            ..Default::default()
        };
        let ann = Annotator::new(catalog, cluster, options)
            .run(&plan)
            .unwrap();
        let script = build_script(&ann.plan, 7, cluster).unwrap();
        (ann.plan, script)
    }

    #[test]
    fn script_has_views_foreign_tables_and_query() {
        let (_, _, plan, script) = delegate(scenario::EXAMPLE_QUERY, Default::default());
        let views = script
            .steps
            .iter()
            .filter(|s| s.kind == DdlKind::View)
            .count();
        let fts = script
            .steps
            .iter()
            .filter(|s| s.kind == DdlKind::ForeignTable)
            .count();
        assert_eq!(views, plan.tasks.len());
        assert_eq!(fts, plan.edges.len());
        assert!(script.xdb_query.starts_with("SELECT * FROM xdb_q1_t"));
        // Cleanup drops every created object.
        assert_eq!(script.cleanup.len(), script.steps.len());
    }

    #[test]
    fn decentralized_execution_matches_single_engine() {
        let (cluster, _, plan, script) = delegate(scenario::EXAMPLE_QUERY, Default::default());
        let outcome = run_traced(&cluster, &plan, &script).unwrap();
        let expected = oracle(scenario::EXAMPLE_QUERY);
        assert!(
            outcome.relation.same_bag(&expected),
            "decentralized result diverged:\n{}\nvs oracle\n{}",
            outcome.relation.to_table_string(10),
            expected.to_table_string(10)
        );
        assert!(outcome.exec_ms > 0.0);
        run_cleanup(&cluster, &script);
    }

    #[test]
    fn forced_explicit_also_matches_oracle() {
        let (cluster, _, plan, script) = delegate(
            scenario::EXAMPLE_QUERY,
            AnnotateOptions {
                force_movement: Some(Movement::Explicit),
                ..Default::default()
            },
        );
        assert!(script.steps.iter().any(|s| s.kind == DdlKind::Materialize));
        let outcome = run_traced(&cluster, &plan, &script).unwrap();
        let expected = oracle(scenario::EXAMPLE_QUERY);
        assert!(outcome.relation.same_bag(&expected));
        // Materialization traffic got recorded as such.
        assert!(cluster.ledger.bytes_for(Purpose::Materialization) > 0);
    }

    /// What `deploy_script` reports is what it did, and the task runs tile
    /// the script: the steps' transfers are the records the deployment
    /// appended to the ledger, in script order, every task's steps are one
    /// run, and they hold what its own materializations pulled.
    #[test]
    fn deployed_ranges_tile_the_script_and_the_ledger() {
        for td in [TableDist::Td1, TableDist::Td2, TableDist::Td3] {
            let (cluster, catalog) = tpch_federation(td);
            for q in TpchQuery::ALL {
                for forced in [None, Some(Movement::Explicit)] {
                    let what = format!("{} on {td:?}, forced {forced:?}", q.name());
                    let (plan, script) = tpch_script(&cluster, &catalog, q, forced);
                    let mark = cluster.ledger.len();
                    let deployed =
                        deploy_script(&cluster, &script, StatementOptions::default()).unwrap();
                    assert_eq!(deployed.step_reports.len(), script.steps.len(), "{what}");
                    assert_eq!(deployed.step_transfers.len(), script.steps.len(), "{what}");
                    let debug = |t: &Transfer| format!("{t:?}");
                    let owned = deployed.step_transfers.iter().flatten().map(debug);
                    let ledger = cluster.ledger.snapshot();
                    assert!(owned.eq(ledger[mark..].iter().map(debug)), "{what}");
                    let (mut step, mut runs) = (0, 0);
                    for (task, range) in script.task_runs() {
                        assert_eq!(range.start, step, "{what}");
                        assert!(!range.is_empty(), "{what}");
                        let steps = &script.steps[range.clone()];
                        assert!(steps.iter().all(|s| s.task == task), "{what}");
                        let node = &plan.task(task).dbms;
                        let pulls = steps
                            .iter()
                            .filter(|s| s.kind == DdlKind::Materialize)
                            .count();
                        // Each materialization ends in one record into the
                        // task's node; what precedes it are the pipeline
                        // pulls of the producer's own implicit inputs.
                        // Views and foreign tables move nothing.
                        let transfers = &deployed.step_transfers[range.clone()];
                        for (s, moved) in steps.iter().zip(transfers) {
                            let pulls = s.kind == DdlKind::Materialize;
                            assert!(pulls || moved.is_empty(), "{what}: {moved:?}");
                        }
                        let moved: Vec<&Transfer> = transfers.iter().flatten().collect();
                        let (mats, fed): (Vec<&Transfer>, Vec<&Transfer>) = moved
                            .iter()
                            .copied()
                            .partition(|t| t.purpose == Purpose::Materialization);
                        assert_eq!(mats.len(), pulls, "{what}: t{task}");
                        assert!(mats.iter().all(|t| &t.to == node), "{what}: {mats:?}");
                        assert!(
                            fed.iter().all(|t| t.purpose == Purpose::InterDbmsPipeline),
                            "{what}: {fed:?}"
                        );
                        assert!(
                            moved.last().map_or(pulls == 0, |t| &t.to == node),
                            "{what}: {moved:?}"
                        );
                        (step, runs) = (range.end, runs + 1);
                    }
                    assert_eq!(step, script.steps.len(), "{what}");
                    assert_eq!(runs, plan.tasks.len(), "{what}");
                    run_cleanup(&cluster, &script);
                    assert_nothing_deployed(&cluster);
                }
            }
        }
    }

    /// A failing `CREATE TABLE AS`, the last one of the script: the error
    /// names the step, the script stops there (the ledger keeps the pulls
    /// of the materializations before it and nothing after it was created),
    /// and cleanup leaves nothing deployed.
    #[test]
    fn a_failing_materialization_stops_the_script() {
        let (cluster, catalog) = tpch_federation(TableDist::Td2);
        let (plan, script) =
            tpch_script(&cluster, &catalog, TpchQuery::Q5, Some(Movement::Explicit));
        let materializations: Vec<usize> = (0..script.steps.len())
            .filter(|&k| script.steps[k].kind == DdlKind::Materialize)
            .collect();
        assert!(
            materializations.len() >= 2,
            "needs a prefix that moved data"
        );
        let records = |mark: usize| -> Vec<String> {
            let since = &cluster.ledger.snapshot()[mark..];
            since.iter().map(|t| format!("{t:?}")).collect()
        };
        let mark = cluster.ledger.len();
        deploy_script(&cluster, &script, StatementOptions::default()).unwrap();
        let intact = records(mark);
        run_cleanup(&cluster, &script);

        let broken = *materializations.last().unwrap();
        let node = &script.steps[broken].node;
        let nth = script.steps[..broken]
            .iter()
            .filter(|s| &s.node == node)
            .count();
        cluster.fail_once(node.as_str(), nth, FaultSite::Statement);
        let mark = cluster.ledger.len();
        let err = run_traced(&cluster, &plan, &script).unwrap_err();
        let EngineError::Statement(failed) = err else {
            panic!("{err}");
        };
        let at = (failed.query_id, failed.node.as_str(), failed.index);
        assert_eq!(at, (7, node.as_str(), broken));
        assert!(matches!(failed.cause, EngineError::Execution(_)));
        assert_eq!(failed.cleanup, []);
        let moved = records(mark);
        assert_eq!(moved.len(), materializations.len() - 1);
        assert_eq!(moved, intact[..moved.len()]);
        // The step after the broken one is its task's view.
        let view = view_name(7, script.steps[broken].task);
        let names = cluster
            .engine(node.as_str())
            .unwrap()
            .with_catalog(|c| c.names());
        assert!(!names.contains(&view), "{node} has {view}");
        run_cleanup(&cluster, &script);
        assert_nothing_deployed(&cluster);
    }

    /// Cleanup drops every object, reports a drop that failed (and leaves
    /// that object for the next call), and drops nothing twice.
    #[test]
    fn cleanup_removes_all_objects() {
        let (cluster, _, plan, script) = delegate(scenario::EXAMPLE_QUERY, Default::default());
        run_traced(&cluster, &plan, &script).unwrap();
        let (node, sql) = &script.cleanup[0];
        cluster.fail_once(node.as_str(), 0, FaultSite::Statement);
        let failed = run_cleanup(&cluster, &script);
        let [DropFailure {
            node: on,
            sql: drop,
            error: EngineError::Execution(_),
        }] = &failed[..]
        else {
            panic!("{failed:?}");
        };
        assert_eq!((on.as_str(), drop), (node.as_str(), sql));
        assert_eq!(run_cleanup(&cluster, &script), []);
        assert_nothing_deployed(&cluster);
        // Re-running the XDB query must now fail: objects are gone.
        assert!(cluster
            .query(script.root_node.as_str(), &script.xdb_query)
            .is_err());
        // Idempotent: a second cleanup still succeeds (IF EXISTS).
        assert_eq!(run_cleanup(&cluster, &script), []);
    }

    #[test]
    fn ddl_statements_parse_in_target_dialects() {
        let (_, _, _, script) = delegate(scenario::EXAMPLE_QUERY, Default::default());
        for step in &script.steps {
            xdb_sql::parse_statement(&step.sql)
                .unwrap_or_else(|e| panic!("unparsable DDL {:?}: {e}", step.sql));
        }
    }

    #[test]
    fn colocated_query_needs_no_foreign_tables() {
        let (cluster, _, plan, script) = delegate(
            "SELECT v.vtype, count(*) AS n FROM vaccines v, vaccination vn \
             WHERE v.id = vn.v_id GROUP BY v.vtype",
            Default::default(),
        );
        assert_eq!(plan.tasks.len(), 1);
        assert!(script.steps.iter().all(|s| s.kind == DdlKind::View));
        let outcome = run_traced(&cluster, &plan, &script).unwrap();
        assert!(!outcome.relation.is_empty());
        // Nothing crossed the network except nothing: it all ran on vdb.
        assert_eq!(cluster.ledger.total_bytes(), 0);
    }
}
