//! Multi-tenant session/admission layer with concurrent-plan folding.
//!
//! [`Xdb::submit`] serves one client at a time; the north star is hundreds
//! of concurrent analytical sessions over the same federation. Following
//! GraftDB's observation that concurrent queries share large sub-plans,
//! the [`QueryServer`] admits submissions from simulated tenants in
//! *scheduling windows* and **folds** in-flight queries that share
//! sub-DAGs into a single delegation deployment:
//!
//! 1. every task sub-tree of a freshly planned submission is
//!    canonicalized ([`crate::annotate::fragment_keys`] — the same
//!    dialect-neutral rendering the consultation cache keys its probes
//!    by) and cached with the plan;
//! 2. queries admitted in the same window whose root fragment matches an
//!    already-executed one are answered straight from the window's result
//!    cache and only pay their own final-result transfer (*full fold*);
//! 3. queries sharing a strict sub-DAG prefix skip the DDLs of the shared
//!    fragments — their foreign tables point at the live shared views
//!    (*partial fold*) — and only deploy + execute what is new;
//! 4. shared fragments are deployed exactly once, live until their window
//!    closes and are dropped there in reverse creation order, so every
//!    engine's `ddl.objects_live` gauge returns to its pre-window
//!    baseline.
//!
//! **Determinism contract.** Admission is serial: [`QueryServer::run`]
//! processes the queue strictly in submission order on the calling thread,
//! so two runs of the same list produce bit-identical results, ledgers,
//! traces and deterministic metric snapshots — at any stream chunk size.
//! Folding itself changes the *physical* ledger by design (a shared edge
//! is charged once); each tenant's observable outcome — its result
//! relation, its as-if-alone [`PhaseBreakdown`], and its *attributed*
//! ledger view (shared records attributed to every waiter) — is
//! bit-identical to running the same query unfolded, modulo the decimal
//! width of query ids in control-message byte counts: a waiter is
//! attributed the DDL of fragments deployed under another query's id.
//!
//! **Tenant awareness.** Every outcome carries the tenant and a fresh
//! query id; traces get a `tenant` attribute on the query span (and a
//! fold span on fan-outs); telemetry counters (`session.submissions`,
//! `session.fold_hits`) are labeled per tenant, and events carry the query
//! id as correlation id.

use crate::annotate::fragment_keys;
use crate::client::{
    Executed, PhaseBreakdown, PlanTrace, SoloTimeline, Xdb, XdbOptions, PREP_PARSE_MS,
};
use crate::delegation::{build_script, build_script_with_reuse, view_name};
use crate::global::GlobalCatalog;
use crate::plan::DelegationPlan;
use std::collections::HashMap;
use std::sync::Arc;
use xdb_engine::cluster::Cluster;
use xdb_engine::engine::ExecReport;
use xdb_engine::error::Result;
use xdb_engine::relation::Relation;
use xdb_net::{NodeId, Transfer};
use xdb_obs::{QueryTrace, SpanKind, TraceCollector};

/// One tenant query handed to the admission queue.
#[derive(Debug, Clone)]
pub struct Submission {
    pub tenant: String,
    pub sql: String,
}

impl Submission {
    pub fn new(tenant: impl Into<String>, sql: impl Into<String>) -> Submission {
        Submission {
            tenant: tenant.into(),
            sql: sql.into(),
        }
    }
}

/// Admission/folding configuration.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Per-query middleware options (executor, chunking, tracing).
    pub xdb: XdbOptions,
    /// Fold queries sharing sub-DAGs within a scheduling window. Off
    /// reproduces strictly serial `Xdb::submit` admission.
    pub fold: bool,
    /// Submissions per scheduling window; 0 admits everything into one
    /// window. Fragments and cached results never outlive their window.
    pub window: usize,
}

impl Default for SessionOptions {
    fn default() -> SessionOptions {
        SessionOptions {
            xdb: XdbOptions::default(),
            fold: true,
            window: 0,
        }
    }
}

/// Per-tenant outcome of one admitted query.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    pub tenant: String,
    /// Position in the admission queue (client-assigned submission index).
    pub index: usize,
    /// Correlation id (fresh even for fan-out waiters).
    pub query_id: u64,
    pub relation: Relation,
    /// As-if-alone phase breakdown: what this tenant would observe running
    /// the same query by itself against warm caches.
    pub breakdown: PhaseBreakdown,
    pub trace: QueryTrace,
    /// Whole plan answered from the window result cache.
    pub full_fold: bool,
    /// Number of this plan's tasks served by shared fragments.
    pub fold_hits: u64,
    /// Simulated admission instant (window open).
    pub admitted_ms: f64,
    /// Simulated completion instant on the session clock.
    pub completed_ms: f64,
    /// Queueing-inclusive latency (`completed - admitted`) — the number
    /// the p50/p95/p99 gates are computed over.
    pub latency_ms: f64,
    /// This tenant's attributed ledger view: every transfer its query
    /// depends on, shared fragment records included (charged once
    /// physically, attributed to each waiter).
    pub attributed: Vec<Transfer>,
}

/// Aggregate outcome of one [`QueryServer::run`].
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    pub outcomes: Vec<TenantOutcome>,
    /// Simulated makespan of the whole run.
    pub makespan_ms: f64,
    pub windows: u64,
    /// Tasks served by shared fragments, summed over all queries.
    pub fold_hits: u64,
    /// Queries answered entirely from the window result cache.
    pub full_folds: u64,
    /// Fragments deployed (deduplicated — each shared fragment once).
    pub fragments_deployed: u64,
    pub plan_cache_hits: u64,
    /// Consultation probes actually issued (metadata + EXPLAIN) during
    /// planning across the run.
    pub consult_probes: u64,
    /// DDL statements actually shipped to engines across the run.
    pub ddl_statements: u64,
}

impl SessionReport {
    /// Aggregate throughput over the simulated makespan.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan_ms <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.makespan_ms * 1000.0
    }

    /// Queueing-inclusive latency quantile (nearest-rank on the sorted
    /// per-tenant latencies).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let mut v: Vec<f64> = self.outcomes.iter().map(|o| o.latency_ms).collect();
        v.sort_by(f64::total_cmp);
        let idx = ((v.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        v[idx]
    }

    /// Mean fold hits per admitted query.
    pub fn mean_fold_hits(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.fold_hits as f64 / self.outcomes.len() as f64
    }
}

/// One live shared fragment of the current scheduling window.
struct Fragment {
    /// Name of the deployed view on the owning engine.
    view: String,
    /// Control-message records of this fragment's DDLs (attributed to
    /// every waiter, charged once physically).
    control: Vec<Transfer>,
    /// Data transfers recorded while deploying this fragment (explicit
    /// materializations pulling upstream pipelines).
    data: Vec<Transfer>,
    /// Execution reports of this fragment's DDL steps, in script order.
    /// Waiters splice them into their own solo timeline replay so a
    /// partially folded query still reports its exact as-if-alone
    /// breakdown and trace.
    reports: Vec<ExecReport>,
}

/// Window result cache entry, keyed by the root fragment key.
struct CachedResult {
    relation: Relation,
    /// As-if-alone execution time of the shared plan.
    exec_ms: f64,
    root_node: NodeId,
    /// The owner's fully-assembled attributed ledger view (control, then
    /// data including the final pipelined query) — every fan-out waiter
    /// inherits it and appends only its own final-result transfer.
    attributed_control: Vec<Transfer>,
    attributed_data: Vec<Transfer>,
}

/// Window plan cache entry, keyed by the submitted SQL text. A hit shares
/// the plan and its fragment keys instead of copying them.
struct CachedPlan {
    delegation: Arc<DelegationPlan>,
    fragment_keys: Arc<HashMap<usize, String>>,
    lopt_ms: f64,
    /// Probe counts of the cold plan; a warm replan answers all of them
    /// from the consultation cache (transient `xdb_q*` objects never bump
    /// a node's DDL generation), which is what the synthesized breakdown
    /// of a plan-cache hit reproduces bit-exactly.
    prep_probes: u64,
    ann_probes: u64,
}

/// Per-window folding state.
#[derive(Default)]
struct WindowState {
    fragments: HashMap<String, Fragment>,
    results: HashMap<String, CachedResult>,
    plan_cache: HashMap<String, CachedPlan>,
    /// Per-query cleanup scripts, executed in reverse query order at
    /// window close (consumers drop before the shared views they read).
    cleanup: Vec<Vec<(NodeId, String)>>,
}

/// What admitting one query yields; the window turns it into the
/// [`TenantOutcome`] once the session clock has advanced.
struct Admitted {
    query_id: u64,
    relation: Relation,
    breakdown: PhaseBreakdown,
    trace: QueryTrace,
    /// `"none"`, `"partial"` or `"full"`.
    fold: &'static str,
    fold_hits: u64,
    attributed: Vec<Transfer>,
}

/// The multi-tenant query server: an admission queue over one [`Xdb`]
/// middleware instance.
pub struct QueryServer<'a> {
    xdb: Xdb<'a>,
    options: SessionOptions,
}

impl<'a> QueryServer<'a> {
    pub fn new(
        cluster: &'a Cluster,
        catalog: &'a GlobalCatalog,
        options: SessionOptions,
    ) -> QueryServer<'a> {
        let mut xdb_options = options.xdb.clone();
        // The gated `tenants/*` series were recorded with frozen profiles:
        // tenant plans price through what the catalog has learned but do
        // not feed it.
        xdb_options.freeze_profiles = true;
        let xdb = Xdb::new(cluster, catalog).with_options(xdb_options);
        QueryServer { xdb, options }
    }

    /// Account the server (and its tenants) as sitting on `node`.
    pub fn with_client_node(mut self, node: impl Into<String>) -> Self {
        self.xdb = self.xdb.with_client_node(node);
        self
    }

    /// Admit and run a list of submissions, strictly in list order.
    pub fn run(&self, submissions: &[Submission]) -> Result<SessionReport> {
        let mut report = SessionReport::default();
        let mut clock = 0.0f64;
        let window = if self.options.window == 0 {
            submissions.len().max(1)
        } else {
            self.options.window
        };
        let mut base = 0usize;
        for chunk in submissions.chunks(window) {
            self.run_window(chunk, base, &mut clock, &mut report)?;
            base += chunk.len();
            report.windows += 1;
        }
        report.makespan_ms = clock;
        let telemetry = self.xdb.cluster().telemetry();
        telemetry
            .metrics
            .counter_add("session.windows", &[], report.windows as f64);
        Ok(report)
    }

    /// Process one scheduling window. On error the window's shared
    /// fragments are torn down before the error propagates.
    fn run_window(
        &self,
        subs: &[Submission],
        base_index: usize,
        clock: &mut f64,
        report: &mut SessionReport,
    ) -> Result<()> {
        let cluster = self.xdb.cluster();
        let telemetry = cluster.telemetry().clone();
        let window_open = *clock;
        let mut w = WindowState::default();
        let mut failure = None;
        for (k, sub) in subs.iter().enumerate() {
            telemetry
                .metrics
                .counter_add("session.submissions", &[("tenant", &sub.tenant)], 1.0);
            let admitted = if self.options.fold {
                self.admit_folded(sub, clock, &mut w, report)
            } else {
                self.admit_unfolded(sub, clock, report)
            };
            let a = match admitted {
                Ok(a) => a,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            // Per-query completion telemetry: a tenant-correlated event
            // plus the fleet latency histogram.
            let latency_ms = *clock - window_open;
            telemetry
                .metrics
                .observe("session.latency_ms", &[], latency_ms);
            let lat = format!("{latency_ms:.3}");
            telemetry.events.log(
                xdb_obs::Level::Info,
                "core.session",
                Some(a.query_id),
                latency_ms,
                "session query completed",
                &[
                    ("tenant", &sub.tenant),
                    ("fold", a.fold),
                    ("latency_ms", &lat),
                ],
            );
            report.outcomes.push(TenantOutcome {
                tenant: sub.tenant.clone(),
                index: base_index + k,
                query_id: a.query_id,
                relation: a.relation,
                breakdown: a.breakdown,
                trace: a.trace,
                full_fold: a.fold == "full",
                fold_hits: a.fold_hits,
                admitted_ms: window_open,
                completed_ms: *clock,
                latency_ms,
                attributed: a.attributed,
            });
        }
        // Window close: admission is serial, so nothing reads a fragment
        // any more; drop shared objects in reverse creation order
        // (mirroring run_cleanup's reverse-dependency discipline across
        // queries).
        let drops = w.cleanup.iter().rev().flatten();
        let attempted = drops.clone().count();
        let failed = cluster.teardown(drops.map(|(node, sql)| (node.as_str(), sql)));
        let dropped = attempted - failed.len();
        if dropped > 0 {
            telemetry
                .metrics
                .counter_add("ddl.objects_dropped", &[], dropped as f64);
        }
        let dropped_s = dropped.to_string();
        let fragments_s = w.fragments.len().to_string();
        telemetry.events.log(
            xdb_obs::Level::Info,
            "core.session",
            None,
            *clock,
            "scheduling window closed",
            &[("dropped", &dropped_s), ("fragments", &fragments_s)],
        );
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Unfolded admission: strictly serial [`Xdb::submit`] per tenant.
    fn admit_unfolded(
        &self,
        sub: &Submission,
        clock: &mut f64,
        report: &mut SessionReport,
    ) -> Result<Admitted> {
        let outcome = self.xdb.submit(&sub.sql)?;
        report.consult_probes +=
            outcome.breakdown.consult_cache_hits + outcome.breakdown.consult_cache_misses;
        report.ddl_statements += outcome.ddl_count as u64;
        *clock += outcome.breakdown.total_ms();
        Ok(Admitted {
            query_id: outcome.query_id,
            relation: outcome.relation,
            breakdown: outcome.breakdown,
            trace: outcome.trace,
            fold: "none",
            fold_hits: 0,
            attributed: outcome.transfers,
        })
    }

    /// Folded admission of one query against the window state.
    fn admit_folded(
        &self,
        sub: &Submission,
        clock: &mut f64,
        w: &mut WindowState,
        report: &mut SessionReport,
    ) -> Result<Admitted> {
        let cluster = self.xdb.cluster();
        let telemetry = cluster.telemetry().clone();

        // ---- Plan, through the window plan cache. A repeated SQL text
        // skips the whole optimization pipeline (its consultation probes
        // would all hit anyway — transient objects never bump a node's
        // DDL generation); the synthesized planning trace reproduces the
        // warm-replan breakdown bit-exactly.
        let (delegation, fkeys, trace, query_id);
        // The full script of a plan made here was rendered by planning; a
        // cached plan runs under a fresh query id and renders below.
        let mut planned_script = None;
        if let Some(cp) = w.plan_cache.get(&sub.sql) {
            delegation = Arc::clone(&cp.delegation);
            fkeys = Arc::clone(&cp.fragment_keys);
            query_id = cluster.next_query_id();
            trace = synthetic_planning_trace(&sub.sql, cp.prep_probes, cp.ann_probes, cp.lopt_ms);
            report.plan_cache_hits += 1;
            telemetry
                .metrics
                .counter_add("session.plan_cache_hits", &[], 1.0);
        } else {
            let planned = self.xdb.plan_internal(&sub.sql)?;
            report.consult_probes += planned.prep_probes + planned.ann_probes;
            fkeys = Arc::new(fragment_keys(&planned.delegation));
            delegation = Arc::new(planned.delegation);
            w.plan_cache.insert(
                sub.sql.clone(),
                CachedPlan {
                    delegation: Arc::clone(&delegation),
                    fragment_keys: Arc::clone(&fkeys),
                    lopt_ms: planned.lopt_ms,
                    prep_probes: planned.prep_probes,
                    ann_probes: planned.ann_probes,
                },
            );
            planned_script = Some(planned.script);
            trace = planned.trace;
            query_id = planned.query_id;
        }
        let (collector, query_span, overhead_ms) =
            (&trace.collector, trace.query_span, trace.overhead_ms);
        *clock += overhead_ms;
        collector.attr(query_span, "tenant", &sub.tenant);
        let root_key = fkeys[&delegation.root].clone();

        let (fold, fold_hits, relation, exec_ms, exec_span, attributed);
        if let Some(cached) = w.results.get(&root_key) {
            // ---- Full fold: the whole plan is already materialized; fan
            // the cached result out. The only fresh physical traffic is
            // this waiter's own final-result transfer.
            fold = "full";
            fold_hits = delegation.tasks.len() as u64;
            report.full_folds += 1;
            telemetry
                .metrics
                .counter_add("session.full_folds", &[], 1.0);
            let result = self
                .xdb
                .record_final_result(&cached.root_node, &cached.relation);
            exec_ms = cached.exec_ms;
            exec_span = collector.span(
                SpanKind::Phase,
                "exec",
                "client",
                Some(query_span),
                overhead_ms,
                exec_ms,
            );
            let fan_out = collector.span(
                SpanKind::Exec,
                "fold fan-out",
                cached.root_node.as_str(),
                Some(exec_span),
                overhead_ms,
                0.0,
            );
            collector.attr(fan_out, "fragments", fold_hits.to_string());
            let mut view = cached.attributed_control.clone();
            view.extend(cached.attributed_data.iter().cloned());
            view.extend(result);
            attributed = view;
            relation = cached.relation.clone();
        } else {
            // ---- Partial (or no) fold: read from the live shared
            // fragments, deploy and execute only the rest.
            let mut reuse: HashMap<usize, String> = HashMap::new();
            for id in delegation.topo_order() {
                if let Some(f) = w.fragments.get(&fkeys[&id]) {
                    reuse.insert(id, f.view.clone());
                }
            }
            fold_hits = reuse.len() as u64;
            fold = if reuse.is_empty() { "none" } else { "partial" };
            // The full (unpruned) script is what runs when nothing was
            // folded away; otherwise the pruned one runs and the full one
            // is the skeleton of the as-if-alone timeline replay.
            let full = match planned_script {
                Some(s) => s,
                None => build_script(&delegation, query_id, cluster)?,
            };
            let (script, solo_script) = if reuse.is_empty() {
                (full, None)
            } else {
                let pruned = build_script_with_reuse(&delegation, query_id, cluster, &reuse)?;
                (pruned, Some(full))
            };
            report.ddl_statements += script.steps.len() as u64;
            // The owners' step reports stand in for the steps of reused
            // fragments, so a partially folded query reports the exact
            // breakdown and trace it would have had running alone (a task's
            // steps are one contiguous run, of the same length in either
            // script).
            let fragments = &w.fragments;
            let splice = |own: &[ExecReport]| -> Vec<ExecReport> {
                let mut own = own.iter();
                let (mut task, mut seen) = (usize::MAX, 0);
                let solo = solo_script.iter().flat_map(|solo| &solo.steps);
                solo.map(|step| {
                    if step.task != task {
                        (task, seen) = (step.task, 0);
                    }
                    seen += 1;
                    let report = match reuse.contains_key(&task) {
                        true => fragments[&fkeys[&task]].reports.get(seen - 1),
                        false => own.next(),
                    };
                    report.cloned().unwrap_or_default()
                })
                .collect()
            };
            let solo: Option<SoloTimeline<'_>> = match &solo_script {
                Some(solo) => Some((solo, &splice)),
                None => None,
            };
            // On failure the stage has torn down this query's own objects;
            // shared fragments stay for the rest of the window.
            let Executed {
                outcome,
                deployed,
                exec_span: span,
                control,
                result,
            } = self.xdb.run_planned(&trace, &delegation, &script, solo)?;
            // Register the freshly deployed fragments for later waiters:
            // each task's control messages (one per step) and what its
            // steps moved.
            let mut fresh = 0u64;
            for (task, steps) in script.task_runs() {
                let fragment = Fragment {
                    view: view_name(query_id, task),
                    control: control[steps.clone()].to_vec(),
                    data: deployed.step_transfers[steps.clone()].concat(),
                    reports: deployed.step_reports[steps].to_vec(),
                };
                w.fragments.insert(fkeys[&task].clone(), fragment);
                fresh += 1;
            }
            report.fragments_deployed += fresh;
            telemetry
                .metrics
                .counter_add("session.fragments_deployed", &[], fresh as f64);
            // Assemble this tenant's attributed ledger view in its own script
            // order: all control messages (shared fragments' included), then
            // all deployment data, then the final pipelined query's pulls and
            // the final-result transfer.
            let mut attributed_control: Vec<Transfer> = Vec::new();
            let mut attributed_data: Vec<Transfer> = Vec::new();
            for id in delegation.topo_order() {
                let f = &w.fragments[&fkeys[&id]];
                attributed_control.extend(f.control.iter().cloned());
                attributed_data.extend(f.data.iter().cloned());
            }
            attributed_data.extend(outcome.pulled);
            let mut view = attributed_control.clone();
            view.extend(attributed_data.iter().cloned());
            view.extend(result);
            w.results.insert(
                root_key,
                CachedResult {
                    relation: outcome.relation.clone(),
                    exec_ms: outcome.exec_ms,
                    root_node: script.root_node,
                    attributed_control,
                    // Excludes this owner's final-result transfer: every
                    // fan-out waiter records (and is attributed) its own.
                    attributed_data,
                },
            );
            w.cleanup.push(script.cleanup);
            *clock += outcome.exec_ms;
            if fold_hits > 0 {
                let reused = collector.span(
                    SpanKind::Exec,
                    "fold reuse",
                    "client",
                    Some(span),
                    overhead_ms,
                    0.0,
                );
                collector.attr(reused, "fragments", fold_hits.to_string());
            }
            (relation, exec_ms) = (outcome.relation, outcome.exec_ms);
            (exec_span, attributed) = (span, view);
        }
        if fold_hits > 0 {
            report.fold_hits += fold_hits;
            telemetry.metrics.counter_add(
                "session.fold_hits",
                &[("tenant", &sub.tenant)],
                fold_hits as f64,
            );
            collector.attr(query_span, "fold", fold);
        }
        let (trace, breakdown) = self
            .xdb
            .finish_trace(trace, exec_span, exec_ms, fold != "full");
        Ok(Admitted {
            query_id,
            relation,
            breakdown,
            trace,
            fold,
            fold_hits,
            attributed,
        })
    }
}

/// The planning trace a plan-cache hit synthesizes: bit-identical phase
/// durations and cache accounting to a real warm replan of the same query
/// (all probes hit, so `prep` is the parse baseline and `ann` is free).
fn synthetic_planning_trace(
    sql: &str,
    prep_probes: u64,
    ann_probes: u64,
    lopt_ms: f64,
) -> PlanTrace {
    let collector = TraceCollector::new();
    let query_span = collector.span(SpanKind::Query, "query", "client", None, 0.0, 0.0);
    collector.attr(query_span, "sql", sql);
    let prep = collector.span(
        SpanKind::Phase,
        "prep",
        "client",
        Some(query_span),
        0.0,
        PREP_PARSE_MS,
    );
    collector.attr(prep, "plan_cache", "hit");
    collector.span(
        SpanKind::Phase,
        "lopt",
        "client",
        Some(query_span),
        PREP_PARSE_MS,
        lopt_ms,
    );
    collector.span(
        SpanKind::Phase,
        "ann",
        "client",
        Some(query_span),
        PREP_PARSE_MS + lopt_ms,
        0.0,
    );
    collector.add("consults", 0.0);
    collector.add("consult.cache_hits", (prep_probes + ann_probes) as f64);
    collector.add("consult.cache_misses", 0.0);
    let overhead_ms = PREP_PARSE_MS + lopt_ms;
    collector.set_dur(query_span, overhead_ms);
    PlanTrace {
        collector,
        query_span,
        overhead_ms,
    }
}
