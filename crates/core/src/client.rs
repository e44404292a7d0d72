//! The XDB client and middleware entry point (Section III).
//!
//! `Xdb::submit` runs the full pipeline of Figure 4b: ① take a declarative
//! cross-database query, ② optimize it into a delegation plan (logical
//! optimization → plan annotation → plan finalization), ③ delegate it via
//! DDL statements, ④–⑥ execute the returned *XDB query* on the root DBMS
//! and collect the result — all without any mediating execution engine.
//!
//! The reported [`PhaseBreakdown`] mirrors the paper's Figure 15: `prep`
//! (parsing + metadata consultation), `lopt` (logical optimization), `ann`
//! (annotation + finalization consulting), `exec` (delegation DDLs +
//! decentralized execution).

use crate::annotate::{plan_fingerprint, stable_hash_hex, AnnotateOptions, Annotator};
use crate::delegation::{
    build_script, deploy_script, finish_script, run_cleanup, DelegationScript, Deployed,
    ExecutionOutcome,
};
use crate::global::{GlobalCatalog, LogicalEntry};
use crate::plan::DelegationPlan;
use std::sync::Arc;
use xdb_engine::cluster::Cluster;
use xdb_engine::engine::{log_parse_error, ExecReport, StatementOptions};
use xdb_engine::error::{EngineError, Result};
use xdb_engine::relation::Relation;
use xdb_net::{params, wire, NodeId, Purpose, Transfer};
use xdb_obs::history::EdgeObs;
use xdb_obs::{
    critical_path, HistoryRecord, QueryTrace, SpanId, SpanKind, TraceCollector, TraceCtx,
};
use xdb_sql::ast::{Expr, SelectStmt, Statement, TableRef};
use xdb_sql::bind::bind_select;
use xdb_sql::optimize::{optimize, JoinShape, OptimizeOptions};

/// Per-phase simulated times (Fig 15).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Parsing, analysis, metadata gathering through the connectors.
    pub prep_ms: f64,
    /// Logical optimization (rewrites + join ordering) — query-dependent,
    /// data-size-independent.
    pub lopt_ms: f64,
    /// Plan annotation + finalization, dominated by consulting
    /// round-trips.
    pub ann_ms: f64,
    /// Delegation DDLs + decentralized execution.
    pub exec_ms: f64,
    /// Consultation-cache hits during this query's preparation and
    /// annotation (probes answered without a round-trip).
    pub consult_cache_hits: u64,
    /// Consultation-cache misses (probes that did pay a round-trip).
    pub consult_cache_misses: u64,
}

impl PhaseBreakdown {
    pub fn total_ms(&self) -> f64 {
        self.prep_ms + self.lopt_ms + self.ann_ms + self.exec_ms
    }

    /// Project the breakdown out of a query trace: phase durations come
    /// from the Phase spans, cache accounting from the counters. This is
    /// the *only* way the middleware computes a breakdown — the trace is
    /// the source of truth, the breakdown a view of it.
    pub fn from_trace(trace: &QueryTrace) -> PhaseBreakdown {
        PhaseBreakdown {
            prep_ms: trace.phase_ms("prep"),
            lopt_ms: trace.phase_ms("lopt"),
            ann_ms: trace.phase_ms("ann"),
            exec_ms: trace.phase_ms("exec"),
            consult_cache_hits: trace.counter("consult.cache_hits") as u64,
            consult_cache_misses: trace.counter("consult.cache_misses") as u64,
        }
    }
}

/// Result of one cross-database query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    pub relation: Relation,
    pub delegation: DelegationPlan,
    pub breakdown: PhaseBreakdown,
    pub consult_roundtrips: u64,
    pub ddl_count: usize,
    /// Correlation id of this query: names its `xdb_q<id>_*` objects and
    /// tags its telemetry events.
    pub query_id: u64,
    /// The structured execution trace: hierarchical spans (query → phase →
    /// task → DDL / exec → operator, and the consults) on the simulated
    /// clock, plus counters. It keeps time; what moved is `transfers` and
    /// what was chosen `cost`. Deterministic: every timestamp is simulated.
    pub trace: QueryTrace,
    /// Cost-model observatory bundle: every placement decision's predicted
    /// Eq. 1–3 components (chosen + rejected candidates) joined against
    /// the observed wire edges and statement work of this run. Purely
    /// derived — empty when the plan had no cross-database decisions.
    pub cost: xdb_obs::CostObservation,
    /// Every transfer this query caused, in the order the federation's
    /// ledger received them: its control messages, what its deployment
    /// moved, the XDB query's pulls and the final result. The query owns
    /// them: another client's traffic on the same federation is not here.
    pub transfers: Vec<Transfer>,
    /// Whether the plan was priced through the catalog's learned cost
    /// profiles (`XdbOptions::learned_costs`).
    pub learned_costs: bool,
}

impl QueryOutcome {
    /// `EXPLAIN ANALYZE`-style text report of the trace, followed by the
    /// critical-path attribution ("critical path: 7 spans, 61% transfer
    /// on node presto->xdb").
    pub fn report(&self) -> String {
        let mut out = self.trace.render_text();
        if let Some(crit) = critical_path(&self.trace) {
            if !out.ends_with('\n') {
                out.push('\n');
            }
            out.push_str(&crit.render());
        }
        out
    }

    /// This run's history record, the one per-query record every report
    /// projects: a pure projection of the outcome, built only when a
    /// caller asks for it (the critical path is computed here). `sql` is
    /// the text that was submitted; the label is left empty for the runner
    /// to stamp. Everything in it is simulated-clock / script-order state,
    /// so records are bit-identical across stream-chunk sizes.
    pub fn record(&self, sql: &str) -> HistoryRecord {
        let crit = critical_path(&self.trace);
        let critical = crit
            .as_ref()
            .map(|c| {
                c.attribution
                    .iter()
                    .map(|a| {
                        let ms = xdb_obs::critical::ms(a.ns);
                        (a.category.label().to_string(), a.location.clone(), ms)
                    })
                    .collect()
            })
            .unwrap_or_default();
        let breakdown = &self.breakdown;
        HistoryRecord {
            label: String::new(),
            deployment: "xdb".to_string(),
            sql_fnv: stable_hash_hex(sql.as_bytes()),
            fingerprint: plan_fingerprint(&self.delegation),
            tasks: self.delegation.tasks.len() as u64,
            result_digest: crate::annotate::result_digest(&self.relation),
            query_id: self.query_id,
            total_ms: breakdown.total_ms(),
            phases: vec![
                ("prep".to_string(), breakdown.prep_ms),
                ("lopt".to_string(), breakdown.lopt_ms),
                ("ann".to_string(), breakdown.ann_ms),
                ("exec".to_string(), breakdown.exec_ms),
            ],
            consult_hits: breakdown.consult_cache_hits,
            consult_misses: breakdown.consult_cache_misses,
            consult_roundtrips: self.consult_roundtrips,
            crit_spans: crit.map_or(0, |c| c.steps.len() as u64),
            critical,
            edges: edge_observations(&self.transfers),
            statements: statements_from_trace(&self.trace),
            cost: self.cost.clone(),
            learned_costs: self.learned_costs,
        }
    }
}

/// Middleware configuration.
#[derive(Debug, Clone)]
pub struct XdbOptions {
    pub annotate: AnnotateOptions,
    /// Disable join reordering in logical optimization (ablation).
    pub no_join_reorder: bool,
    /// Disable projection pushdown (ablation).
    pub no_column_pruning: bool,
    /// Enumerate bushy join trees instead of left-deep only (the paper's
    /// future-work extension; decentralized execution pipelines the
    /// independent subtrees in parallel).
    pub bushy_joins: bool,
    /// Collect per-operator statistics (rows in/out, hash-join build and
    /// probe sizes) inside every engine touched by this query and attach
    /// Operator spans to the trace. The flag travels with the query's own
    /// statements, so clients sharing a federation trace independently.
    /// Off by default: operator profiling is the only instrumentation with
    /// a per-row bookkeeping footprint.
    pub trace_operators: bool,
    /// Transport morsel size (rows) for streamed dataflow edges; 0 means
    /// unbounded (one chunk per edge). Defaults to
    /// [`xdb_engine::DEFAULT_STREAM_CHUNK_ROWS`]. Like the tracing flag it
    /// travels with the query's own statements. Any value yields
    /// bit-identical results, ledgers, simulated timings, traces, and
    /// deterministic metric snapshots — only the quarantined `net.chunks`
    /// series moves.
    pub stream_chunk_rows: usize,
    /// Ignored, and 0 by default: every streamed edge is decoded on the
    /// thread that consumes it. Kept, and deprecated, only because the
    /// out-of-workspace `benchmark/` package still prints it.
    #[deprecated(note = "every streamed edge is decoded on its consuming thread")]
    pub reactor_threads: usize,
    /// Price placement/movement candidates through the catalog's learned
    /// cost profiles and feed each executed query's cost observation back
    /// into them. On by default; `false` reproduces the static Eq. 1–3
    /// model bit-exactly — plans, traces, and every deterministic snapshot
    /// match the pre-feedback build.
    pub learned_costs: bool,
    /// Keep pricing through the learned profiles but stop absorbing new
    /// observations. Used by the session layer (its gated series were
    /// recorded that way) and by the fixed-profile arms of `repro replay`.
    pub freeze_profiles: bool,
}

impl XdbOptions {
    /// The logical optimizer's options these select: part of the key a
    /// text's optimised plan is cached under.
    pub fn optimize_options(&self) -> OptimizeOptions {
        OptimizeOptions {
            reorder_joins: !self.no_join_reorder,
            prune_columns: !self.no_column_pruning,
            join_shape: if self.bushy_joins {
                JoinShape::Bushy
            } else {
                JoinShape::LeftDeep
            },
        }
    }
}

impl Default for XdbOptions {
    #[allow(deprecated)]
    fn default() -> XdbOptions {
        XdbOptions {
            annotate: AnnotateOptions::default(),
            no_join_reorder: false,
            no_column_pruning: false,
            bushy_joins: false,
            trace_operators: false,
            stream_chunk_rows: xdb_engine::DEFAULT_STREAM_CHUNK_ROWS,
            reactor_threads: 0,
            learned_costs: true,
            freeze_profiles: false,
        }
    }
}

/// Per-logical-plan-operator abstraction of the optimizer's own CPU time
/// (simulated; real wall time is microseconds at this scale but the
/// paper's Java implementation reports seconds).
const LOPT_MS_PER_NODE: f64 = 2.5;
/// Parse/analysis baseline of the prep phase.
pub(crate) const PREP_PARSE_MS: f64 = 15.0;

/// The XDB middleware.
pub struct Xdb<'a> {
    cluster: &'a Cluster,
    catalog: &'a GlobalCatalog,
    /// The node the client (and thus the middleware) talks from; final
    /// results and control messages are accounted against this node.
    client_node: NodeId,
    options: XdbOptions,
}

impl<'a> Xdb<'a> {
    pub fn new(cluster: &'a Cluster, catalog: &'a GlobalCatalog) -> Xdb<'a> {
        Xdb {
            cluster,
            catalog,
            client_node: NodeId::new("xdb-client"),
            options: XdbOptions::default(),
        }
    }

    pub fn with_options(mut self, options: XdbOptions) -> Self {
        self.options = options;
        self
    }

    /// Account the middleware/client as sitting on `node` (e.g. a cloud
    /// node of the topology) for transfer bookkeeping.
    pub fn with_client_node(mut self, node: impl Into<String>) -> Self {
        self.client_node = NodeId::new(node);
        self
    }

    pub(crate) fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// Plan a query without executing it: returns the delegation plan, the
    /// DDL script, and the would-be breakdown of the optimization phases.
    pub fn plan(
        &self,
        sql: &str,
    ) -> Result<(DelegationPlan, DelegationScript, PhaseBreakdown, u64)> {
        let planned = self.plan_internal(sql)?;
        let trace = planned.trace.collector.finish();
        let breakdown = PhaseBreakdown::from_trace(&trace);
        Ok((
            planned.delegation,
            planned.script,
            breakdown,
            planned.consults,
        ))
    }

    /// Shared front half of [`Xdb::plan`], [`Xdb::submit`] and the session
    /// layer: run the optimization pipeline while recording the
    /// prep/lopt/ann phase spans and per-probe Consult spans into a fresh
    /// collector.
    pub(crate) fn plan_internal(&self, sql: &str) -> Result<Planned> {
        let options = self.options.optimize_options();
        // A text the catalog has planned before is not parsed again: its
        // entry lists the tables to consult. A new text is parsed first, so
        // malformed or non-SELECT text fails before any consult.
        let front = match self.catalog.logical_plan(sql, options) {
            Some(entry) => Front::Cached(entry),
            None => {
                let (select, tables) = self.parse_query(sql)?;
                Front::Parsed(select, tables)
            }
        };
        let collector = TraceCollector::new();
        let query_span = collector.span(SpanKind::Query, "query", "client", None, 0.0, 0.0);
        collector.attr(query_span, "sql", sql);

        // prep: parse + consult metadata/statistics for every referenced
        // table. Probes answered by the consultation cache cost nothing;
        // only misses pay the metadata round-trip (the cache is dropped
        // per node whenever a DDL runs against it). Hit/miss accounting is
        // per query — counted from this query's own probes, never from
        // deltas of the process-wide cache counters, which concurrent
        // queries would pollute.
        let prep_span = collector.span(
            SpanKind::Phase,
            "prep",
            "client",
            Some(query_span),
            0.0,
            0.0,
        );
        let mut cursor = PREP_PARSE_MS;
        let mut prep_hits = 0u64;
        let mut prep_fetches = 0u64;
        for t in front.tables() {
            // Unknown names surface at bind; consultation is best-effort.
            if let Ok(hit) = self.catalog.consult(self.cluster, t) {
                let dur = if hit { 0.0 } else { params::METADATA_FETCH_MS };
                let probe = collector.span(
                    SpanKind::Consult,
                    format!("metadata {t}"),
                    "client",
                    Some(prep_span),
                    cursor,
                    dur,
                );
                collector.attr(probe, "cache", if hit { "hit" } else { "miss" });
                if let Some(node) = self.catalog.location(t) {
                    collector.attr(probe, "node", node.as_str());
                }
                if hit {
                    prep_hits += 1;
                } else {
                    prep_fetches += 1;
                }
                cursor += dur;
            }
        }
        let prep_ms = PREP_PARSE_MS + prep_fetches as f64 * params::METADATA_FETCH_MS;
        collector.set_dur(prep_span, prep_ms);

        // lopt: the cached plan while the statistics it was built over are
        // the catalog's, else bind and optimise anew (a stale entry's text
        // is parsed again).
        let epoch = self.catalog.stats_epoch();
        let logical = match front {
            Front::Cached(entry) if entry.epoch == epoch => entry,
            Front::Cached(_) => {
                let (select, tables) = self.parse_query(sql)?;
                self.fill_plan(sql, options, &select, tables, epoch)?
            }
            Front::Parsed(select, tables) => {
                self.fill_plan(sql, options, &select, tables, epoch)?
            }
        };
        let node_count = logical.node_count as f64;
        let lopt_ms = node_count * LOPT_MS_PER_NODE;
        let lopt_span = collector.span(
            SpanKind::Phase,
            "lopt",
            "client",
            Some(query_span),
            prep_ms,
            lopt_ms,
        );
        collector.attr(lopt_span, "plan_nodes", format!("{node_count:.0}"));

        // ann (+ finalization).
        let learned = if self.options.learned_costs {
            self.catalog.learned_profiles()
        } else {
            None
        };
        let annotation = Annotator::pricing_with(
            self.catalog,
            self.cluster,
            self.options.annotate.clone(),
            learned,
        )
        .run(&logical.plan)?;
        let ann_ms = annotation.consults as f64 * params::CONSULT_ROUNDTRIP_MS;
        let ann_span = collector.span(
            SpanKind::Phase,
            "ann",
            "client",
            Some(query_span),
            prep_ms + lopt_ms,
            ann_ms,
        );
        // One Consult span per placement decision, as long as the consults
        // it paid for; what it chose is the outcome's cost observation.
        let mut acur = prep_ms + lopt_ms;
        for (i, decision) in annotation.decisions.iter().enumerate() {
            let dur = decision.paid_consults as f64 * params::CONSULT_ROUNDTRIP_MS;
            collector.span(
                SpanKind::Consult,
                format!("placement {i}"),
                "client",
                Some(ann_span),
                acur,
                dur,
            );
            acur += dur;
        }

        collector.add("consults", annotation.consults as f64);
        collector.add(
            "consult.cache_hits",
            (prep_hits + annotation.cache_hits) as f64,
        );
        collector.add(
            "consult.cache_misses",
            (prep_fetches + annotation.consults) as f64,
        );

        let overhead_ms = prep_ms + lopt_ms + ann_ms;
        collector.set_dur(query_span, overhead_ms);

        // Query ids come from the federation: short-lived relation names
        // must be unique across every client submitting to it.
        let query_id = self.cluster.next_query_id();
        let script = build_script(&annotation.plan, query_id, self.cluster)?;

        // Fleet telemetry: the whole planning pipeline is single-threaded,
        // so Info events and the phase histograms below are deterministic.
        let telemetry = self.cluster.telemetry();
        telemetry
            .metrics
            .observe("xdb.phase_ms", &[("phase", "prep")], prep_ms);
        telemetry
            .metrics
            .observe("xdb.phase_ms", &[("phase", "lopt")], lopt_ms);
        telemetry
            .metrics
            .observe("xdb.phase_ms", &[("phase", "ann")], ann_ms);
        telemetry
            .metrics
            .counter_add("xdb.queries_planned", &[], 1.0);
        let tasks = annotation.plan.tasks.len().to_string();
        let movements = annotation.plan.edges.len().to_string();
        let consults_str = annotation.consults.to_string();
        telemetry.events.log(
            xdb_obs::Level::Info,
            "core.client",
            Some(query_id),
            overhead_ms,
            "query planned",
            &[
                ("tasks", &tasks),
                ("movements", &movements),
                ("consults", &consults_str),
            ],
        );
        Ok(Planned {
            decisions: annotation.decisions,
            delegation: annotation.plan,
            script,
            trace: PlanTrace {
                collector,
                query_span,
                overhead_ms,
            },
            consults: annotation.consults,
            query_id,
            prep_probes: prep_hits + prep_fetches,
            ann_probes: annotation.cache_hits + annotation.consults,
            lopt_ms,
        })
    }

    /// Parse `sql`, which must be a SELECT (or `EXPLAIN <select>`, which
    /// plans the inner query), and list the tables it reads: the first half
    /// of filling the logical plan cache.
    fn parse_query(&self, sql: &str) -> Result<(Box<SelectStmt>, Vec<String>)> {
        let stmt = xdb_sql::parse_statement(sql)
            .map_err(|e| log_parse_error(self.cluster.telemetry(), sql, e))?;
        let select = match stmt {
            Statement::Select(s) | Statement::Explain(s) => s,
            other => {
                return Err(EngineError::Unsupported(format!(
                    "XDB accepts SELECT queries only, got {other:?}"
                )))
            }
        };
        let mut tables = Vec::new();
        collect_tables(&select, &mut tables);
        Ok((select, tables))
    }

    /// Bind and optimise `sql`'s parse over the statistics of `epoch`, and
    /// keep the plan in the catalog: the second half of filling the cache.
    /// Errors are not kept.
    fn fill_plan(
        &self,
        sql: &str,
        options: OptimizeOptions,
        select: &SelectStmt,
        tables: Vec<String>,
        epoch: u64,
    ) -> Result<Arc<LogicalEntry>> {
        let bound = bind_select(select, self.catalog)?;
        let node_count = bound.node_count();
        let plan = optimize(bound, self.catalog, options);
        let entry = LogicalEntry {
            tables,
            node_count,
            plan,
            epoch,
        };
        Ok(self.catalog.keep_logical_plan(sql, options, entry))
    }

    /// The one stage that runs a planned query, for [`Xdb::submit`] and the
    /// session layer alike: record the control messages, deploy `script`
    /// and run the XDB query inside a fresh exec span, and record the final
    /// result. For a partially folded query `solo` replays the timeline as
    /// if the query had deployed everything itself. On failure whatever
    /// `script` created is torn down before the error is returned; on
    /// success cleanup is the caller's (a session defers it to window
    /// close).
    pub(crate) fn run_planned(
        &self,
        trace: &PlanTrace,
        delegation: &DelegationPlan,
        script: &DelegationScript,
        solo: Option<SoloTimeline<'_>>,
    ) -> Result<Executed> {
        let (collector, query_span, overhead_ms) =
            (&trace.collector, trace.query_span, trace.overhead_ms);
        let telemetry = self.cluster.telemetry();
        // Control traffic: consulting probes and DDL statements are small
        // messages from the middleware to the DBMS nodes (Fig 14's
        // "lightweight control messages").
        let mut control = Vec::with_capacity(script.steps.len());
        for step in &script.steps {
            control.extend(self.cluster.ledger.record(
                &self.client_node,
                &step.node,
                step.sql.len() as u64,
                0,
                Purpose::ControlMessage,
            ));
        }
        let exec_span = collector.span(
            SpanKind::Phase,
            "exec",
            "client",
            Some(query_span),
            overhead_ms,
            0.0,
        );
        let trace_ctx = TraceCtx::new(collector, overhead_ms, Some(exec_span));
        let opts = StatementOptions {
            trace_ops: self.options.trace_operators,
            chunk_rows: self.options.stream_chunk_rows,
        };
        let ran = deploy_script(self.cluster, script, opts).and_then(|deployed| {
            // For a partial fold the physical work stays pruned; only the
            // simulated-clock replay runs over the solo script (the XDB
            // query it ends in is this query's own: its root view exists
            // under its own name).
            let spliced;
            let (timeline, reports) = match solo {
                None => (script, &deployed.step_reports),
                Some((solo, splice)) => {
                    spliced = splice(&deployed.step_reports);
                    (solo, &spliced)
                }
            };
            let outcome = finish_script(
                self.cluster,
                delegation,
                timeline,
                reports,
                &trace_ctx,
                opts,
            )?;
            Ok((deployed, outcome))
        });
        let (deployed, outcome) = match ran {
            Ok(ran) => ran,
            Err(mut e) => {
                // Failure mid-execution: tear down whatever was created;
                // what could not be dropped travels with the error.
                let undropped = run_cleanup(self.cluster, script);
                if let EngineError::Statement(failed) = &mut e {
                    failed.cleanup = undropped;
                }
                telemetry
                    .metrics
                    .counter_add("xdb.queries", &[("status", "error")], 1.0);
                let err = e.to_string();
                telemetry.events.log(
                    xdb_obs::Level::Warn,
                    "core.client",
                    Some(script.query_id),
                    overhead_ms,
                    "execution failed; delegation artifacts torn down",
                    &[("error", &err)],
                );
                return Err(e);
            }
        };
        let result = self.record_final_result(&script.root_node, &outcome.relation);
        Ok(Executed {
            outcome,
            deployed,
            exec_span,
            control,
            result,
        })
    }

    /// Full pipeline: plan, delegate, execute, clean up.
    pub fn submit(&self, sql: &str) -> Result<QueryOutcome> {
        let Planned {
            delegation,
            script,
            trace,
            consults,
            query_id,
            decisions,
            ..
        } = self.plan_internal(sql)?;
        let telemetry = self.cluster.telemetry();
        let Executed {
            outcome,
            deployed,
            exec_span,
            control,
            result,
        } = self.run_planned(&trace, &delegation, &script, None)?;
        run_cleanup(self.cluster, &script);
        // Free the script's statements before the tail below allocates, so
        // the tail reuses their memory: dropped at the end of `submit`
        // instead, `td3_overhead` rounds ran 3% slower (2-vCPU Xeon).
        drop(script);
        // Everything this query moved, for the observatory and the outcome.
        let transfers = in_ledger_order(control, deployed.step_transfers, outcome.pulled, result);
        let (trace, breakdown) = self.finish_trace(trace, exec_span, outcome.exec_ms, true);
        // Cost-model observatory: join the predicted placement decisions
        // against this query's transfers and its statement work. Reads only
        // final state, so it cannot perturb any deterministic observable.
        let statements = statements_from_trace(&trace);
        let cost = crate::observatory::build_cost_observation(
            self.cluster,
            &decisions,
            &transfers,
            &statements,
        );
        // Feedback: fold this query's observation into the catalog's
        // learned profiles. The observation is bit-identical across
        // chunk sizes, so feedback preserves the cross-axis determinism of
        // every later plan.
        if self.options.learned_costs && !self.options.freeze_profiles && !cost.is_empty() {
            self.catalog.absorb_cost_observation(&cost, &statements);
        }
        let rows = outcome.relation.len().to_string();
        let total = format!("{:.3}", breakdown.total_ms());
        telemetry.events.log(
            xdb_obs::Level::Info,
            "core.client",
            Some(query_id),
            breakdown.total_ms(),
            "query completed",
            &[("rows", &rows), ("total_ms", &total)],
        );
        Ok(QueryOutcome {
            relation: outcome.relation,
            delegation,
            breakdown,
            consult_roundtrips: consults,
            ddl_count: outcome.ddl_count,
            query_id,
            trace,
            cost,
            transfers,
            learned_costs: self.options.learned_costs,
        })
    }

    /// The final result travels from the root DBMS to the client, priced
    /// through the same wire codec as every other edge (sizing only: the
    /// client holds the relation already). Returns its record.
    pub(crate) fn record_final_result(&self, root: &NodeId, rel: &Relation) -> Option<Transfer> {
        let enc = wire::measure(rel.columns(), rel.len());
        self.cluster.ledger.record_wire(
            root,
            &self.client_node,
            rel.wire_bytes(),
            rel.len() as u64,
            Purpose::FinalResult,
            enc.stats(self.options.stream_chunk_rows),
        )
    }

    /// The one trace tail of a query that ran (or was answered from a
    /// session's result cache): close the exec and query spans at
    /// `exec_ms` and project the breakdown out of the finished trace.
    /// `executed` publishes the completion metrics; a full fold executed
    /// nothing and publishes none.
    pub(crate) fn finish_trace(
        &self,
        trace: PlanTrace,
        exec_span: SpanId,
        exec_ms: f64,
        executed: bool,
    ) -> (QueryTrace, PhaseBreakdown) {
        let PlanTrace {
            collector,
            query_span,
            overhead_ms,
        } = trace;
        collector.set_dur(exec_span, exec_ms);
        collector.set_dur(query_span, overhead_ms + exec_ms);
        let trace = collector.finish();
        let breakdown = PhaseBreakdown::from_trace(&trace);
        if executed {
            let metrics = &self.cluster.telemetry().metrics;
            metrics.observe("xdb.phase_ms", &[("phase", "exec")], exec_ms);
            metrics.observe("xdb.total_ms", &[], breakdown.total_ms());
            metrics.counter_add("xdb.queries", &[("status", "ok")], 1.0);
        }
        (trace, breakdown)
    }
}

/// The live trace of a planned query: the collector with the prep/lopt/ann
/// spans recorded, the query span they hang off, and the simulated planning
/// time, which is where the exec phase starts.
pub(crate) struct PlanTrace {
    pub(crate) collector: TraceCollector,
    pub(crate) query_span: SpanId,
    pub(crate) overhead_ms: f64,
}

/// What [`Xdb::run_planned`] hands back: with the deployment's step
/// transfers and the XDB query's pulls, everything the query moved
/// ([`in_ledger_order`]).
pub(crate) struct Executed {
    pub(crate) outcome: ExecutionOutcome,
    pub(crate) deployed: Deployed,
    pub(crate) exec_span: SpanId,
    /// The query's control messages, one per step of the deployed script
    /// (the client is not a DBMS node, so none is a loopback).
    pub(crate) control: Vec<Transfer>,
    /// The final result's record.
    pub(crate) result: Option<Transfer>,
}

/// A query's transfers, moved into one list in the order the shared ledger
/// received them: the control messages, recorded ahead of the deployment,
/// what each step moved, the XDB query's pulls, and the final result.
fn in_ledger_order(
    mut control: Vec<Transfer>,
    steps: Vec<Vec<Transfer>>,
    pulled: Vec<Transfer>,
    result: Option<Transfer>,
) -> Vec<Transfer> {
    control.reserve_exact(steps.iter().map(Vec::len).sum::<usize>() + pulled.len() + 1);
    control.extend(steps.into_iter().flatten().chain(pulled).chain(result));
    control
}

/// For a partially folded query: its solo script, and the function that
/// maps the deployed steps' reports onto that script's steps by splicing
/// in the reports of the fragments it reused.
pub(crate) type SoloTimeline<'s> = (
    &'s DelegationScript,
    &'s dyn Fn(&[ExecReport]) -> Vec<ExecReport>,
);

/// What planning knows of a query text before its preparation consults.
enum Front {
    /// The plan the catalog keeps for it, built at some statistics epoch.
    Cached(Arc<LogicalEntry>),
    /// Its parse and the tables it reads, for a text not kept.
    Parsed(Box<SelectStmt>, Vec<String>),
}

impl Front {
    /// The tables to consult, in order of first mention.
    fn tables(&self) -> &[String] {
        match self {
            Front::Cached(entry) => &entry.tables,
            Front::Parsed(_, tables) => tables,
        }
    }
}

/// Output of the optimization front half: everything `submit` needs to go
/// on and execute.
pub(crate) struct Planned {
    pub(crate) delegation: DelegationPlan,
    pub(crate) script: DelegationScript,
    pub(crate) trace: PlanTrace,
    pub(crate) consults: u64,
    pub(crate) query_id: u64,
    /// Placement decisions in annotation order — the predicted half of
    /// the cost-model observatory, joined post-execution by `submit`.
    pub(crate) decisions: Vec<crate::annotate::PlacementDecision>,
    /// Metadata probes issued during prep (hits + fetches). A warm replan
    /// of the same query answers all of them from the consultation cache.
    pub(crate) prep_probes: u64,
    /// EXPLAIN probes issued during annotation (hits + misses).
    pub(crate) ann_probes: u64,
    pub(crate) lopt_ms: f64,
}

/// Per-engine statement work from the trace counters
/// (`node.<engine>.work_ms`), in the counters' deterministic order.
fn statements_from_trace(trace: &QueryTrace) -> Vec<(String, f64)> {
    trace
        .counters
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix("node.")
                .and_then(|rest| rest.strip_suffix(".work_ms"))
                .map(|engine| (engine.to_string(), *v))
        })
        .collect()
}

/// Every table a query block reads, each once, in order of first mention:
/// its FROM items (derived tables included), then the tables of the
/// `EXISTS` / `IN (SELECT …)` subqueries in its WHERE and HAVING.
fn collect_tables(select: &SelectStmt, out: &mut Vec<String>) {
    for t in &select.from {
        collect_tables_ref(t, out);
    }
    for pred in select.selection.iter().chain(&select.having) {
        pred.walk(&mut |e| {
            if let Expr::Exists { query, .. } | Expr::InSubquery { query, .. } = e {
                collect_tables(query, out);
            }
        });
    }
}

fn collect_tables_ref(t: &TableRef, out: &mut Vec<String>) {
    match t {
        TableRef::Table { name, .. } => {
            let key = name.to_ascii_lowercase();
            if !out.contains(&key) {
                out.push(key);
            }
        }
        TableRef::Derived { query, .. } => collect_tables(query, out),
        TableRef::Join { left, right, .. } => {
            collect_tables_ref(left, out);
            collect_tables_ref(right, out);
        }
    }
}

/// A run's ledger transfers as its history record keeps them: one
/// [`EdgeObs`] per transfer, in ledger order, the purpose by its variant
/// name (`InterDbmsPipeline`). XDB's records and the baselines' are built
/// by this one conversion.
pub fn edge_observations(transfers: &[Transfer]) -> Vec<EdgeObs> {
    transfers
        .iter()
        .map(|t| EdgeObs {
            from: t.from.as_str().to_string(),
            to: t.to.as_str().to_string(),
            purpose: format!("{:?}", t.purpose),
            bytes: t.bytes,
            encoded_bytes: t.encoded_bytes,
            rows: t.rows,
            codecs: t
                .codec_bytes
                .iter()
                .map(|(c, b)| (c.to_string(), *b))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{self, ScenarioConfig};

    fn setup() -> (Cluster, GlobalCatalog) {
        scenario::build(ScenarioConfig::default()).unwrap()
    }

    #[test]
    fn submit_end_to_end() {
        let (cluster, catalog) = setup();
        let xdb = Xdb::new(&cluster, &catalog);
        let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
        assert!(!outcome.relation.is_empty());
        assert!(outcome.breakdown.prep_ms > 0.0);
        assert!(outcome.breakdown.lopt_ms > 0.0);
        assert!(outcome.breakdown.ann_ms > 0.0);
        assert!(outcome.breakdown.exec_ms > 0.0);
        assert_eq!(outcome.consult_roundtrips, 4);
        // The 4 annotation probes miss (first sighting of this query);
        // the 4 metadata probes hit the cache warmed by scenario::build.
        assert_eq!(outcome.breakdown.consult_cache_misses, 4);
        assert_eq!(outcome.breakdown.consult_cache_hits, 4);
        assert!(outcome.ddl_count >= outcome.delegation.tasks.len());
        // Short-lived objects were dropped.
        for node in ["cdb", "vdb", "hdb"] {
            let names = cluster.engine(node).unwrap().with_catalog(|c| c.names());
            assert!(
                names.iter().all(|n| !n.starts_with("xdb_q")),
                "{node} leaked {names:?}"
            );
        }
    }

    #[test]
    fn resubmission_uses_fresh_names() {
        let (cluster, catalog) = setup();
        let xdb = Xdb::new(&cluster, &catalog);
        let first = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
        let second = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
        assert!(first.relation.same_bag(&second.relation));
    }

    #[test]
    fn final_result_and_control_traffic_recorded() {
        let (cluster, catalog) = setup();
        let xdb = Xdb::new(&cluster, &catalog).with_client_node("cloud");
        xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
        assert!(cluster.ledger.bytes_for(Purpose::FinalResult) > 0);
        assert!(cluster.ledger.bytes_for(Purpose::ControlMessage) > 0);
        // The cloud node never receives intermediate data, only control +
        // final results (the Fig 14 ONP claim).
        let into_cloud = cluster.ledger.bytes_into(&NodeId::new("cloud"));
        assert_eq!(into_cloud, cluster.ledger.bytes_for(Purpose::FinalResult));
    }

    /// Prep consults every table a query reads, also one that only a WHERE
    /// subquery reads: on a fresh catalog TPC-H Q4 (`EXISTS` over
    /// `lineitem`) is priced with `lineitem`'s statistics, so it plans as
    /// it does once every table has been consulted.
    #[test]
    fn prep_consults_the_tables_of_where_subqueries() {
        use xdb_engine::profile::EngineProfile;
        use xdb_net::Scenario;
        use xdb_sql::stats::StatsProvider;
        use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};
        let plan_q4 = |warm: bool| {
            let cluster = build_cluster(
                TableDist::Td1,
                0.001,
                Scenario::OnPremise,
                &ProfileAssignment::uniform(EngineProfile::postgres()),
            )
            .unwrap();
            let catalog = GlobalCatalog::discover(&cluster).unwrap();
            if warm {
                for t in catalog.table_names() {
                    catalog.consult(&cluster, &t).unwrap();
                }
            }
            let (plan, _, _, _) = Xdb::new(&cluster, &catalog)
                .plan(TpchQuery::Q4.sql())
                .unwrap();
            assert!(catalog.table_rows("lineitem").is_some(), "warm={warm}");
            plan_fingerprint(&plan)
        };
        assert_eq!(plan_q4(false), plan_q4(true));
    }

    #[test]
    fn non_select_rejected() {
        let (cluster, catalog) = setup();
        let xdb = Xdb::new(&cluster, &catalog);
        assert!(matches!(
            xdb.submit("DROP TABLE citizen"),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_table_fails_cleanly() {
        let (cluster, catalog) = setup();
        let xdb = Xdb::new(&cluster, &catalog);
        assert!(xdb.submit("SELECT * FROM nothere").is_err());
    }

    #[test]
    fn plan_only_does_not_execute() {
        let (cluster, catalog) = setup();
        let xdb = Xdb::new(&cluster, &catalog);
        let (plan, script, breakdown, consults) = xdb.plan(scenario::EXAMPLE_QUERY).unwrap();
        assert_eq!(plan.tasks.len(), 3);
        assert!(!script.steps.is_empty());
        assert!(breakdown.exec_ms == 0.0);
        assert!(consults > 0);
        // Nothing moved.
        assert_eq!(cluster.ledger.total_bytes(), 0);
    }

    #[test]
    fn breakdown_total_sums_phases() {
        let b = PhaseBreakdown {
            prep_ms: 1.0,
            lopt_ms: 2.0,
            ann_ms: 3.0,
            exec_ms: 4.0,
            ..Default::default()
        };
        assert_eq!(b.total_ms(), 10.0);
    }
}
