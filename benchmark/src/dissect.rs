//! The dissection pass of a traced run: outside the round timer, make one
//! at a time the calls `Xdb::submit` makes internally, each in a span.
//!
//! Per query, a pass records
//! - `staged`: parse → consult → bind → optimize → annotate →
//!   build_script → run_script → cleanup → trace_finish as child spans of
//!   one parent, through the same public functions `submit` calls;
//! - `whole.plan` and `whole.submit` beside them, and `obs.critical_path`
//!   over the submitted query's trace;
//! - `steps`: the script again, statement by statement (`step.ddl`,
//!   `step.ctas`, `step.root_query`, `step.cleanup`), with `wire.encode`
//!   and `wire.decode` over the relation that crosses each edge;
//! - `local.query`: the same query on the oracle engine.
//!
//! Every span carries the allocation counters read at both ends.

use crate::harness::{Federation, Verifier, CLIENT_NODE};
use crate::spans::{Recorder, Span};
use crate::workload::QUERIES;
use std::collections::BTreeMap;
use xdb_core::delegation::DdlKind;
use xdb_core::{build_script, run_cleanup, run_script_parallel, Annotation, Annotator, Xdb};
use xdb_engine::error::{EngineError, Result};
use xdb_net::wire;
use xdb_obs::{critical_path, SpanKind, TraceCollector, TraceCtx};
use xdb_sql::ast::Statement;
use xdb_sql::bind::bind_select;
use xdb_sql::optimize::{optimize, OptimizeOptions};
use xdb_tpch::TpchTable;

/// The children of a `staged` span, in the order `Xdb::submit` makes the
/// calls.
pub const STAGES: [&str; 9] = [
    "stage.parse",
    "stage.consult",
    "stage.bind",
    "stage.optimize",
    "stage.annotate",
    "stage.build_script",
    "stage.run_script",
    "stage.cleanup",
    "stage.trace_finish",
];

/// Operation numbers of dissection spans start here; the query index is
/// the number modulo six.
pub const OP_BASE: u32 = 1 << 30;
/// Query ids of the scripts the harness builds itself, far above any id
/// the library's process-wide counter hands out during a run.
const QUERY_ID_BASE: u64 = 4_000_000_000;

/// Counts taken while dissecting, and the per-(span name, query) samples
/// read back from the recorder.
#[derive(Default)]
pub struct Dissection {
    passes: u32,
    scripts: u64,
    /// span name → per query → one sample (ms, allocs) per pass.
    samples: BTreeMap<&'static str, [Vec<(f64, f64)>; 6]>,
    pub plan_nodes: Vec<f64>,
    pub candidates_costed: Vec<f64>,
    pub tasks: Vec<f64>,
    pub edges: Vec<f64>,
    pub encode_raw_bytes: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    /// Plan fingerprint first seen per query, and later deviations.
    fingerprints: [Option<String>; 6],
    pub plan_flips: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Dissection {
    /// Note a delegation plan; a fingerprint other than the first one
    /// seen for the query is a plan flip.
    pub fn watch_plan(&mut self, query: usize, fingerprint: String) {
        match &self.fingerprints[query] {
            None => self.fingerprints[query] = Some(fingerprint),
            Some(first) if *first != fingerprint => self.plan_flips += 1,
            Some(_) => {}
        }
    }

    /// One pass over the six queries.
    pub fn pass(&mut self, fed: &Federation, verifier: &mut Verifier, rec: &mut Recorder) {
        let mark = rec.spans().len();
        for (query, q) in QUERIES.iter().enumerate() {
            let op = OP_BASE + self.passes * QUERIES.len() as u32 + query as u32;
            self.attempted += 1;
            if let Err(e) = self.query(fed, verifier, rec, query, op) {
                eprintln!("dissection of {} failed: {e}", q.name());
                self.failed += 1;
            }
        }
        self.passes += 1;
        self.absorb(rec.since(mark));
    }

    fn next_query_id(&mut self) -> u64 {
        self.scripts += 1;
        QUERY_ID_BASE + self.scripts
    }

    fn query(
        &mut self,
        fed: &Federation,
        verifier: &mut Verifier,
        rec: &mut Recorder,
        query: usize,
        op: u32,
    ) -> Result<()> {
        let (cluster, catalog) = (&fed.cluster, &fed.catalog);
        let xdb = Xdb::new(cluster, catalog)
            .with_client_node(CLIENT_NODE)
            .with_options(fed.options.clone());

        // Whichever of the staged sequence and the whole `submit` runs
        // second finds the query's data warm in the caches: they take
        // turns, so the medians of both hold both positions.
        let annotation = if self.passes.is_multiple_of(2) {
            let annotation = self.staged(fed, verifier, rec, query, op)?;
            self.whole(&xdb, verifier, rec, query, op)?;
            annotation
        } else {
            self.whole(&xdb, verifier, rec, query, op)?;
            self.staged(fed, verifier, rec, query, op)?
        };
        self.candidates_costed.push(
            annotation
                .decisions
                .iter()
                .map(|d| d.candidates.len())
                .sum::<usize>() as f64,
        );
        self.tasks.push(annotation.plan.tasks.len() as f64);
        self.edges.push(annotation.plan.edges.len() as f64);
        self.watch_plan(
            query,
            xdb_core::annotate::plan_fingerprint(&annotation.plan),
        );

        // ---- the script again, statement by statement.
        let steps_id = self.next_query_id();
        let script = build_script(&annotation.plan, steps_id, cluster)?;
        let stepped = rec.scope("steps", op, |rec| -> Result<()> {
            cluster.clear_codec_cache();
            for step in &script.steps {
                let name = match step.kind {
                    DdlKind::Materialize => "step.ctas",
                    DdlKind::View | DdlKind::ForeignTable => "step.ddl",
                };
                rec.scope(name, op, |_| cluster.execute(step.node.as_str(), &step.sql))?;
            }
            rec.scope("step.root_query", op, |_| {
                cluster.query(script.root_node.as_str(), &script.xdb_query)
            })?;
            // The relation that crosses each edge is the producer task's
            // view (Algorithm 1 names it `xdb_q<id>_t<task>`).
            for edge in &annotation.plan.edges {
                let producer = annotation.plan.task(edge.from);
                let view = format!("xdb_q{steps_id}_t{}", edge.from);
                let (rel, _) =
                    cluster.query(producer.dbms.as_str(), &format!("SELECT * FROM {view}"))?;
                let mark = rec.spans().len();
                let encoded = rec.scope("wire.encode", op, |_| {
                    wire::encode(rel.columns(), rel.len())
                });
                let decoded = rec.scope("wire.decode", op, |_| {
                    wire::decode_chunked(&encoded, fed.options.stream_chunk_rows)
                });
                if decoded.len() != rel.width() {
                    return Err(EngineError::Execution("codec lost a column".into()));
                }
                let spans = rec.since(mark);
                self.encode_raw_bytes += rel.wire_bytes();
                self.encode_s += spans[0].dur_ns() as f64 / 1e9;
                self.decode_s += spans[1].dur_ns() as f64 / 1e9;
            }
            Ok(())
        });
        rec.scope("step.cleanup", op, |_| run_cleanup(cluster, &script));
        stepped?;

        // ---- the same query on one engine holding every table.
        rec.scope("local.query", op, |_| fed.local(query))?;
        Ok(())
    }

    /// What `Xdb::submit` does, one call at a time, as children of one
    /// `staged` span.
    fn staged(
        &mut self,
        fed: &Federation,
        verifier: &mut Verifier,
        rec: &mut Recorder,
        query: usize,
        op: u32,
    ) -> Result<Annotation> {
        let sql = QUERIES[query].sql();
        let (cluster, catalog) = (&fed.cluster, &fed.catalog);
        let query_id = self.next_query_id();
        let (annotation, relation) = rec.scope("staged", op, |rec| -> Result<_> {
            let stmt = rec.scope("stage.parse", op, |_| xdb_sql::parse_statement(sql))?;
            let Statement::Select(select) = stmt else {
                return Err(EngineError::Unsupported("not a SELECT".into()));
            };
            rec.scope("stage.consult", op, |_| -> Result<()> {
                for abbrev in QUERIES[query].tables() {
                    let table = TpchTable::from_abbrev(abbrev).expect("a TPC-H table");
                    catalog.consult(cluster, table.name())?;
                }
                Ok(())
            })?;
            let bound = rec.scope("stage.bind", op, |_| bind_select(&select, catalog))?;
            self.plan_nodes.push(bound.node_count() as f64);
            let optimized = rec.scope("stage.optimize", op, |_| {
                optimize(bound, catalog, OptimizeOptions::default())
            });
            let annotation = rec.scope("stage.annotate", op, |_| {
                catalog.clear_placeholders();
                Annotator::new(catalog, cluster, fed.options.annotate.clone()).run(&optimized)
            })?;
            let script = rec.scope("stage.build_script", op, |_| {
                build_script(&annotation.plan, query_id, cluster)
            })?;
            let collector = TraceCollector::new();
            let executed = rec.scope("stage.run_script", op, |_| {
                cluster.clear_codec_cache();
                cluster.set_stream_chunk_rows(fed.options.stream_chunk_rows);
                cluster.set_reactor_threads(fed.options.reactor_threads);
                let root = collector.span(SpanKind::Query, "query", "client", None, 0.0, 0.0);
                let exec = collector.span(SpanKind::Phase, "exec", "client", Some(root), 0.0, 0.0);
                let ctx = TraceCtx::new(&collector, 0.0, Some(exec));
                run_script_parallel(cluster, &annotation.plan, &script, &ctx)
            });
            rec.scope("stage.cleanup", op, |_| run_cleanup(cluster, &script));
            let executed = executed?;
            drop(rec.scope("stage.trace_finish", op, |_| collector.finish()));
            Ok((annotation, executed.relation))
        })?;
        if !verifier.check(query, &relation) {
            return Err(EngineError::Execution("staged result differs".into()));
        }
        Ok(annotation)
    }

    /// The whole calls beside the stages.
    fn whole(
        &mut self,
        xdb: &Xdb<'_>,
        verifier: &mut Verifier,
        rec: &mut Recorder,
        query: usize,
        op: u32,
    ) -> Result<()> {
        let sql = QUERIES[query].sql();
        let outcome = rec.scope("whole.submit", op, |_| xdb.submit(sql))?;
        rec.scope("obs.critical_path", op, |_| critical_path(&outcome.trace));
        rec.scope("whole.plan", op, |_| xdb.plan(sql).map(drop))?;
        if !verifier.check(query, &outcome.relation) {
            return Err(EngineError::Execution("submitted result differs".into()));
        }
        Ok(())
    }

    /// Fold the spans of one pass into the samples: spans of one name and
    /// operation add up to one sample (a script has several DDL steps, a
    /// plan several edges).
    fn absorb(&mut self, spans: &[Span]) {
        let mut sums: BTreeMap<(&'static str, u32), (f64, f64)> = BTreeMap::new();
        for s in spans {
            let sum = sums.entry((s.name, s.op)).or_default();
            sum.0 += s.ms();
            sum.1 += s.allocs as f64;
        }
        for ((name, op), sample) in sums {
            let query = ((op - OP_BASE) as usize) % QUERIES.len();
            self.samples.entry(name).or_default()[query].push(sample);
        }
    }

    fn per_query(&self, name: &str, pick: fn(&(f64, f64)) -> f64) -> [f64; 6] {
        let mut out = [0.0; 6];
        if let Some(queries) = self.samples.get(name) {
            for (q, samples) in queries.iter().enumerate() {
                if !samples.is_empty() {
                    let values: Vec<f64> = samples.iter().map(pick).collect();
                    out[q] = crate::stats::median(&values);
                }
            }
        }
        out
    }

    /// Median per query of a span's time in ms (0 where it never ran).
    pub fn ms_per_query(&self, name: &str) -> [f64; 6] {
        self.per_query(name, |s| s.0)
    }

    /// Median per query of a span's allocation count.
    pub fn allocs_per_query(&self, name: &str) -> [f64; 6] {
        self.per_query(name, |s| s.1)
    }

    /// Mean over the six queries of the per-query median time: what the
    /// call costs for an average query of the set.
    pub fn ms(&self, name: &str) -> f64 {
        crate::stats::mean(&self.ms_per_query(name))
    }

    pub fn allocs(&self, name: &str) -> f64 {
        crate::stats::mean(&self.allocs_per_query(name))
    }

    /// What `whole.submit` takes beyond `staged`, in ms: their difference
    /// pass by pass, so that the host's phases cancel. The one of the two
    /// that runs second is about 5% faster (warm caches), more than the
    /// difference itself, so the passes where `staged` went first and
    /// those where `submit` did each give a median and the two are
    /// averaged; then the mean over the six queries.
    pub fn submit_beyond_staged_ms(&self) -> f64 {
        let (Some(submit), Some(staged)) =
            (self.samples.get("whole.submit"), self.samples.get("staged"))
        else {
            return 0.0;
        };
        let per_query: Vec<f64> = submit
            .iter()
            .zip(staged)
            .map(|(submit, staged)| {
                let by_order: Vec<f64> = (0..2)
                    .filter_map(|first| {
                        let diffs: Vec<f64> = submit
                            .iter()
                            .zip(staged)
                            .skip(first)
                            .step_by(2)
                            .map(|(a, b)| a.0 - b.0)
                            .collect();
                        (!diffs.is_empty()).then(|| crate::stats::median(&diffs))
                    })
                    .collect();
                crate::stats::mean(&by_order)
            })
            .collect();
        crate::stats::mean(&per_query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn submit_beyond_staged_cancels_phases_and_running_order() {
        // Every query: submit takes 0.25 ms more than staged; the one that
        // runs second saves 0.5 ms; the host is twice as slow in passes 2
        // and 3 (staged goes first in even passes).
        let mut d = Dissection::default();
        for pass in 0..6 {
            let slow = if pass == 2 || pass == 3 { 2.0 } else { 1.0 };
            let (staged, submit) = if pass % 2 == 0 {
                (10.0, 10.25 - 0.5)
            } else {
                (10.0 - 0.5, 10.25)
            };
            for q in 0..6 {
                d.samples.entry("staged").or_default()[q].push((staged * slow, 0.0));
                d.samples.entry("whole.submit").or_default()[q].push((submit * slow, 0.0));
            }
        }
        assert_eq!(d.submit_beyond_staged_ms(), 0.25);
        assert_eq!(Dissection::default().submit_beyond_staged_ms(), 0.0);
    }

    #[test]
    fn a_pass_records_every_stage_and_cleans_up() {
        let w = workload::find("td3_overhead").unwrap();
        let fed = Federation::build(w).unwrap();
        let mut verifier = Verifier::new(&fed).unwrap();
        let mut rec = Recorder::new();
        let mut d = Dissection::default();
        d.pass(&fed, &mut verifier, &mut rec);
        d.pass(&fed, &mut verifier, &mut rec);
        assert_eq!((d.attempted, d.failed), (12, 0));
        assert_eq!(fed.leaked_objects(), 0);
        let others = [
            "staged",
            "whole.plan",
            "whole.submit",
            "obs.critical_path",
            "step.ddl",
            "step.root_query",
            "step.cleanup",
            "wire.encode",
            "wire.decode",
            "local.query",
        ];
        for name in STAGES.iter().chain(&others) {
            let per_query = d.ms_per_query(name);
            assert!(
                per_query.iter().all(|ms| *ms > 0.0),
                "{name}: {per_query:?}"
            );
        }
        // Streamed edges by default: nothing is materialised.
        assert_eq!(d.ms("step.ctas"), 0.0);
        // The stages are the children of `staged`: they cannot exceed it.
        let stages: f64 = STAGES.iter().map(|n| d.ms(n)).sum();
        assert!(
            stages <= d.ms("staged") * 1.05,
            "{stages} vs {}",
            d.ms("staged")
        );
        assert!(d.allocs("whole.submit") > d.allocs("whole.plan"));
        assert!(d.encode_raw_bytes > 0 && d.encode_s > 0.0 && d.decode_s > 0.0);
    }
}
