//! One run of one workload: set-up, warm-up, measured rounds, metrics.
//!
//! Closed loop, one client thread: the next operation is submitted when
//! the previous one has returned. The library's own scoped threads
//! (partition-parallel kernels, the edge reactor, the parallel script
//! executor) all run, on the one CPU the process pins itself to.

use crate::alloc::{self, Counts};
use crate::dissect::{self, Dissection};
use crate::harness::{Federation, LedgerTotals, Verifier, CLIENT_NODE};
use crate::host;
use crate::refkernel::{self, RefKernel};
use crate::spans::Recorder;
use crate::stats::{self, Rng};
use crate::workload::{self, Mode, Op, Workload, QUERIES};
use std::path::PathBuf;
use std::time::Instant;
use xdb_core::{
    PhaseBreakdown, QueryOutcome, QueryServer, SessionOptions, SessionReport, Submission, Xdb,
};
use xdb_engine::error::Result;
use xdb_engine::relation::Relation;
use xdb_obs::QueryTrace;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (`--trace 0`) or the per-layer metrics
    /// (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Printed beside the metrics, not gated.
    pub extras: Vec<Metric>,
    /// What two result files must share to be comparable.
    pub env: Vec<(&'static str, String)>,
    pub span_file: Option<PathBuf>,
}

/// Wall, CPU and allocation cost of one timed region.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    counts: Counts,
}

/// Time `f`: wall clock, CPU of all threads, allocations of all threads.
fn timed<T>(f: impl FnOnce() -> T) -> (Sample, T) {
    let counts = Counts::now();
    let cpu = host::process_cpu_s();
    let wall = Instant::now();
    let out = f();
    let sample = Sample {
        wall_s: wall.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_s() - cpu,
        counts: Counts::now().since(counts),
    };
    (sample, out)
}

/// One run of the reference kernel: wall and thread-CPU seconds.
fn kernel_run(kernel: &RefKernel) -> (f64, f64) {
    let cpu = host::thread_cpu_s();
    let wall = Instant::now();
    let sum = alloc::uncounted(|| kernel.run());
    let sample = (wall.elapsed().as_secs_f64(), host::thread_cpu_s() - cpu);
    assert_eq!(sum, refkernel::CHECKSUM, "the reference kernel is frozen");
    sample
}

/// What the operations of a round returned.
enum Done {
    Submit(Vec<Result<QueryOutcome>>),
    /// One report per scheduling window.
    Session(Vec<Result<SessionReport>>),
}

/// The client: the calls a round makes into the library.
enum Client<'a> {
    Submit(Xdb<'a>),
    Session(QueryServer<'a>),
}

impl<'a> Client<'a> {
    fn new(fed: &'a Federation, mode: Mode, fold: bool) -> Client<'a> {
        match mode {
            Mode::Submit => Client::Submit(
                Xdb::new(&fed.cluster, &fed.catalog)
                    .with_client_node(CLIENT_NODE)
                    .with_options(fed.options.clone()),
            ),
            Mode::Session => Client::Session(
                QueryServer::new(
                    &fed.cluster,
                    &fed.catalog,
                    SessionOptions {
                        xdb: fed.options.clone(),
                        fold,
                        window: workload::WINDOW,
                    },
                )
                .with_client_node(CLIENT_NODE),
            ),
        }
    }

    /// Run one round. `first_op` numbers the round's operations; with a
    /// recorder, every call into the library gets a span.
    fn round(&self, ops: &[Op], first_op: u32, mut rec: Option<&mut Recorder>) -> (Sample, Done) {
        match self {
            Client::Submit(xdb) => {
                let mut out = Vec::with_capacity(ops.len());
                let (sample, ()) = timed(|| {
                    for (i, op) in ops.iter().enumerate() {
                        let sql = QUERIES[op.query].sql();
                        out.push(match rec.as_deref_mut() {
                            None => xdb.submit(sql),
                            Some(rec) => {
                                rec.scope("submit", first_op + i as u32, |_| xdb.submit(sql))
                            }
                        });
                    }
                });
                (sample, Done::Submit(out))
            }
            Client::Session(server) => {
                let windows: Vec<Vec<Submission>> = ops
                    .chunks(workload::WINDOW)
                    .map(|window| {
                        window
                            .iter()
                            .map(|op| {
                                Submission::new(
                                    format!("tenant-{:02}", op.tenant),
                                    QUERIES[op.query].sql(),
                                )
                            })
                            .collect()
                    })
                    .collect();
                let mut out = Vec::with_capacity(windows.len());
                let (sample, ()) = timed(|| {
                    for (i, window) in windows.iter().enumerate() {
                        let op = first_op + (i * workload::WINDOW) as u32;
                        out.push(match rec.as_deref_mut() {
                            None => server.run(window),
                            Some(rec) => rec.scope("window", op, |_| server.run(window)),
                        });
                    }
                });
                (sample, Done::Session(out))
            }
        }
    }
}

/// Counts read off the results of the measured rounds, for the per-layer
/// metrics.
#[derive(Default)]
struct LayerCounts {
    consult_hits: u64,
    consult_misses: u64,
    consult_roundtrips: u64,
    ddl_statements: u64,
    sim_work_ms: f64,
    rows_out: u64,
    spans: u64,
    windows: u64,
    full_folds: u64,
    fold_hits: u64,
    fragments_deployed: u64,
    plan_cache_hits: u64,
    consult_probes: u64,
    session_ddl: u64,
}

/// Everything a run accumulates outside the timed regions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Simulated `breakdown.total_ms()` of every measured query, by query.
    sim_ms: [Vec<f64>; 6],
    measured_queries: u64,
    ledger: LedgerTotals,
    leaked: u64,
    layers: LayerCounts,
}

impl Tally {
    /// Check one result and, if the round is `counted`, read its numbers.
    /// Rounds that are not counted (warm-up, folding off) are compared
    /// with the oracle in full.
    fn one(
        &mut self,
        verifier: &mut Verifier,
        counted: bool,
        query: usize,
        relation: &Relation,
        breakdown: &PhaseBreakdown,
        trace: &QueryTrace,
    ) {
        let ok = if counted {
            verifier.check(query, relation)
        } else {
            verifier.check_full(query, relation)
        };
        if !ok {
            eprintln!(
                "{}: result differs from the oracle's",
                QUERIES[query].name()
            );
            self.failed += 1;
        }
        if !counted {
            return;
        }
        self.measured_queries += 1;
        self.sim_ms[query].push(breakdown.total_ms());
        let l = &mut self.layers;
        l.consult_hits += breakdown.consult_cache_hits;
        l.consult_misses += breakdown.consult_cache_misses;
        l.spans += trace.spans.len() as u64;
        l.rows_out += relation.len() as u64;
        l.sim_work_ms += trace
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("node.") && k.ends_with(".work_ms"))
            .map(|(_, v)| *v)
            .sum::<f64>();
    }

    /// Between rounds, outside the timed region: verify the results, read
    /// and clear the ledger, look for leaked objects.
    fn settle(
        &mut self,
        fed: &Federation,
        verifier: &mut Verifier,
        mut plans: Option<&mut Dissection>,
        counted: bool,
        ops: &[Op],
        done: Done,
    ) {
        self.attempted += ops.len() as u64;
        match done {
            Done::Submit(outcomes) => {
                for (op, outcome) in ops.iter().zip(outcomes) {
                    let o = match outcome {
                        Ok(o) => o,
                        Err(e) => {
                            eprintln!("{}: {e}", QUERIES[op.query].name());
                            self.failed += 1;
                            continue;
                        }
                    };
                    self.one(
                        verifier,
                        counted,
                        op.query,
                        &o.relation,
                        &o.breakdown,
                        &o.trace,
                    );
                    if !counted {
                        continue;
                    }
                    self.layers.consult_roundtrips += o.consult_roundtrips;
                    self.layers.ddl_statements += o.ddl_count as u64;
                    if let Some(plans) = plans.as_deref_mut() {
                        plans.watch_plan(
                            op.query,
                            xdb_core::annotate::plan_fingerprint(&o.delegation),
                        );
                    }
                }
            }
            Done::Session(reports) => {
                for (window, report) in ops.chunks(workload::WINDOW).zip(reports) {
                    let report = match report {
                        Ok(r) if r.outcomes.len() == window.len() => r,
                        Ok(r) => {
                            eprintln!("window returned {} of {}", r.outcomes.len(), window.len());
                            self.failed += window.len() as u64;
                            continue;
                        }
                        Err(e) => {
                            eprintln!("window failed: {e}");
                            self.failed += window.len() as u64;
                            continue;
                        }
                    };
                    for (op, o) in window.iter().zip(&report.outcomes) {
                        self.one(
                            verifier,
                            counted,
                            op.query,
                            &o.relation,
                            &o.breakdown,
                            &o.trace,
                        );
                    }
                    if counted {
                        let l = &mut self.layers;
                        l.windows += report.windows;
                        l.full_folds += report.full_folds;
                        l.fold_hits += report.fold_hits;
                        l.fragments_deployed += report.fragments_deployed;
                        l.plan_cache_hits += report.plan_cache_hits;
                        l.consult_probes += report.consult_probes;
                        l.session_ddl += report.ddl_statements;
                    }
                }
            }
        }
        let records = fed.cluster.ledger.snapshot();
        fed.cluster.ledger.clear();
        if counted {
            self.ledger.add(&records);
        }
        let leaked = fed.leaked_objects();
        if leaked > 0 {
            eprintln!("{leaked} xdb_q* object(s) leaked");
            self.leaked += leaked;
            self.failed += leaked;
        }
    }
}

/// Sum over purposes of a per-purpose counter of the fleet registry.
fn registry_sum(fed: &Federation, name: &str) -> f64 {
    let metrics = &fed.cluster.telemetry().metrics;
    [
        xdb_net::Purpose::SubqueryResult,
        xdb_net::Purpose::InterDbmsPipeline,
        xdb_net::Purpose::Materialization,
        xdb_net::Purpose::FinalResult,
        xdb_net::Purpose::ControlMessage,
        xdb_net::Purpose::WorkerExchange,
    ]
    .iter()
    .map(|p| metrics.value(name, &[("purpose", p.label())]))
    .sum()
}

/// Set-ups per run. `setup_s` is their median: one set-up is a single
/// reading of the raw host clock, and one in five reads 20–60% high.
pub const SETUPS: usize = 3;

/// What the last set-up of a run hands to the measured rounds.
struct Ready<'a> {
    fed: &'a Federation,
    client: &'a Client<'a>,
    verifier: Verifier,
    kernel: &'a RefKernel,
    tally: Tally,
    /// The kernel run before the first measured round.
    first_ref: (f64, f64),
    setup_s: f64,
    warmup_s: f64,
    nproc: usize,
    pinned_cpu: Option<usize>,
    arenas_capped: bool,
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report> {
    let w = args.workload;
    let nproc = host::nproc();
    let arenas_capped = host::cap_malloc_arenas();
    let all_cpus = host::affinity();
    // Chosen once: the reactor's worker pool is started by the first
    // warm-up and stays on the CPU that set-up was pinned to.
    let pinned_cpu = host::current_cpu();
    let one_cpu = pinned_cpu.and_then(host::only);
    let kernel = RefKernel::new();
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    loop {
        // The first set-up is timed from process start. The federation of
        // the one before was dropped at the end of the loop body: tearing
        // down is not setting up.
        let started = if setups.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        // The federation is built while the process can see every core,
        // so the library resolves its thread defaults for the whole host
        // (partition-parallel kernels, reactor worker, parallel script
        // executor) and all of that code runs.
        if let Some(all) = &all_cpus {
            host::set_affinity(all);
        }
        let fed = Federation::build(w)?;
        let mut verifier = Verifier::new(&fed)?;
        // From here on everything runs on one CPU: a hand-off between
        // threads is a context switch, not a wake-up of the other vCPU.
        // That wake-up takes 6 or 37 µs on this host depending on a
        // hypervisor state that lasts minutes, which no single-threaded
        // reference kernel can see: unpinned, `td3_overhead` moved by 6%
        // between runs, pinned by 0.6%.
        let pinned = one_cpu.as_ref().is_some_and(host::set_affinity);
        let client = Client::new(&fed, w.mode, true);

        // Warm-up: a fixed seed, every result compared in full.
        let warm = Instant::now();
        let mut rng = Rng::new(workload::WARMUP_SEED);
        for _ in 0..workload::WARMUP_ROUNDS {
            let ops = w.round(&mut rng);
            let (_, done) = client.round(&ops, 0, None);
            tally.settle(&fed, &mut verifier, None, false, &ops, done);
        }
        let warmup_s = warm.elapsed().as_secs_f64();
        let first_ref = kernel_run(&kernel);
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            return Ok(measure(
                args,
                Ready {
                    fed: &fed,
                    client: &client,
                    verifier,
                    kernel: &kernel,
                    tally,
                    first_ref,
                    setup_s: stats::median(&setups),
                    warmup_s,
                    nproc,
                    pinned_cpu: pinned_cpu.filter(|_| pinned),
                    arenas_capped,
                },
            ));
        }
    }
}

/// The measured rounds of a run and its numbers.
fn measure(args: &Args, ready: Ready<'_>) -> Report {
    let Ready {
        fed,
        client,
        mut verifier,
        kernel,
        mut tally,
        first_ref,
        setup_s,
        warmup_s,
        nproc,
        pinned_cpu,
        arenas_capped,
    } = ready;
    let w = args.workload;
    let per_round = w.ops_per_round() as u32;

    // A traced run measures fewer rounds: its dissection passes take the
    // time the other rounds would.
    let rounds = if args.trace {
        (w.rounds(args.seconds) * 3 / 5).max(4) & !1
    } else {
        w.rounds(args.seconds)
    };
    let mut rec = Recorder::new();
    let mut dissection = Dissection::default();
    let chunks_before = registry_sum(fed, "net.chunks");
    let morsels_before = fed
        .cluster
        .telemetry()
        .metrics
        .value("sched.reactor_morsels", &[]);

    let mut refs = vec![first_ref];

    let mut rng = Rng::new(args.seed);
    let mut samples: Vec<Sample> = Vec::with_capacity(rounds);
    let mut traced_rounds = 0u32;
    for i in 0..rounds {
        let ops = w.round(&mut rng);
        // Plain and traced rounds alternate in one process.
        let traced = args.trace && i % 2 == 1;
        let first_op = i as u32 * per_round;
        let (sample, done) = client.round(&ops, first_op, traced.then_some(&mut rec));
        samples.push(sample);
        let plans = args.trace.then_some(&mut dissection);
        tally.settle(fed, &mut verifier, plans, true, &ops, done);
        if traced {
            traced_rounds += 1;
            // After the first traced round and every third one from there.
            if traced_rounds % 3 == 1 {
                dissection.pass(fed, &mut verifier, &mut rec);
                // Dissection traffic is not the workload's.
                fed.cluster.ledger.clear();
            }
        }
        refs.push(kernel_run(kernel));
    }
    let chunks = registry_sum(fed, "net.chunks") - chunks_before;
    let morsels = fed
        .cluster
        .telemetry()
        .metrics
        .value("sched.reactor_morsels", &[])
        - morsels_before;

    // ---- the numbers.
    let queries = tally.measured_queries.max(1) as f64;
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let ref_walls: Vec<f64> = refs.iter().map(|r| r.0).collect();
    let ref_cpus: Vec<f64> = refs.iter().map(|r| r.1).collect();
    let ratios = stats::normalise(&walls, &ref_walls);
    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let cpu_ratios = stats::normalise(&cpus, &ref_cpus);
    // End-to-end metrics always come from untraced rounds.
    let plain = |values: &[f64]| -> Vec<f64> {
        values
            .iter()
            .enumerate()
            .filter(|(i, _)| !(args.trace && i % 2 == 1))
            .map(|(_, v)| *v)
            .collect()
    };
    let plain_ratios = stats::sorted(&plain(&ratios));
    let plain_walls = stats::sorted(&plain(&walls));
    let round_ref_p50 = stats::quantile(&plain_ratios, 0.5);
    let round_ref_p90 = stats::quantile(&plain_ratios, 0.9);
    let round_ms_p50 = stats::quantile(&plain_walls, 0.5) * 1e3;
    let round_ms_p90 = stats::quantile(&plain_walls, 0.9) * 1e3;
    let ref_ms_p50 = stats::median(&ref_walls) * 1e3;
    let sim_ms_total: f64 = tally.sim_ms.iter().map(|v| stats::order_free_sum(v)).sum();
    let allocs: u64 = samples.iter().map(|s| s.counts.allocs).sum();
    let alloc_bytes: u64 = samples.iter().map(|s| s.counts.bytes).sum();
    let cpu_total: f64 = cpus.iter().sum();
    let round_cpu_ref_p50 = stats::median(&plain(&cpu_ratios));
    let queries_per_s = f64::from(per_round) / (round_ms_p50 / 1e3);

    let extras = vec![
        metric("bench.ref_ms_p50", ref_ms_p50, "ms"),
        metric("bench.round_ms_p50", round_ms_p50, "ms"),
        metric("bench.queries_per_s", queries_per_s, "1/s"),
        metric("bench.round_cpu_ref_p50", round_cpu_ref_p50, "ref"),
    ];
    let env = vec![
        ("workload", w.name.to_string()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("setups", SETUPS.to_string()),
        ("rounds", rounds.to_string()),
        ("ops_per_round", per_round.to_string()),
        ("scale_factor", w.sf.to_string()),
        ("nproc", nproc.to_string()),
        (
            "pinned_cpu",
            pinned_cpu.map_or("none".to_string(), |c| c.to_string()),
        ),
        (
            "malloc_arenas",
            if arenas_capped {
                host::MALLOC_ARENAS.to_string()
            } else {
                "default".to_string()
            },
        ),
        ("reactor_threads", fed.options.reactor_threads.to_string()),
        (
            "stream_chunk_rows",
            fed.options.stream_chunk_rows.to_string(),
        ),
        ("learned_costs", fed.options.learned_costs.to_string()),
        ("commit", host::commit()),
    ];

    let mut span_file = None;
    let metrics = if !args.trace {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("round_ref_p50", round_ref_p50, "ref"),
            metric("round_ref_p90", round_ref_p90, "ref"),
            metric("sim_ms_per_query", sim_ms_total / queries, "sim_ms"),
            metric(
                "wire_kb_per_query",
                tally.ledger.encoded as f64 / 1024.0 / queries,
                "KB",
            ),
            metric("allocs_per_query", allocs as f64 / queries, "count"),
            metric(
                "alloc_kb_per_query",
                alloc_bytes as f64 / 1024.0 / queries,
                "KB",
            ),
            metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        ]
    } else {
        // `session.fold_speedup`: a few rounds with folding off.
        let mut fold_speedup = 0.0;
        if w.mode == Mode::Session {
            let unfolded = Client::new(fed, w.mode, false);
            let mut walls = Vec::new();
            let mut krefs = vec![kernel_run(kernel).0];
            for _ in 0..3 {
                let ops = w.round(&mut rng);
                let (sample, done) = unfolded.round(&ops, 0, None);
                walls.push(sample.wall_s);
                tally.settle(fed, &mut verifier, None, false, &ops, done);
                krefs.push(kernel_run(kernel).0);
            }
            fold_speedup = stats::median(&stats::normalise(&walls, &krefs)) / round_ref_p50;
        }
        let traced_ratios: Vec<f64> = ratios.iter().skip(1).step_by(2).copied().collect();
        let d = &dissection;
        let l = &tally.layers;
        let quarter = (plain_ratios.len() / 4).max(1);
        let in_order = plain(&ratios);
        let drift_pct = 100.0
            * (stats::median(&in_order[in_order.len() - quarter..])
                / stats::median(&in_order[..quarter])
                - 1.0);
        let staged_ms = d.ms("staged");
        let stage_sum: f64 = dissect::STAGES.iter().map(|s| d.ms(s)).sum();
        let submit_ms = d.ms("whole.submit");
        // Data work is the script's execution less its DDL statements;
        // everything else a submit does is per-query fixed cost.
        let data_ms = d.ms("stage.run_script") - d.ms("step.ddl");
        let windows: Vec<f64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "window")
            .map(|s| s.ms())
            .collect();
        let window_ms = if windows.is_empty() {
            0.0
        } else {
            stats::median(&windows)
        };
        // The round's multiset on the local engine, from per-query medians.
        let mut mix = [0.0f64; 6];
        for op in w.round(&mut Rng::new(0)) {
            mix[op.query] += 1.0;
        }
        let weighted =
            |per_query: [f64; 6]| -> f64 { per_query.iter().zip(mix).map(|(v, n)| v * n).sum() };
        let local_round_ms = weighted(d.ms_per_query("local.query"));
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let per_query = |n: u64| n as f64 / queries;
        let per_window = |n: u64| n as f64 / l.windows.max(1) as f64;
        let kb = |bytes: u64| bytes as f64 / 1024.0 / queries;
        let ms = |name: &'static str, span: &str| metric(name, d.ms(span), "ms");
        let count = |name: &'static str, value: f64| metric(name, value, "count");
        let ledger = &tally.ledger;
        let sql_allocs =
            d.allocs("stage.parse") + d.allocs("stage.bind") + d.allocs("stage.optimize");
        let consult_probes = l.consult_hits + l.consult_misses;
        let trace_overhead_pct = 100.0 * (stats::median(&traced_ratios) / round_ref_p50 - 1.0);
        span_file = write_spans(&rec, w.name, args.seed);
        vec![
            ms("sql.parse_ms", "stage.parse"),
            ms("sql.bind_ms", "stage.bind"),
            ms("sql.optimize_ms", "stage.optimize"),
            count("sql.plan_nodes", stats::mean(&d.plan_nodes)),
            count("sql.allocs", sql_allocs),
            ms("core.consult_ms", "stage.consult"),
            metric(
                "core.consult_hit_ratio",
                ratio(l.consult_hits as f64, consult_probes as f64),
                "ratio",
            ),
            count("core.consult_roundtrips", per_query(l.consult_roundtrips)),
            ms("core.annotate_ms", "stage.annotate"),
            count("core.candidates_costed", stats::mean(&d.candidates_costed)),
            ms("core.build_script_ms", "stage.build_script"),
            ms("core.plan_ms", "whole.plan"),
            count("core.plan_allocs", d.allocs("whole.plan")),
            count("core.tasks", stats::mean(&d.tasks)),
            count("core.edges", stats::mean(&d.edges)),
            count(
                "core.ddl_statements",
                per_query(l.ddl_statements + l.session_ddl),
            ),
            count("core.plan_flips", d.plan_flips as f64),
            ms("core.run_script_ms", "stage.run_script"),
            ms("core.cleanup_ms", "stage.cleanup"),
            metric("core.submit_ms", submit_ms, "ms"),
            metric("core.submit_self_ms", d.submit_beyond_staged_ms(), "ms"),
            count("core.submit_allocs", d.allocs("whole.submit")),
            metric("session.window_ms", window_ms, "ms"),
            count("session.full_folds", per_window(l.full_folds)),
            count("session.fold_hits", per_window(l.fold_hits)),
            metric("session.fold_ratio", per_query(l.full_folds), "ratio"),
            count(
                "session.fragments_deployed",
                per_window(l.fragments_deployed),
            ),
            count("session.plan_cache_hits", per_window(l.plan_cache_hits)),
            count("session.consult_probes", per_window(l.consult_probes)),
            count("session.ddl_statements", per_window(l.session_ddl)),
            metric("session.fold_speedup", fold_speedup, "ratio"),
            ms("engine.root_query_ms", "step.root_query"),
            metric(
                "engine.ddl_ms",
                d.ms("step.ddl") + d.ms("step.cleanup"),
                "ms",
            ),
            ms("engine.ctas_ms", "step.ctas"),
            metric("engine.local_round_ms", local_round_ms, "ms"),
            count(
                "engine.local_allocs",
                weighted(d.allocs_per_query("local.query")) / f64::from(per_round),
            ),
            metric("engine.sim_work_ms", l.sim_work_ms / queries, "sim_ms"),
            count("engine.rows_out", per_query(l.rows_out)),
            count("engine.objects_leaked", tally.leaked as f64),
            ms("net.wire_encode_ms", "wire.encode"),
            ms("net.wire_decode_ms", "wire.decode"),
            metric(
                "net.wire_encode_mb_s",
                ratio(d.encode_raw_bytes as f64 / 1e6, d.encode_s),
                "MB/s",
            ),
            metric(
                "net.wire_decode_mb_s",
                ratio(d.encode_raw_bytes as f64 / 1e6, d.decode_s),
                "MB/s",
            ),
            metric("net.raw_kb", kb(ledger.raw), "KB"),
            metric("net.encoded_kb", kb(ledger.encoded), "KB"),
            metric(
                "net.compression_ratio",
                ratio(ledger.raw as f64, ledger.encoded as f64),
                "ratio",
            ),
            metric("net.implicit_kb", kb(ledger.implicit), "KB"),
            metric("net.explicit_kb", kb(ledger.explicit), "KB"),
            metric("net.control_kb", kb(ledger.control), "KB"),
            count("net.transfers", per_query(ledger.transfers)),
            count("net.chunks", chunks / queries),
            count("net.reactor_morsels", morsels / queries),
            ms("obs.trace_finish_ms", "stage.trace_finish"),
            ms("obs.critical_path_ms", "obs.critical_path"),
            count("obs.spans_per_query", per_query(l.spans)),
            metric("tpch.build_cluster_s", fed.build_cluster_s, "s"),
            count("tpch.rows_loaded", fed.rows_loaded as f64),
            metric("bench.ref_ms_p50", ref_ms_p50, "ms"),
            metric("bench.ref_cv_pct", stats::cv_pct(&ref_walls), "%"),
            metric("bench.round_ms_p50", round_ms_p50, "ms"),
            metric("bench.round_ms_p90", round_ms_p90, "ms"),
            metric("bench.queries_per_s", queries_per_s, "1/s"),
            metric("bench.round_cpu_ref_p50", round_cpu_ref_p50, "ref"),
            metric("bench.cpu_ms_per_query", cpu_total * 1e3 / queries, "ms"),
            metric(
                "bench.round_vs_local",
                ratio(round_ms_p50, local_round_ms),
                "ratio",
            ),
            metric("bench.warmup_s", warmup_s, "s"),
            metric("bench.drift_pct", drift_pct, "%"),
            metric("bench.trace_overhead_pct", trace_overhead_pct, "%"),
            metric(
                "bench.accounted_pct",
                100.0 * ratio(stage_sum, staged_ms),
                "%",
            ),
            metric(
                "bench.fixed_cost_share_pct",
                100.0 * ratio(submit_ms - data_ms, submit_ms),
                "%",
            ),
        ]
    };

    let failed = tally.failed + dissection.failed;
    Report {
        correct: failed == 0,
        attempted: tally.attempted + dissection.attempted,
        failed,
        metrics,
        extras,
        env,
        span_file,
    }
}

/// Write the span file of a traced run under `benchmark/out/`.
fn write_spans(rec: &Recorder, workload: &str, seed: u64) -> Option<PathBuf> {
    let dir = PathBuf::from("benchmark/out");
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_jsonl()));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            None
        }
    }
}
