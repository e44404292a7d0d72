//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro all                      # everything (EXPERIMENTS.md is this output)
//! repro fig1|fig9|fig10|fig11|fig12|fig13|fig14|fig15
//! repro table2|table3|table4
//! repro ablations
//! repro --sf 0.05 fig9           # override the default scale factor
//! repro --out report.txt all     # write the report to a file
//! repro --trace out.json fig9    # also emit a Chrome-trace JSON of the
//!                                # six-query TD1 workload (open in
//!                                # chrome://tracing or ui.perfetto.dev)
//! repro --log events.jsonl fig9  # export the structured event log of the
//!                                # run as JSON lines
//! repro monitor --runs 3         # fleet workload monitor: per-query ×
//!                                # per-deployment latency/bytes/cache
//!                                # dashboard; --metrics prom.txt and
//!                                # --json monitor.json add Prometheus
//!                                # and JSON exports (the JSON also
//!                                # carries the tenants/... gate series)
//! repro tenants --tenants 8 --runs 2
//!                                # multi-tenant admission benchmark:
//!                                # folded vs unfolded arms over a skewed
//!                                # TD1 mix; --digest P writes per-tenant
//!                                # result digests to P.folded.txt /
//!                                # P.unfolded.txt (must compare equal)
//! repro gate --monitor-baseline BENCH_monitor.json
//!                                # regression gate: exit 1 on threshold
//!                                # breach (scripts/bench_gate.sh)
//! repro profile                  # critical-path bottleneck table over
//!                                # the six TD1 queries
//! repro calibrate --runs 2       # cost-model observatory: predicted-vs-
//!                                # observed calibration error per engine/
//!                                # codec/edge shape + per-query placement
//!                                # regret (--td 1|2|3 picks the table
//!                                # distribution)
//! repro drift --baseline dir/ --current dir/ [--band PCT] [--flip-rate PCT]
//!                                # performance-drift detection between
//!                                # two history stores: exit 1 on plan
//!                                # flips, changed answers, latency drift,
//!                                # critical-path composition shifts, or
//!                                # cost-model calibration drift; --flip-rate
//!                                # tolerates that share of plan flips
//!                                # between learned-cost histories
//! repro replay [--profiles dir/] [--td 1|2|3]
//!                                # learned-vs-static cost-model replay:
//!                                # re-annotate the workload under both
//!                                # pricing modes, report every plan flip
//!                                # with predicted + measured deltas; the
//!                                # learned arm prices against the store
//!                                # rebuilt from dir/history.jsonl (no
//!                                # other target takes --profiles)
//! repro --history dir/ profile   # record query history (JSON lines) to
//!                                # dir/history.jsonl: every record the
//!                                # figure, ablation, table4, monitor,
//!                                # profile, calibrate, replay, gate and
//!                                # --trace runs return (a usage error
//!                                # beside targets that submit nothing)
//! repro --log-level warn fig9    # event-log record-time filter
//! ```

use std::io::Write;
use std::sync::Arc;
use xdb_bench::experiments as exp;
use xdb_bench::{calibrate, drift, gate, monitor, profiler, replay, tenants};
use xdb_obs::Telemetry;
use xdb_tpch::{TableDist, TpchQuery};

fn main() {
    // The one telemetry handle every federation of this run reports into:
    // what `--log`, `--history` and `--log-level` act on.
    let telemetry = Telemetry::new_handle();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sf = 0.05f64;
    let mut runs = 3usize;
    let mut tenant_count = 8usize;
    let mut digest_path: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut log_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut monitor_baseline: Option<String> = None;
    let mut history_dir: Option<String> = None;
    let mut log_level: Option<String> = None;
    let mut drift_baseline: Option<String> = None;
    let mut drift_current: Option<String> = None;
    let mut drift_band = drift::DEFAULT_NOISE_PCT;
    let mut flip_rate: Option<f64> = None;
    let mut profiles_dir: Option<String> = None;
    let mut calibrate_td = TableDist::Td1;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(format!("{a} takes {what}")))
        };
        match a.as_str() {
            "--sf" => sf = number(&a, value("a number")),
            "--runs" => runs = number(&a, value("a number")),
            "--tenants" => tenant_count = number(&a, value("a number")),
            "--digest" => digest_path = Some(value("a path prefix")),
            "--trace" => trace_path = Some(value("a file path")),
            "--out" => out_path = Some(value("a file path")),
            "--log" => log_path = Some(value("a file path")),
            "--metrics" => metrics_path = Some(value("a file path")),
            "--json" => json_path = Some(value("a file path")),
            "--monitor-baseline" => monitor_baseline = Some(value("a file path")),
            "--history" => history_dir = Some(value("a directory")),
            "--log-level" => log_level = Some(value("debug|info|warn|error")),
            "--td" => {
                calibrate_td = match value("1|2|3").as_str() {
                    "1" | "td1" => TableDist::Td1,
                    "2" | "td2" => TableDist::Td2,
                    "3" | "td3" => TableDist::Td3,
                    other => usage(format!("--td takes 1|2|3, got {other:?}")),
                };
            }
            "--baseline" => drift_baseline = Some(value("a directory")),
            "--current" => drift_current = Some(value("a directory")),
            "--band" => drift_band = number(&a, value("a number")),
            "--flip-rate" => flip_rate = Some(number(&a, value("a number"))),
            "--profiles" => profiles_dir = Some(value("a history directory")),
            _ => targets.push(a.to_ascii_lowercase()),
        }
    }
    // A learned store is the input of `replay`'s learned arm; every other
    // target builds its catalogs with an empty store.
    if profiles_dir.is_some()
        && (trace_path.is_some() || targets.is_empty() || targets.iter().any(|t| t != "replay"))
    {
        usage("--profiles feeds `replay` only (repro --profiles dir replay)");
    }
    // Only a target that submits through the workload runner, and
    // `--trace`, append records; an admission returns none.
    if history_dir.is_some()
        && trace_path.is_none()
        && !targets
            .iter()
            .any(|t| RECORDING.split_whitespace().any(|r| r == t))
    {
        usage(
            "--history records what a figure, table4, ablations, monitor, profile, \
             calibrate, replay, gate or --trace submits; table2, table3, tenants and \
             drift append none",
        );
    }
    // Record-time event filter: events below the level are never retained
    // (they are dropped in `EventLog::log`, not at export).
    if let Some(s) = log_level {
        match xdb_obs::Level::parse(&s) {
            Some(level) => telemetry.events.set_min_level(level),
            None => usage(format!("unknown log level {s:?} (debug|info|warn|error)")),
        }
    }
    // Query-history store: each record a runner gets back from a submit is
    // stamped with its label and appended, one JSON line, to
    // <dir>/history.jsonl.
    if let Some(dir) = history_dir {
        if let Err(e) = telemetry.history.enable_dir(&dir) {
            usage(format!("cannot open history dir {dir}: {e}"));
        }
        eprintln!("(history: recording to {dir}/history.jsonl)");
    }
    // Learned cost profiles: aggregate a recorded workload's history into
    // per-(engine, edge-shape) pricing factors for `replay`'s learned arm.
    let mut loaded_profiles: Option<xdb_core::CostProfiles> = None;
    let mut profile_source = String::from("(workload self-calibration)");
    if let Some(dir) = &profiles_dir {
        match xdb_core::CostProfiles::from_history_dir(dir) {
            Ok(p) => {
                eprintln!("(profiles: {} from {dir})", p.describe());
                profile_source = dir.clone();
                loaded_profiles = Some(p);
            }
            Err(e) => usage(format!("cannot load cost profiles from {dir}: {e}")),
        }
    }
    if targets.iter().any(|t| t == "gate") {
        run_gate(monitor_baseline, &telemetry);
        return;
    }
    if targets.iter().any(|t| t == "drift") {
        run_drift(drift_baseline, drift_current, drift_band, flip_rate);
        return;
    }
    if targets.is_empty() && trace_path.is_none() {
        fail(
            "usage: repro [--sf X] [--out report.txt] [--trace out.json] [--log events.jsonl] \
             <all|fig1|fig9|fig10|fig11|fig12|fig13|fig14|fig15|table2|table3|table4|ablations>\n\
             \x20      repro [--sf X] [--runs N] [--metrics prom.txt] [--json monitor.json] monitor\n\
             \x20      repro [--sf X] [--runs R] [--tenants N] [--digest prefix] tenants\n\
             \x20      repro gate --monitor-baseline B\n\
             \x20      repro [--sf X] [--history dir] profile\n\
             \x20      repro [--sf X] [--runs N] [--td 1|2|3] calibrate\n\
             \x20      repro [--sf X] [--td 1|2|3] [--profiles dir] replay\n\
             \x20      repro drift --baseline dir --current dir [--band PCT] [--flip-rate PCT]",
        );
    }
    let mut out: Box<dyn Write> = match &out_path {
        Some(path) => Box::new(
            std::fs::File::create(path)
                .unwrap_or_else(|e| usage(format!("cannot create --out file {path}: {e}"))),
        ),
        None => Box::new(std::io::stdout()),
    };
    let all = targets.iter().any(|t| t == "all");
    let want = |name: &str| all || targets.iter().any(|t| t == name);
    let t0 = std::time::Instant::now();

    if want("table2") {
        writeln!(out, "== Table II: system characteristics ==").unwrap();
        write!(out, "{}", xdb_core::characteristics::render_table()).unwrap();
        writeln!(out).unwrap();
    }
    if want("table3") {
        writeln!(out, "== Table III: table distributions ==").unwrap();
        write!(out, "{}", xdb_tpch::distributions::render_table3()).unwrap();
        writeln!(out).unwrap();
    }
    if want("fig1") {
        let fig = exp::fig01(sf / 5.0, sf, &telemetry).expect("fig1");
        writeln!(out, "{}", fig.render()).unwrap();
    }
    if want("fig9") {
        for td in TableDist::ALL {
            let fig = exp::fig09(td, sf, &telemetry).expect("fig9");
            writeln!(out, "{}", fig.render()).unwrap();
        }
    }
    if want("fig10") {
        let fig = exp::fig10(sf, &telemetry).expect("fig10");
        writeln!(out, "{}", fig.render()).unwrap();
    }
    if want("fig11") {
        let fig = exp::fig11(sf, &telemetry).expect("fig11");
        writeln!(out, "{}", fig.render()).unwrap();
    }
    if want("table4") {
        writeln!(out, "{}", exp::table4(sf, &telemetry).expect("table4")).unwrap();
    }
    if want("fig12") {
        let sfs = [sf / 10.0, sf / 2.0, sf, sf * 2.0];
        for fig in exp::fig12(&sfs, &telemetry).expect("fig12") {
            writeln!(out, "{}", fig.render()).unwrap();
        }
    }
    if want("fig13") {
        let sfs = [sf / 10.0, sf / 2.0, sf, sf * 2.0];
        let fig = exp::fig13(&sfs, &telemetry).expect("fig13");
        writeln!(out, "{}", fig.render()).unwrap();
    }
    if want("fig14") {
        for td in [TableDist::Td1, TableDist::Td2] {
            let fig = exp::fig14(td, sf, &telemetry).expect("fig14");
            writeln!(out, "{}", fig.render()).unwrap();
        }
    }
    if want("fig15") {
        let sfs = [sf / 10.0, sf / 2.0, sf, sf * 2.0];
        let fig = exp::fig15(TpchQuery::Q3, TableDist::Td1, &sfs, &telemetry).expect("fig15a");
        writeln!(out, "{}", fig.render()).unwrap();
        let fig = exp::fig15(TpchQuery::Q8, TableDist::Td3, &sfs, &telemetry).expect("fig15b");
        writeln!(out, "{}", fig.render()).unwrap();
    }
    if want("ablations") {
        let fig = exp::ablation_movement(sf, &telemetry).expect("a1");
        writeln!(out, "{}", fig.render()).unwrap();
        let fig = exp::ablation_pruning(sf, &telemetry).expect("a2");
        writeln!(out, "{}", fig.render()).unwrap();
        let fig = exp::ablation_logical(sf, &telemetry).expect("a3");
        writeln!(out, "{}", fig.render()).unwrap();
        let fig = exp::ablation_bushy(sf, &telemetry).expect("a4");
        writeln!(out, "{}", fig.render()).unwrap();
    }
    // `monitor` is deliberately not part of `all`: it re-runs the whole
    // workload N times and has its own output formats.
    if targets.iter().any(|t| t == "monitor") {
        let report = monitor::run_monitor(sf, runs, &telemetry).expect("monitor workload");
        write!(out, "{}", report.render_dashboard()).unwrap();
        if let Some(path) = &metrics_path {
            write_file("--metrics", path, report.render_prometheus());
            eprintln!("(metrics: Prometheus exposition -> {path})");
        }
        if let Some(path) = &json_path {
            // The monitor JSON doubles as the regression-gate baseline;
            // ride the multi-tenant admission series along so the gate
            // covers plan folding too.
            let tr =
                tenants::run_tenants(sf, tenant_count, runs, &telemetry).expect("tenants workload");
            let json = report.to_json_with(
                &[
                    ("tenants", tenant_count as f64),
                    ("tenant_rounds", runs as f64),
                ],
                &tr.flat_values(),
            );
            write_file("--json", path, json);
            eprintln!("(monitor JSON incl. tenant series -> {path})");
        }
    }
    // `calibrate` is likewise not part of `all`: it re-runs the six-query
    // workload with the cost-model observatory and has its own report.
    if targets.iter().any(|t| t == "calibrate") {
        let report = calibrate::run_calibrate(calibrate_td, sf, runs, &telemetry)
            .expect("calibrate workload");
        write!(out, "{}", report.render()).unwrap();
    }
    // `replay` is likewise not part of `all`: it re-annotates the workload
    // under static and learned pricing and reports every plan flip.  With
    // no --profiles directory it first runs the workload once with live
    // feedback enabled and replays against that self-calibrated store.
    if targets.iter().any(|t| t == "replay") {
        let profiles = match loaded_profiles {
            Some(p) => p,
            None => replay::learn_profiles(calibrate_td, sf, &telemetry)
                .expect("profile-learning workload"),
        };
        let store = if profiles.is_empty() {
            None
        } else {
            Some(profiles)
        };
        let report = replay::run_replay(
            calibrate_td,
            sf,
            store.as_ref(),
            &profile_source,
            &telemetry,
        )
        .expect("replay workload");
        write!(out, "{}", report.render()).unwrap();
    }
    // `profile` is likewise not part of `all`: it re-runs the six-query
    // workload and renders the critical paths its records carry.
    if targets.iter().any(|t| t == "profile") {
        let records = profiler::profile_workload(sf, &telemetry).expect("profile workload");
        write!(out, "{}", profiler::render_table(sf, &records)).unwrap();
    }
    // `tenants` is likewise not part of `all`: it runs the whole skewed
    // mix twice (folded + unfolded) and has its own digest export.
    if targets.iter().any(|t| t == "tenants") {
        let report =
            tenants::run_tenants(sf, tenant_count, runs, &telemetry).expect("tenants workload");
        write!(out, "{}", report.render_dashboard()).unwrap();
        if let Some(prefix) = &digest_path {
            let fp = format!("{prefix}.folded.txt");
            let up = format!("{prefix}.unfolded.txt");
            write_file("--digest", &fp, report.folded.digest());
            write_file("--digest", &up, report.unfolded.digest());
            eprintln!("(digests: {fp} / {up})");
        }
    }
    if let Some(path) = trace_path {
        let trace = exp::trace_workload(sf, &telemetry).expect("trace workload");
        write_file("--trace", &path, trace.to_chrome_json());
        eprintln!(
            "(trace: {} spans across {} lanes -> {path})",
            trace.spans.len(),
            trace.lanes().len()
        );
    }
    if let Some(path) = log_path {
        let events = telemetry.events.to_jsonl();
        let n = events.lines().count();
        write_file("--log", &path, events);
        eprintln!("(log: {n} structured events -> {path})");
    }
    out.flush().unwrap();
    eprintln!("(repro finished in {:.1?})", t0.elapsed());
}

/// The targets whose submits append history records.
const RECORDING: &str = "all fig1 fig9 fig10 fig11 fig12 fig13 fig14 fig15 table4 ablations \
                         monitor profile calibrate replay gate";

/// Bad input on the command line: say what was wrong and exit 2.
fn usage(message: impl std::fmt::Display) -> ! {
    fail(format!("repro: {message}"))
}

/// Print `message` to stderr and exit 2.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// The number `flag` was given, or a usage error naming both.
fn number<T: std::str::FromStr>(flag: &str, raw: String) -> T {
    raw.parse()
        .unwrap_or_else(|_| usage(format!("{flag} takes a number, got {raw:?}")))
}

/// Write the file `flag` names, or exit 2 naming the flag and the path.
fn write_file(flag: &str, path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        usage(format!("cannot write {flag} file {path}: {e}"));
    }
}

/// `repro gate`: re-run the deterministic monitor workload at the
/// baseline's own sf/runs and compare in-process; exit 1 when any gated
/// series regressed past its threshold.
fn run_gate(monitor_baseline: Option<String>, telemetry: &Arc<Telemetry>) {
    let Some(base_path) = monitor_baseline else {
        fail("gate: nothing to compare — pass --monitor-baseline")
    };
    let text = std::fs::read_to_string(&base_path)
        .unwrap_or_else(|e| fail(format!("gate: cannot read {base_path}: {e}")));
    let base = gate::parse_monitor_snapshot(&text)
        .unwrap_or_else(|e| fail(format!("gate: bad monitor baseline snapshot: {e}")));
    // Re-run at the baseline's own shape so the series line up; one that
    // carries multi-tenant admission series re-runs that workload too.
    let mut current = monitor::run_monitor(base.sf, base.runs, telemetry)
        .expect("monitor workload")
        .flat_values();
    if let Some((tn, rounds)) = base.tenants {
        current.extend(
            tenants::run_tenants(base.sf, tn, rounds, telemetry)
                .expect("tenants workload")
                .flat_values(),
        );
    }
    let report = gate::compare(
        "monitor",
        &base.values,
        &current,
        gate::MONITOR_THRESHOLD_PCT,
    );
    print!("{}", report.render());
    if !report.passed() {
        std::process::exit(1);
    }
}

/// `repro drift`: compare two history directories; exit 1 when any drift
/// was found (plan flip, changed answer, latency beyond the band,
/// composition shift, cost-model calibration drift, or a baseline query
/// missing from the current store), 2 on usage or load errors (including schema-version
/// mismatches).  With `--flip-rate PCT`, plan flips between learned-cost
/// histories are tolerated up to that share of compared plan groups —
/// learned pricing is *expected* to move plans as profiles accrue.
fn run_drift(
    baseline: Option<String>,
    current: Option<String>,
    band_pct: f64,
    flip_rate: Option<f64>,
) {
    let (Some(base), Some(cur)) = (baseline, current) else {
        fail("drift: pass --baseline dir/ and --current dir/")
    };
    let report = drift::compare_dirs_with(&base, &cur, band_pct, flip_rate)
        .unwrap_or_else(|e| fail(format!("drift: {e}")));
    print!("{}", report.render());
    if !report.passed() {
        std::process::exit(1);
    }
}
