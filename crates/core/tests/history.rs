//! Query-history and critical-path determinism: the history records a
//! submission appends and the critical path computed over its trace are
//! simulated-clock state, so both must be bit-identical across transport
//! chunk sizes (1/4096/unbounded).
//! The process-global query id is the one field comparisons normalize,
//! exactly as the trace/telemetry tests do.

use parking_lot::Mutex;
use std::sync::Arc;
use xdb_core::scenario::{self, ScenarioConfig};
use xdb_core::{GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_obs::{critical_path, Telemetry};

/// Query-id decimal width leaks into control-message byte counts; pairs
/// under comparison are serialized and retried until both ids have the
/// same width (see the streaming/telemetry tests for the same pattern).
static SUBMIT_LOCK: Mutex<()> = Mutex::new(());

fn setup() -> (Cluster, GlobalCatalog, Arc<Telemetry>) {
    let (mut cluster, mut catalog) = scenario::build(ScenarioConfig::default()).unwrap();
    let telemetry = Telemetry::new_handle();
    cluster.set_telemetry(Arc::clone(&telemetry));
    catalog.set_telemetry(Arc::clone(&telemetry));
    (cluster, catalog, telemetry)
}

/// Replace every decimal run after `xdb_q` / `"query":` / `"query_id":`
/// with `N` so runs with different global query ids compare equal.
fn normalize_ids(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        out.push(bytes[i] as char);
        let here = &s[..=i];
        if here.ends_with("xdb_q")
            || here.ends_with("\"query\":")
            || here.ends_with("\"query_id\":")
        {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 {
                out.push('N');
                i = j;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// One submission with the history sink on; returns the query id plus
/// the full observable fingerprint: history records (JSON lines), the
/// critical path (steps + rendered attribution), and the deterministic
/// telemetry snapshot.
fn run(chunk: usize) -> (u64, String) {
    let (cluster, catalog, telemetry) = setup();
    telemetry.history.enable_memory();
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        stream_chunk_rows: chunk,
        ..Default::default()
    });
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let crit = critical_path(&outcome.trace).expect("critical path");
    // The attribution tiles the end-to-end window exactly (integer-ns
    // telescoping), at every setting.
    assert_eq!(crit.attributed_ns(), crit.total_ns);
    let mut fp = telemetry.history.to_jsonl();
    for step in &crit.steps {
        fp.push_str(&format!("{step:?}\n"));
    }
    fp.push_str(&crit.render());
    fp.push_str(&telemetry.metrics.deterministic_snapshot().render());
    (outcome.query_id, normalize_ids(&fp))
}

fn run_comparable_pair(a: usize, b: usize) -> (String, String) {
    let _guard = SUBMIT_LOCK.lock();
    loop {
        let (ida, fa) = run(a);
        let (idb, fb) = run(b);
        if ida.to_string().len() == idb.to_string().len() {
            return (fa, fb);
        }
    }
}

#[test]
fn history_identical_across_chunks() {
    // History records, critical path and deterministic metrics must not
    // see the transport morsel size.
    for chunk in [1usize, 4096] {
        let (reference, other) = run_comparable_pair(0, chunk);
        assert_eq!(reference, other, "chunk {chunk} observable");
    }
}

#[test]
fn history_record_carries_fingerprint_and_edges() {
    let _guard = SUBMIT_LOCK.lock();
    let (cluster, catalog, telemetry) = setup();
    telemetry.history.enable_memory();
    telemetry.history.set_label("example");
    let xdb = Xdb::new(&cluster, &catalog);
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let records = telemetry.history.records();
    assert_eq!(records.len(), 1);
    let r = &records[0];
    let version = format!("\"schema_version\":{}", xdb_obs::HISTORY_SCHEMA_VERSION);
    assert!(r.to_json().starts_with(&format!("{{{version},")));
    assert_eq!(r.label, "example");
    assert_eq!(r.query_id, outcome.query_id);
    assert_eq!(r.fingerprint.len(), 16);
    assert_eq!(r.sql_fnv.len(), 16);
    assert!((r.total_ms - outcome.breakdown.total_ms()).abs() < 1e-9);
    assert_eq!(r.phases.len(), 4);
    assert!(r.crit_spans >= 2);
    assert!(!r.critical.is_empty());
    // Wire observations cover the run's ledger records, including the
    // per-codec split on encoded edges.
    assert!(!r.edges.is_empty());
    assert!(r.edges.iter().any(|e| !e.codecs.is_empty()));
    assert!(r.edges.iter().all(|e| e.encoded_bytes <= e.bytes));
    // Per-engine statement work was projected out of the trace counters.
    assert!(!r.statements.is_empty());
    assert!(r.statements.iter().all(|(_, ms)| *ms >= 0.0));
    // Resubmitting the same SQL yields the same fingerprint (stable plan).
    telemetry.history.set_label("");
    xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let records = telemetry.history.records();
    assert_eq!(records.len(), 2);
    assert_eq!(records[1].fingerprint, r.fingerprint);
    assert_eq!(records[1].sql_fnv, r.sql_fnv);
    assert_eq!(records[1].label, "");
}

#[test]
fn report_appends_critical_path() {
    let _guard = SUBMIT_LOCK.lock();
    let (cluster, catalog, _telemetry) = setup();
    let xdb = Xdb::new(&cluster, &catalog);
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let report = outcome.report();
    assert!(report.contains("critical path:"), "{report}");
    assert!(report.contains("% "), "{report}");
}

#[test]
fn log_level_filter_does_not_perturb_deterministic_snapshot() {
    let _guard = SUBMIT_LOCK.lock();
    loop {
        let run_at = |level: xdb_obs::Level| {
            let (cluster, catalog, telemetry) = setup();
            telemetry.events.set_min_level(level);
            let xdb = Xdb::new(&cluster, &catalog);
            let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
            (
                outcome.query_id,
                normalize_ids(&telemetry.metrics.deterministic_snapshot().render()),
                telemetry.events.len(),
            )
        };
        let (id_info, snap_info, events_info) = run_at(xdb_obs::Level::Info);
        let (id_err, snap_err, events_err) = run_at(xdb_obs::Level::Error);
        if id_info.to_string().len() != id_err.to_string().len() {
            continue;
        }
        // Filtering drops events at record time…
        assert!(events_info > 0);
        assert_eq!(events_err, 0);
        // …without moving any deterministic metric.
        assert_eq!(snap_info, snap_err);
        break;
    }
}
