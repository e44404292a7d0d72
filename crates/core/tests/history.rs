//! Query-history and critical-path determinism: the history record a
//! submission returns and the critical path computed over its trace are
//! simulated-clock state, so both must be bit-identical across transport
//! chunk sizes (1/4096/unbounded). Fresh federations number their queries
//! alike, so the comparisons include the query ids.

use std::sync::Arc;
use xdb_core::annotate::result_digest;
use xdb_core::scenario::{self, ScenarioConfig};
use xdb_core::{GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_obs::{critical_path, Telemetry};

fn setup() -> (Cluster, GlobalCatalog, Arc<Telemetry>) {
    let (cluster, catalog) = scenario::build(ScenarioConfig::default()).unwrap();
    let telemetry = Arc::clone(cluster.telemetry());
    (cluster, catalog, telemetry)
}

/// One submission; returns the query id plus the full observable
/// fingerprint: its history record (a JSON line), the critical path
/// (steps + rendered attribution), and the deterministic telemetry
/// snapshot.
fn run(chunk: usize) -> (u64, String) {
    let (cluster, catalog, telemetry) = setup();
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        stream_chunk_rows: chunk,
        ..Default::default()
    });
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let crit = critical_path(&outcome.trace).expect("critical path");
    // The attribution tiles the end-to-end window exactly (integer-ns
    // telescoping), at every setting.
    assert_eq!(crit.attributed_ns(), crit.total_ns);
    let mut fp = outcome.record(scenario::EXAMPLE_QUERY).to_json() + "\n";
    for step in &crit.steps {
        fp.push_str(&format!("{step:?}\n"));
    }
    fp.push_str(&crit.render());
    fp.push_str(&telemetry.metrics.deterministic_snapshot().render());
    (outcome.query_id, fp)
}

#[test]
fn history_identical_across_chunks() {
    // History records, critical path and deterministic metrics must not
    // see the transport morsel size.
    for chunk in [1usize, 4096] {
        assert_eq!(run(0), run(chunk), "chunk {chunk} observable");
    }
}

#[test]
fn history_record_carries_fingerprint_and_edges() {
    let (cluster, catalog, _telemetry) = setup();
    let xdb = Xdb::new(&cluster, &catalog);
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let r = &outcome.record(scenario::EXAMPLE_QUERY);
    let version = format!("\"schema_version\":{}", xdb_obs::HISTORY_SCHEMA_VERSION);
    assert!(r.to_json().starts_with(&format!("{{{version},")));
    // The runner that submitted the query stamps its label.
    assert_eq!(r.label, "");
    assert_eq!(r.deployment, "xdb");
    assert!(r.learned_costs);
    assert_eq!(r.query_id, outcome.query_id);
    assert_eq!(r.fingerprint.len(), 16);
    assert_eq!(r.sql_fnv.len(), 16);
    assert!((r.total_ms - outcome.breakdown.total_ms()).abs() < 1e-9);
    assert_eq!(r.phases.len(), 4);
    // What the ablations and `replay` read: the plan's task count, the
    // annotator's round trips (prep's metadata fetches are misses too, but
    // not round trips) and the answer's digest.
    assert_eq!(r.tasks, outcome.delegation.tasks.len() as u64);
    assert_eq!(r.consult_roundtrips, outcome.consult_roundtrips);
    assert!(r.consult_roundtrips <= r.consult_misses);
    assert_eq!(r.result_digest, result_digest(&outcome.relation));
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
    let again = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let again = again.record(scenario::EXAMPLE_QUERY);
    assert_eq!(again.fingerprint, r.fingerprint);
    assert_eq!(again.sql_fnv, r.sql_fnv);
    assert_eq!(again.query_id, r.query_id + 1);
    assert_eq!(again.result_digest, r.result_digest);
}

#[test]
fn report_appends_critical_path() {
    let (cluster, catalog, _telemetry) = setup();
    let xdb = Xdb::new(&cluster, &catalog);
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let report = outcome.report();
    assert!(report.contains("critical path:"), "{report}");
    assert!(report.contains("% "), "{report}");
}

#[test]
fn log_level_filter_does_not_perturb_deterministic_snapshot() {
    let run_at = |level: xdb_obs::Level| {
        let (cluster, catalog, telemetry) = setup();
        telemetry.events.set_min_level(level);
        let xdb = Xdb::new(&cluster, &catalog);
        xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
        (
            telemetry.metrics.deterministic_snapshot().render(),
            telemetry.events.len(),
        )
    };
    let (snap_info, events_info) = run_at(xdb_obs::Level::Info);
    let (snap_err, events_err) = run_at(xdb_obs::Level::Error);
    // Filtering drops events at record time…
    assert!(events_info > 0);
    assert_eq!(events_err, 0);
    // …without moving any deterministic metric.
    assert_eq!(snap_info, snap_err);
}
