//! Fleet-telemetry integration tests: deterministic metrics/events run to
//! run, delegation-artifact cleanup restoring the live-object gauges,
//! consultation-cache soundness under transient DDL, and the per-run
//! metrics-snapshot delta.

use std::sync::Arc;
use xdb_core::annotate::AnnotateOptions;
use xdb_core::scenario::{self, ScenarioConfig};
use xdb_core::{run_cleanup, GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_net::Movement;
use xdb_obs::{json, Telemetry};

fn setup() -> (Cluster, GlobalCatalog, Arc<Telemetry>) {
    let (cluster, catalog) = scenario::build(ScenarioConfig::default()).unwrap();
    let telemetry = Arc::clone(cluster.telemetry());
    (cluster, catalog, telemetry)
}

/// One full submission on a fresh federation; returns the query id, the
/// deterministic metrics rendering, and the event JSONL.
fn run_workload() -> (u64, String, String) {
    let (cluster, catalog, telemetry) = setup();
    let xdb = Xdb::new(&cluster, &catalog);
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    (
        outcome.query_id,
        telemetry.metrics.deterministic_snapshot().render(),
        telemetry.events.to_jsonl(),
    )
}

#[test]
fn telemetry_repeats_run_to_run() {
    // Two fresh federations submitting one query leave the same
    // deterministic telemetry, query ids included, byte for byte.
    let (ida, metrics_a, events_a) = run_workload();
    let (idb, metrics_b, events_b) = run_workload();
    assert_eq!(ida, idb);
    assert_eq!(metrics_a, metrics_b);
    assert_eq!(events_a, events_b);
    assert!(
        metrics_a.contains("xdb.queries{status=\"ok\"}"),
        "{metrics_a}"
    );
    assert!(!metrics_a.contains("sched."), "{metrics_a}");
}

#[test]
fn quarantine_audit_covers_every_metric_family() {
    // The metric quarantine is the determinism contract's enforcement
    // point: `deterministic_snapshot()` must drop *every* family under the
    // quarantined prefixes (`sched.*`, `net.chunks*`, `net.codec.*`) and
    // nothing else.
    use xdb_obs::metrics::{CHUNKS_PREFIX, CODEC_PREFIX, SCHED_PREFIX};
    let quarantined = |k: &&String| {
        k.starts_with(SCHED_PREFIX) || k.starts_with(CHUNKS_PREFIX) || k.starts_with(CODEC_PREFIX)
    };
    let (cluster, catalog, telemetry) = setup();
    Xdb::new(&cluster, &catalog)
        .submit(scenario::EXAMPLE_QUERY)
        .unwrap();
    let full = telemetry.metrics.snapshot();
    let det = telemetry.metrics.deterministic_snapshot();
    // The workload really exercises quarantined families — otherwise
    // this audit would pass vacuously.
    assert!(
        full.counters.keys().any(|k| k.starts_with(SCHED_PREFIX)),
        "workload emitted no sched.* series"
    );
    // No quarantined family leaks into the deterministic snapshot.
    let leaked: Vec<&String> = det.counters.keys().filter(quarantined).collect();
    assert!(leaked.is_empty(), "quarantined series leaked: {leaked:?}");
    // The deterministic snapshot is exactly the full snapshot minus the
    // quarantined prefixes — no family is silently dropped.
    let expected: Vec<&String> = full.counters.keys().filter(|k| !quarantined(k)).collect();
    let got: Vec<&String> = det.counters.keys().collect();
    assert_eq!(expected, got);
}

#[test]
fn events_are_valid_query_correlated_json_lines() {
    let (cluster, catalog, telemetry) = setup();
    let xdb = Xdb::new(&cluster, &catalog);
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let jsonl = telemetry.events.to_jsonl();
    assert!(!jsonl.is_empty());
    let mut planned = false;
    let mut completed = false;
    for line in jsonl.lines() {
        let v = json::parse(line).expect("event line parses as JSON");
        let msg = v.get("message").and_then(json::Value::as_str).unwrap();
        let query = v.get("query").and_then(json::Value::as_f64);
        if msg == "query planned" || msg == "query completed" {
            assert_eq!(query, Some(outcome.query_id as f64), "{line}");
        }
        planned |= msg == "query planned";
        completed |= msg == "query completed";
    }
    assert!(planned && completed, "{jsonl}");
}

#[test]
fn cleanup_returns_objects_live_gauge_to_baseline() {
    let (cluster, catalog, telemetry) = setup();
    let nodes = cluster.node_names();
    let baseline: Vec<f64> = nodes
        .iter()
        .map(|n| {
            telemetry
                .metrics
                .value("ddl.objects_live", &[("engine", n)])
        })
        .collect();
    // Deploy the delegation chain statement by statement and leave it
    // standing: some engine holds more live objects than before.
    let (_, script, _, _) = Xdb::new(&cluster, &catalog)
        .plan(scenario::EXAMPLE_QUERY)
        .unwrap();
    for step in &script.steps {
        cluster.execute(step.node.as_str(), &step.sql).unwrap();
    }
    let live: Vec<f64> = nodes
        .iter()
        .map(|n| {
            telemetry
                .metrics
                .value("ddl.objects_live", &[("engine", n)])
        })
        .collect();
    assert!(
        live.iter().zip(&baseline).any(|(l, b)| l > b),
        "no engine gained live objects: {live:?} vs {baseline:?}"
    );
    assert!(!script.cleanup.is_empty());
    assert_eq!(run_cleanup(&cluster, &script), []);
    for (i, n) in nodes.iter().enumerate() {
        let after = telemetry
            .metrics
            .value("ddl.objects_live", &[("engine", n)]);
        assert_eq!(after, baseline[i], "{n} still holds delegation artifacts");
        // The high-water mark keeps the peak.
        assert!(
            telemetry
                .metrics
                .high_water("ddl.objects_live", &[("engine", n)])
                >= after
        );
    }
    // Cleanup is idempotent (DROP IF EXISTS) and logged.
    assert_eq!(run_cleanup(&cluster, &script), []);
    assert!(telemetry
        .events
        .snapshot()
        .iter()
        .any(|e| e.message.contains("cleanup dropped")));
}

/// The fleet's `consult.probes` series, `(hits, misses)`.
fn probes(telemetry: &Telemetry) -> (f64, f64) {
    let count = |result| {
        let labels = [("result", result)];
        telemetry.metrics.value("consult.probes", &labels)
    };
    (count("hit"), count("miss"))
}

#[test]
fn transient_ddl_keeps_consultation_cache_valid() {
    let (cluster, catalog, telemetry) = setup();
    for t in catalog.table_names() {
        catalog.consult(&cluster, &t).unwrap();
    }
    // Warm: every probe now hits.
    for t in catalog.table_names() {
        assert!(catalog.consult(&cluster, &t).unwrap(), "{t} not cached");
    }
    let (_, fetches) = probes(&telemetry);
    // A full query with forced explicit movements deploys views, foreign
    // tables, AND materialized temp copies on the engines — all transient
    // (`xdb_q*`), so no base-table probe may be invalidated.
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        annotate: AnnotateOptions {
            force_movement: Some(Movement::Explicit),
            ..Default::default()
        },
        ..Default::default()
    });
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    assert!(outcome.ddl_count > 0);
    for t in catalog.table_names() {
        assert!(
            catalog.consult(&cluster, &t).unwrap(),
            "transient DDL spuriously invalidated the probe for {t}"
        );
    }
    assert_eq!(probes(&telemetry).1, fetches);
    // Real DDL still invalidates: create a user table on some node and its
    // tables re-fetch.
    let node = catalog.location("citizen").unwrap().as_str().to_string();
    cluster
        .execute(&node, "CREATE TABLE perm_marker (x BIGINT)")
        .unwrap();
    assert!(!catalog.consult(&cluster, "citizen").unwrap());
}

#[test]
fn metrics_snapshot_diff_isolates_one_run() {
    let (cluster, catalog, telemetry) = setup();
    // First run pays the consultation misses.
    let xdb = Xdb::new(&cluster, &catalog);
    xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    // Bracket the second run: everything it consults is cached, and the
    // delta sees only this run's metadata probes, one per table it reads,
    // as its own breakdown counts them (with its four EXPLAIN probes).
    let (hits, misses) = probes(&telemetry);
    let outcome = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
    let (after_hits, after_misses) = probes(&telemetry);
    assert_eq!((after_hits - hits, after_misses - misses), (4.0, 0.0));
    let breakdown = &outcome.breakdown;
    let own = (breakdown.consult_cache_hits, breakdown.consult_cache_misses);
    assert_eq!(own, (4 + 4, 0));
}
