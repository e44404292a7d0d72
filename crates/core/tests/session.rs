//! Plan-folding semantics: folding N concurrent copies of a query must be
//! observationally equivalent — per tenant — to executing one copy and
//! fanning the result out. Each tenant's result relation, as-if-alone
//! phase breakdown, and attributed ledger view must be bit-identical to
//! running the same query unfolded; shared fragments must be deployed
//! exactly once and drained from every engine by window close; and
//! admitting the same list on two fresh federations must repeat
//! bit-identically.

#[path = "common/canonical.rs"]
mod canonical;

use canonical::canonical;
use proptest::prelude::*;
use std::sync::Arc;
use xdb_core::scenario::{self, ScenarioConfig};
use xdb_core::{GlobalCatalog, QueryServer, SessionOptions, Submission, TenantOutcome, XdbOptions};
use xdb_engine::cluster::{Cluster, FaultSite};
use xdb_engine::EngineError;
use xdb_engine::DEFAULT_STREAM_CHUNK_ROWS;
use xdb_obs::Telemetry;

fn setup() -> (Cluster, GlobalCatalog, Arc<Telemetry>) {
    let (cluster, catalog) = scenario::build(ScenarioConfig::default()).unwrap();
    let telemetry = Arc::clone(cluster.telemetry());
    (cluster, catalog, telemetry)
}

/// The per-tenant observable: result rows (bit-rendered, in order), the
/// as-if-alone breakdown, and the attributed ledger view.
fn fingerprint(o: &TenantOutcome) -> String {
    let mut fp = String::new();
    for i in 0..o.relation.len() {
        for c in 0..o.relation.width() {
            fp.push_str(&format!("{:?}|", o.relation.value(i, c)));
        }
        fp.push('\n');
    }
    fp.push_str(&format!("{:?}\n", o.breakdown));
    for t in &o.attributed {
        fp.push_str(&format!("{t:?}\n"));
    }
    fp
}

fn copies(sql: &str, n: usize) -> Vec<Submission> {
    (0..n)
        .map(|i| Submission::new(format!("tenant-{i}"), sql))
        .collect()
}

struct Arm {
    report: xdb_core::SessionReport,
    telemetry: Arc<Telemetry>,
    baseline_live: Vec<(String, f64)>,
    final_live: Vec<(String, f64)>,
    /// Physical bytes on the wire for the whole run.
    total_bytes: u64,
}

fn run_arm(subs: &[Submission], fold: bool, xdb: XdbOptions) -> Arm {
    let (cluster, catalog, telemetry) = setup();
    let nodes = cluster.node_names();
    let live = |t: &Arc<Telemetry>| -> Vec<(String, f64)> {
        nodes
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    t.metrics.value("ddl.objects_live", &[("engine", n)]),
                )
            })
            .collect()
    };
    let baseline_live = live(&telemetry);
    let server = QueryServer::new(
        &cluster,
        &catalog,
        SessionOptions {
            xdb,
            fold,
            window: 0,
        },
    );
    let report = server.run(subs).unwrap();
    let final_live = live(&telemetry);
    let total_bytes = cluster.ledger.total_bytes();
    Arm {
        report,
        telemetry,
        baseline_live,
        final_live,
        total_bytes,
    }
}

/// Run both arms, each on a fresh federation, and hand them to the
/// assertion body. Both draw the same query ids, one per admission.
fn with_arms(subs: &[Submission], xdb: XdbOptions, check: impl Fn(&Arm, &Arm)) {
    let folded = run_arm(subs, true, xdb.clone());
    let unfolded = run_arm(subs, false, xdb);
    let ids = |arm: &Arm| -> Vec<u64> { arm.report.outcomes.iter().map(|o| o.query_id).collect() };
    assert_eq!(ids(&folded), ids(&unfolded));
    check(&folded, &unfolded);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Folding N concurrent copies ≡ one query fanned out: every tenant
    /// observes the exact result, breakdown, and attributed transfers it
    /// would have observed running the same query alone, unfolded — at
    /// any transport chunk size.
    #[test]
    fn folding_n_copies_matches_unfolded_fanout(n in 2usize..6, pick in 0usize..3) {
        let chunk = [0usize, 256, 4096][pick];
        let subs = copies(scenario::EXAMPLE_QUERY, n);
        let xdb = XdbOptions { stream_chunk_rows: chunk, ..Default::default() };
        with_arms(&subs, xdb, |folded, unfolded| {
            assert_eq!(folded.report.outcomes.len(), n);
            for (f, u) in folded.report.outcomes.iter().zip(&unfolded.report.outcomes) {
                assert_eq!(f.tenant, u.tenant);
                assert_eq!(fingerprint(f), fingerprint(u), "tenant {}", f.tenant);
            }
            // One deployment, N-1 fan-outs: the folded run ships exactly
            // one query's worth of DDLs, the unfolded run N times as many.
            assert_eq!(folded.report.full_folds, n as u64 - 1);
            assert!(folded.report.fragments_deployed > 0);
            assert_eq!(
                folded.report.ddl_statements * n as u64,
                unfolded.report.ddl_statements
            );
            assert!(folded.total_bytes < unfolded.total_bytes);
        });
    }
}

#[test]
fn fold_deploys_fragments_once_and_consult_and_ddl_traffic_drop() {
    let subs = copies(scenario::EXAMPLE_QUERY, 5);
    with_arms(&subs, XdbOptions::default(), |folded, unfolded| {
        let fr = &folded.report;
        let ur = &unfolded.report;
        // Every copy after the first folds completely.
        assert_eq!(fr.full_folds, 4);
        assert_eq!(fr.plan_cache_hits, 4);
        // Each shared fragment was deployed exactly once (EXAMPLE_QUERY's
        // plan has 3 tasks): the folded run shipped exactly the DDLs of
        // one deployment, the unfolded run five times as many.
        assert_eq!(fr.fragments_deployed, 3);
        assert_eq!(fr.ddl_statements * 5, ur.ddl_statements);
        // Consultation probes collapse to the cold plan's.
        assert!(fr.consult_probes < ur.consult_probes);
        assert_eq!(fr.consult_probes * 5, ur.consult_probes);
        // Per-tenant equivalence still holds.
        for (f, u) in fr.outcomes.iter().zip(&ur.outcomes) {
            assert_eq!(fingerprint(f), fingerprint(u), "tenant {}", f.tenant);
        }
        // Folding strictly reduces physical bytes moved.
        assert!(folded.total_bytes < unfolded.total_bytes);
        // Shared fragments drained: every engine's live-object gauge is
        // back at its pre-run baseline (and something was deployed).
        assert_eq!(folded.baseline_live, folded.final_live);
        let peak = folded
            .final_live
            .iter()
            .map(|(n, _)| {
                folded
                    .telemetry
                    .metrics
                    .high_water("ddl.objects_live", &[("engine", n)])
            })
            .fold(0.0f64, f64::max);
        let base = folded
            .baseline_live
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0f64, f64::max);
        assert!(peak > base, "no delegation objects were ever deployed");
    });
}

#[test]
fn admission_repeats_bit_identically_on_fresh_federations() {
    let subs = copies(scenario::EXAMPLE_QUERY, 6);
    let admit = || {
        let (cluster, catalog, telemetry) = setup();
        let server = QueryServer::new(&cluster, &catalog, SessionOptions::default());
        let report = server.run(&subs).unwrap();
        let snap = telemetry.metrics.deterministic_snapshot().render();
        let fps: Vec<String> = report.outcomes.iter().map(fingerprint).collect();
        let ids: Vec<u64> = report.outcomes.iter().map(|o| o.query_id).collect();
        (ids, fps, snap, report.makespan_ms)
    };
    let (first, again) = (admit(), admit());
    assert_eq!(first.0, again.0, "query ids diverged");
    assert_eq!(first.1, again.1, "per-tenant observables diverged");
    assert_eq!(first.2, again.2, "deterministic snapshots diverged");
    assert_eq!(first.3, again.3, "makespans diverged");
}

#[test]
fn partial_fold_reuses_shared_prefix() {
    // Same joins, same pruned columns, different root aggregate: the
    // non-root fragments are shared, the root is not.
    let variant = scenario::EXAMPLE_QUERY.replacen("avg(m.u_ml)", "min(m.u_ml)", 1);
    let subs = vec![
        Submission::new("tenant-a", scenario::EXAMPLE_QUERY),
        Submission::new("tenant-b", variant),
    ];
    with_arms(&subs, XdbOptions::default(), |folded, unfolded| {
        let fr = &folded.report;
        assert_eq!(fr.full_folds, 0, "distinct roots must not fully fold");
        assert!(
            fr.fold_hits > 0,
            "shared non-root fragments were not folded"
        );
        assert!(fr.ddl_statements < unfolded.report.ddl_statements);
        for (f, u) in fr.outcomes.iter().zip(&unfolded.report.outcomes) {
            assert_eq!(fingerprint(f), fingerprint(u), "tenant {}", f.tenant);
        }
    });
}

/// Folded admission runs its edges at the chunk size of its options, as
/// `Xdb::submit` does: at chunk 16 the window moves more transport chunks
/// than at the default, and nothing a tenant observes moves with it. The
/// window folds fully, folds partially and deploys from scratch, over
/// edges of several morsels each.
#[test]
fn folded_admission_carries_the_chunk_size() {
    let variant = scenario::EXAMPLE_QUERY.replacen("avg(m.u_ml)", "min(m.u_ml)", 1);
    let mut subs = copies(scenario::EXAMPLE_QUERY, 2);
    subs.push(Submission::new("tenant-v", variant));
    let arm = |stream_chunk_rows: usize| {
        let xdb = XdbOptions {
            stream_chunk_rows,
            ..Default::default()
        };
        let arm = run_arm(&subs, true, xdb);
        let snapshot = arm.telemetry.metrics.snapshot();
        let chunks: f64 = snapshot
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("net.chunks"))
            .map(|(_, v)| v)
            .sum();
        (arm.report.outcomes, chunks)
    };
    let ((small, small_chunks), (default, default_chunks)) =
        (arm(16), arm(DEFAULT_STREAM_CHUNK_ROWS));
    assert!(
        small_chunks > default_chunks,
        "chunk 16 moved {small_chunks} chunks, the default {default_chunks}"
    );
    for (s, d) in small.iter().zip(&default) {
        assert_eq!(s.query_id, d.query_id);
        assert_eq!(fingerprint(s), fingerprint(d), "tenant {}", s.tenant);
        assert_eq!(
            canonical(&s.trace),
            canonical(&d.trace),
            "tenant {}",
            s.tenant
        );
    }
}

#[test]
fn windows_scope_folding_state() {
    let subs = copies(scenario::EXAMPLE_QUERY, 4);
    let (cluster, catalog, _telemetry) = setup();
    let server = QueryServer::new(
        &cluster,
        &catalog,
        SessionOptions {
            window: 2,
            ..Default::default()
        },
    );
    let report = server.run(&subs).unwrap();
    assert_eq!(report.windows, 2);
    // One deployment and one full fold per window; nothing folds across
    // the window boundary (EXAMPLE_QUERY's plan has 3 tasks).
    assert_eq!(report.full_folds, 2);
    assert_eq!(report.fragments_deployed, 6);
    assert_eq!(report.plan_cache_hits, 2);
}

/// A folded admission that fails mid-script is torn down like a failed
/// `Xdb::submit`: its own objects are dropped through `run_cleanup`
/// (counted, and a Warn event says so), the shared fragments it read from
/// stay deployed until the window closes and are dropped there, and the
/// server is fit for the next window.
#[test]
fn failed_partial_fold_releases_its_fragments() {
    let (cluster, catalog, telemetry) = setup();
    let variant = scenario::EXAMPLE_QUERY.replacen("avg(m.u_ml)", "min(m.u_ml)", 1);
    let subs = vec![
        Submission::new("tenant-a", scenario::EXAMPLE_QUERY),
        Submission::new("tenant-b", variant.clone()),
    ];
    // Plan both once to count the statements the window sends to the
    // variant's root node: all of the first query's, then the variant's
    // own steps, its root task's alone (it claims every other task), of
    // which the last creates its root view. That one fails.
    let xdb = xdb_core::Xdb::new(&cluster, &catalog);
    let (_, first, _, _) = xdb.plan(scenario::EXAMPLE_QUERY).unwrap();
    let (plan, script, _, _) = xdb.plan(&variant).unwrap();
    let root_node = plan.task(plan.root).dbms.clone();
    let own = script.steps.iter().filter(|s| s.task == plan.root).count();
    let before = first.steps.iter().filter(|s| s.node == root_node).count()
        + usize::from(first.root_node == root_node)
        + own
        - 1;
    cluster.fail_once(root_node.as_str(), before, FaultSite::Statement);
    let qid = script.query_id + 2;
    let live = || -> Vec<f64> {
        let nodes = cluster.node_names();
        nodes
            .iter()
            .map(|n| {
                telemetry
                    .metrics
                    .value("ddl.objects_live", &[("engine", n)])
            })
            .collect()
    };
    let baseline = live();
    let server = QueryServer::new(&cluster, &catalog, SessionOptions::default());

    let err = server.run(&subs).unwrap_err();
    let EngineError::Statement(failed) = &err else {
        panic!("{err}");
    };
    let at = (failed.query_id, failed.node.as_str(), failed.index);
    assert_eq!(at, (qid, root_node.as_str(), own - 1));
    assert_eq!(failed.cleanup, []);
    assert_eq!(live(), baseline);
    for node in cluster.node_names() {
        let names = cluster.engine(&node).unwrap().with_catalog(|c| c.names());
        let leaked: Vec<&String> = names.iter().filter(|n| n.starts_with("xdb_q")).collect();
        assert!(leaked.is_empty(), "{node} leaked {leaked:?}");
    }
    // The first query claimed nothing and deployed three fragments; the
    // variant claimed two of them and failed on its own root view.
    let events = telemetry.events.snapshot();
    let torn_down: Vec<_> = events
        .iter()
        .filter(|e| e.level == xdb_obs::Level::Warn && e.message.contains("torn down"))
        .collect();
    assert_eq!(torn_down.len(), 1, "{torn_down:?}");
    assert_eq!(torn_down[0].query, Some(qid));
    assert_eq!(
        telemetry
            .metrics
            .value("xdb.queries", &[("status", "error")]),
        1.0
    );
    let dropped_by_window = events
        .iter()
        .find(|e| e.message == "scheduling window closed")
        .and_then(|e| e.fields.iter().find(|(k, _)| k == "dropped"))
        .map(|(_, v)| v.parse::<f64>().unwrap())
        .unwrap();
    assert!(
        telemetry.metrics.value("ddl.objects_dropped", &[]) > dropped_by_window,
        "the failed query's drops were not counted"
    );

    let report = server.run(&subs).unwrap();
    assert_eq!(report.outcomes.len(), 2);
    assert!(report.fold_hits > 0, "the prefix was not shared");
}
