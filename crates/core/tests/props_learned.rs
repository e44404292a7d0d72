//! Learned-cost determinism property: with a FIXED profile store, the
//! learned pricing path must be exactly as deterministic as the static
//! one — for any TD1 query, changing the transport morsel size must leave
//! every deterministic observable bit-identical (result rows, simulated
//! breakdown, transfer ledger, canonical trace, deterministic
//! telemetry snapshot). Learned pricing may *flip plans* relative to
//! static pricing, but never relative to itself. Static pricing repeats
//! itself on a fresh federation, and the feedback loop settles.

#[path = "common/canonical.rs"]
mod canonical;

use canonical::canonical;
use proptest::prelude::*;
use xdb_core::{CostProfiles, GlobalCatalog, QueryOutcome, Xdb, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_engine::profile::EngineProfile;
use xdb_net::{Movement, NodeId, Scenario};
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

/// Name of the managed-cloud client node (mirrors the bench harness).
const CLOUD: &str = "cloud";

/// A fixed, hand-built profile store with strong per-direction asymmetry
/// so the learned path actually reprices movement (and flips plans for
/// some queries — the point is that the flip itself is deterministic).
fn fixed_profiles() -> CostProfiles {
    let mut p = CostProfiles::default();
    for _ in 0..8 {
        for m in [Movement::Implicit, Movement::Explicit] {
            p.observe_wire("db1", "db2", m, 0.12);
            p.observe_wire("db2", "db1", m, 1.6);
            p.observe_wire("db2", "db3", m, 0.3);
            p.observe_wire("db3", "db2", m, 0.9);
        }
        p.observe_compute("db1", 1.4);
        p.observe_compute("db2", 0.7);
    }
    p
}

/// A fresh federation on `dist`.
fn federation(dist: TableDist) -> (Cluster, GlobalCatalog) {
    let mut cluster = build_cluster(
        dist,
        0.002,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    cluster.topology.add_cloud_node(NodeId::new(CLOUD));
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    (cluster, catalog)
}

/// Result rows (every value bit-rendered), simulated breakdown and
/// canonical trace of one submission.
fn outcome_fingerprint(outcome: &QueryOutcome) -> String {
    let mut fp = String::new();
    for i in 0..outcome.relation.len() {
        for c in 0..outcome.relation.width() {
            fp.push_str(&format!("{:?}|", outcome.relation.value(i, c)));
        }
        fp.push('\n');
    }
    fp.push_str(&format!("{:?}\n", outcome.breakdown));
    fp.push_str(&canonical(&outcome.trace));
    fp
}

/// One full TD1 submission priced through the fixed profile store under
/// the given transport chunk size; returns the query id and the complete
/// observable fingerprint of the run.
fn run(q: TpchQuery, chunk: usize) -> (u64, String) {
    let (cluster, catalog) = federation(TableDist::Td1);
    catalog.set_profiles(fixed_profiles());
    let xdb = Xdb::new(&cluster, &catalog)
        .with_client_node(CLOUD)
        .with_options(XdbOptions {
            stream_chunk_rows: chunk,
            learned_costs: true,
            // Frozen: the store is the fixed input under test, not a
            // moving target.
            freeze_profiles: true,
            ..Default::default()
        });
    let outcome = xdb.submit(q.sql()).unwrap();
    let mut fp = outcome_fingerprint(&outcome);
    for t in cluster.ledger.snapshot() {
        fp.push_str(&format!("{t:?}\n"));
    }
    let metrics = &cluster.telemetry().metrics;
    fp.push_str(&metrics.deterministic_snapshot().render());
    (outcome.query_id, fp)
}

/// Run the reference configuration and the sampled one, each on a fresh
/// federation, which numbers its queries alike.
fn comparable_pair(q: TpchQuery, a: usize, b: usize) -> (String, String) {
    let (ida, fa) = run(q, a);
    let (idb, fb) = run(q, b);
    assert_eq!(ida, idb);
    (fa, fb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn learned_pricing_is_unobservable_to_executor_knobs(
        qi in 0usize..TpchQuery::ALL.len(),
        cpick in 0usize..3,
    ) {
        let q = TpchQuery::ALL[qi];
        let chunk = [1usize, 4096, 0][cpick];
        let (reference, sampled) = comparable_pair(q, 0, chunk);
        prop_assert_eq!(
            reference,
            sampled,
            "{} (learned costs) diverges at chunk={}",
            q.name(),
            chunk
        );
    }
}

/// Static pricing repeats itself: two rounds of the workload on a fresh
/// federation with `learned_costs: false` give the same results,
/// breakdowns and canonical traces as on another fresh federation, on
/// every distribution — and the second round plans as the first did,
/// since static pricing learns nothing.
#[test]
fn static_pricing_repeats_on_a_fresh_federation() {
    let workload = |dist: TableDist| {
        let (cluster, catalog) = federation(dist);
        let xdb = Xdb::new(&cluster, &catalog)
            .with_client_node(CLOUD)
            .with_options(XdbOptions {
                learned_costs: false,
                ..Default::default()
            });
        let (mut plans, mut fp) = (Vec::new(), String::new());
        for _round in 0..2 {
            for q in TpchQuery::ALL {
                let outcome = xdb.submit(q.sql()).unwrap();
                fp.push_str(&format!("query {}\n", outcome.query_id));
                plans.push(xdb_core::annotate::plan_fingerprint(&outcome.delegation));
                fp.push_str(&outcome_fingerprint(&outcome));
            }
        }
        let (first, second) = plans.split_at(TpchQuery::ALL.len());
        assert_eq!(first, second, "{}: static plans moved", dist.name());
        fp
    };
    for dist in TableDist::ALL {
        let (a, b) = (workload(dist), workload(dist));
        assert_eq!(a, b, "{}: static pricing diverged", dist.name());
    }
}

/// The feedback loop settles: replaying the workload against live profile
/// feedback reaches, on every distribution, a set of plans that no later
/// round changes — and from then on a store that gains no key.
#[test]
fn replayed_workload_settles_on_a_fixed_plan_set() {
    const ROUNDS: usize = 30;
    const SETTLED_BY: usize = 10;
    for dist in TableDist::ALL {
        let (cluster, catalog) = federation(dist);
        let xdb = Xdb::new(&cluster, &catalog).with_client_node(CLOUD);
        let mut plans = std::collections::BTreeSet::new();
        let mut last_new_plan = 0;
        let mut settled_round = Vec::new();
        let mut settled_keys = 0;
        for round in 0..ROUNDS {
            let mut this_round = Vec::new();
            for q in TpchQuery::ALL {
                let outcome = xdb.submit(q.sql()).unwrap();
                let plan = xdb_core::annotate::plan_fingerprint(&outcome.delegation);
                if plans.insert((q.name(), plan.clone())) {
                    last_new_plan = round;
                }
                this_round.push(plan);
            }
            if round == SETTLED_BY {
                settled_keys = catalog.profiles_snapshot().keys();
                settled_round = this_round;
            } else if round > SETTLED_BY {
                // Nor does a query alternate between two known plans.
                assert_eq!(this_round, settled_round, "{} round {round}", dist.name());
            }
        }
        assert!(
            last_new_plan < SETTLED_BY,
            "{}: a new plan in round {last_new_plan} of {ROUNDS}",
            dist.name()
        );
        assert_eq!(
            catalog.profiles_snapshot().keys(),
            settled_keys,
            "{}: the profile store grew a key after the plans settled",
            dist.name()
        );
    }
}
