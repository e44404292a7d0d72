//! Cost-model observatory determinism properties: the predicted-vs-
//! observed cost record of a query is part of the deterministic observable
//! surface. For any TD1 query, changing the transport morsel size must
//! leave the serialized [`CostObservation`] bit-identical — the
//! observatory reads only simulated-clock state (decisions, ledger, trace
//! counters), never the wall clock or the scheduler.
//!
//! Plus the exact-accounting invariants every single run must uphold:
//! the chosen candidate's predicted total is its component sum bit-exactly
//! (same additions, same order as Eq. 1), and the per-decision consult
//! charges sum to the annotation phase of the `PhaseBreakdown` exactly.

use proptest::prelude::*;
use xdb_core::{GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::profile::EngineProfile;
use xdb_net::{NodeId, Scenario};
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

/// Name of the managed-cloud client node (mirrors the bench harness).
const CLOUD: &str = "cloud";

/// One full TD1 submission at the given transport chunk size; returns the
/// query id and the serialized cost observation, after checking the
/// run's exact-accounting invariants.
fn run(q: TpchQuery, chunk: usize) -> (u64, String) {
    let mut cluster = build_cluster(
        TableDist::Td1,
        0.002,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    cluster.topology.add_cloud_node(NodeId::new(CLOUD));
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    let xdb = Xdb::new(&cluster, &catalog)
        .with_client_node(CLOUD)
        .with_options(XdbOptions {
            stream_chunk_rows: chunk,
            ..Default::default()
        });
    let outcome = xdb.submit(q.sql()).unwrap();

    // Exact accounting, every run: the chosen candidate's Eq. 1 total is
    // its component sum with no extra rounding...
    for d in &outcome.cost.decisions {
        let chosen: Vec<_> = d.candidates.iter().filter(|c| c.chosen).collect();
        assert_eq!(chosen.len(), 1, "{}: decision {}", q.name(), d.index);
        let c = chosen[0];
        assert_eq!(
            c.predicted_ms,
            c.exec_ms + c.move_left_ms + c.move_right_ms + c.startup_ms,
            "{}: component sum drifts from Eq. 1 total",
            q.name()
        );
        assert_eq!(d.predicted_ms, c.predicted_ms);
    }
    // ...and the per-decision consult charges reproduce the annotator's
    // PhaseBreakdown cost bit-exactly.
    let consult_total: f64 = outcome.cost.decisions.iter().map(|d| d.consult_ms).sum();
    assert_eq!(consult_total, outcome.cost.consult_ms, "{}", q.name());
    assert_eq!(consult_total, outcome.breakdown.ann_ms, "{}", q.name());

    (outcome.query_id, outcome.cost.to_value().to_json())
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
    fn cost_records_are_bit_identical_across_executor_knobs(
        qi in 0usize..TpchQuery::ALL.len(),
        cpick in 0usize..3,
    ) {
        let q = TpchQuery::ALL[qi];
        let chunk = [1usize, 4096, 0][cpick];
        // Reference: unbounded edges — the plainest run.
        let (reference, sampled) = comparable_pair(q, 0, chunk);
        prop_assert_eq!(
            reference,
            sampled,
            "{} cost record diverges at chunk={}",
            q.name(),
            chunk
        );
    }
}
