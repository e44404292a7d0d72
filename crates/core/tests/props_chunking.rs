//! Transport-chunk determinism: for any query on any table distribution
//! (TD1–TD3), changing the transport morsel size must leave every
//! deterministic observable bit-identical — result rows, simulated
//! breakdown, transfer ledger (raw and encoded bytes), canonical trace, and
//! the deterministic telemetry snapshot. Only the wall clock and the
//! quarantined `net.chunks` series may move.
//!
//! The queries are the six of the figures and the six of the extended
//! workload (Q4's `EXISTS` and Q18's `IN` are the semi joins a federation
//! runs, and their probe sides stream). A chunk of 1 cuts every edge into
//! one-row morsels, 7 and 64 into several multi-row morsels, so a defect in
//! laying filtered or joined morsels end to end shows, and 4096 leaves
//! most edges whole at this scale. The 60 cases draw every chunk size
//! (9 to 15 times each), every query, and Q4 and Q18 at multi-row chunks
//! (about 20 s in a debug build on a 2-vCPU host).

#[path = "common/canonical.rs"]
mod canonical;

use canonical::canonical;
use proptest::prelude::*;
use xdb_core::{GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::profile::EngineProfile;
use xdb_net::{NodeId, Scenario};
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

/// Name of the managed-cloud client node (mirrors the bench harness).
const CLOUD: &str = "cloud";

/// One full submission at the given transport chunk size; returns the
/// query id and the complete observable fingerprint of the run.
fn run(q: TpchQuery, td: TableDist, chunk: usize) -> (u64, String) {
    let mut cluster = build_cluster(
        td,
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
    let mut fp = String::new();
    // Result rows, in order, every value bit-rendered.
    for i in 0..outcome.relation.len() {
        for c in 0..outcome.relation.width() {
            fp.push_str(&format!("{:?}|", outcome.relation.value(i, c)));
        }
        fp.push('\n');
    }
    // Simulated timings.
    fp.push_str(&format!("{:?}\n", outcome.breakdown));
    // Ledger: every transfer, raw and encoded bytes included.
    for t in cluster.ledger.snapshot() {
        fp.push_str(&format!("{t:?}\n"));
    }
    // Trace and deterministic telemetry.
    fp.push_str(&canonical(&outcome.trace));
    let metrics = &cluster.telemetry().metrics;
    fp.push_str(&metrics.deterministic_snapshot().render());
    (outcome.query_id, fp)
}

/// Run the reference configuration and the sampled one, each on a fresh
/// federation, which numbers its queries alike.
fn comparable_pair(q: TpchQuery, td: TableDist, a: usize, b: usize) -> (String, String) {
    let (ida, fa) = run(q, td, a);
    let (idb, fb) = run(q, td, b);
    assert_eq!(ida, idb);
    (fa, fb)
}

/// The chunk sizes compared against unbounded edges (0 is that reference
/// itself, run twice).
const CHUNKS: [usize; 5] = [1, 7, 64, 4096, 0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]
    #[test]
    fn chunking_is_unobservable(
        qi in 0usize..TpchQuery::ALL.len() + TpchQuery::EXTENDED.len(),
        ti in 0usize..TableDist::ALL.len(),
        cpick in 0usize..CHUNKS.len(),
    ) {
        let q = TpchQuery::ALL.iter().chain(&TpchQuery::EXTENDED).nth(qi).copied().unwrap();
        let td = TableDist::ALL[ti];
        let chunk = CHUNKS[cpick];
        // Reference: unbounded edges — the plainest run.
        let (reference, sampled) = comparable_pair(q, td, 0, chunk);
        prop_assert_eq!(
            reference,
            sampled,
            "{} on {} diverges at chunk={}",
            q.name(),
            td.name(),
            chunk
        );
    }
}
