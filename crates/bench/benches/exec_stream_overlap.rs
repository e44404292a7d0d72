//! Wall clock of the streamed dataflow edges by chunk size: the full XDB
//! delegation pipeline over the vaccination scenario, varying only the
//! transport morsel size. Chunking is (and, per the determinism tests,
//! must be) unobservable in the *simulated* clock; this bench watches the
//! host's wall clock, where morsel-wise edges are expected to win.
//!
//! A chunked edge never materializes at the consumer: each morsel,
//! decoded on the consuming thread, probes the join hash table, gathers
//! its matches and folds them into the streaming aggregate while the
//! chunk is still cache-hot (`Execution::feed` composing filter, the one
//! `hash_join` and the `Grouper`). An unbounded edge runs the same
//! operators over one edge-sized morsel, so every pass (decode, probe,
//! gather, fold) re-walks a multi-hundred-megabyte working set through
//! L3/DRAM instead of L2.
//! A diagnostic: compare `edge_chunk_4096` with `edge_unbounded` within
//! one run (nothing asserts it; a 4–8 % gap between minima is below what
//! one run on a shared host shows).
//!
//! The query ships the wide 2M-row `measurements` relation to `vdb`
//! (placement pinned there so the big side is the foreign probe), joins
//! it against 300k local vaccination events (×3 fan-out: the join output
//! is ~6M rows, far past L3 when materialized at once) and folds it
//! into an eight-group aggregate.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use xdb_core::annotate::AnnotateOptions;
use xdb_core::global::GlobalCatalog;
use xdb_core::scenario::{self, ScenarioConfig};
use xdb_core::{Xdb, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_net::NodeId;

/// Transfer-heavy: all four `measurements` columns cross the wire and the
/// consumer is a fused probe→gather→aggregate pipeline over the edge.
const TRANSFER_HEAVY_QUERY: &str = "SELECT vn.v_id, avg(m.u_ml) AS avg_u_ml, \
 min(m.mdate) AS first_m, max(m.id) AS max_id \
 FROM measurements m, vaccination vn \
 WHERE vn.c_id = m.c_id \
 GROUP BY vn.v_id ORDER BY vn.v_id";

fn build_env() -> (Cluster, GlobalCatalog) {
    scenario::build(ScenarioConfig {
        citizens: 100_000,
        vaccination_events: 300_000,
        measurements: 2_000_000,
        ..Default::default()
    })
    .unwrap()
}

fn make_xdb<'a>(cluster: &'a Cluster, catalog: &'a GlobalCatalog, chunk: usize) -> Xdb<'a> {
    Xdb::new(cluster, catalog).with_options(XdbOptions {
        stream_chunk_rows: chunk,
        // Pin the cross-database operators to vdb so the *large* relation
        // is the shipped probe side; cost-based placement would flip the
        // plan into a small-edge shape that exercises nothing.
        annotate: AnnotateOptions {
            allowed_placements: Some(vec![NodeId::new("vdb")]),
            ..Default::default()
        },
        ..Default::default()
    })
}

fn bench(c: &mut Criterion) {
    let (cluster, catalog) = build_env();

    let mut g = c.benchmark_group("exec_stream_overlap");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for (name, chunk) in [
        ("edge_unbounded", 0usize),
        ("edge_chunk_4096", 4096),
        ("edge_chunk_256", 256),
    ] {
        g.bench_function(name, |b| {
            let xdb = make_xdb(&cluster, &catalog, chunk);
            b.iter(|| xdb.submit(TRANSFER_HEAVY_QUERY).unwrap())
        });
    }
    g.finish();
    black_box(());
}

criterion_group!(benches, bench);
criterion_main!(benches);
