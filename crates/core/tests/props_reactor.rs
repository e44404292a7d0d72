//! Morsel-reactor determinism properties: for any query on any table
//! distribution (TD1–TD3), turning the edge reactor on or off or changing
//! the transport morsel size must leave every deterministic
//! observable bit-identical — result rows, simulated breakdown, transfer
//! ledger (raw and encoded bytes), canonical trace, and the deterministic
//! telemetry snapshot. Only the wall clock and the quarantined
//! `net.chunks` / `sched.reactor_*` series may move.
//!
//! Plus the crash property the bounded channels must uphold: a panicking
//! worker poisons its edge window cleanly, waking both sides, instead of
//! deadlocking waiters.

#[path = "common/canonical.rs"]
mod canonical;

use canonical::canonical;
use proptest::prelude::*;
use std::sync::Arc;
use xdb_core::{GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::profile::EngineProfile;
use xdb_net::reactor::{EdgeChannel, PoisonGuard, Poisoned};
use xdb_net::{reactor, NodeId, Scenario};
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

/// Name of the managed-cloud client node (mirrors the bench harness).
const CLOUD: &str = "cloud";

/// One full submission under the given streaming knobs; returns the
/// query id and the complete observable fingerprint of the run.
fn run(q: TpchQuery, td: TableDist, reactor_threads: usize, chunk: usize) -> (u64, String) {
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
            reactor_threads,
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
fn comparable_pair(
    q: TpchQuery,
    td: TableDist,
    a: (usize, usize),
    b: (usize, usize),
) -> (String, String) {
    let (ida, fa) = run(q, td, a.0, a.1);
    let (idb, fb) = run(q, td, b.0, b.1);
    assert_eq!(ida, idb);
    (fa, fb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn reactor_and_chunking_are_unobservable(
        qi in 0usize..TpchQuery::ALL.len(),
        ti in 0usize..TableDist::ALL.len(),
        rpick in 0usize..2,
        cpick in 0usize..3,
    ) {
        let q = TpchQuery::ALL[qi];
        let td = TableDist::ALL[ti];
        let reactor_threads = [0usize, 2][rpick];
        let chunk = [1usize, 4096, 0][cpick];
        // Reference: reactor off, unbounded edges — the plainest run.
        let (reference, sampled) = comparable_pair(q, td, (0, 0), (reactor_threads, chunk));
        prop_assert_eq!(
            reference,
            sampled,
            "{} on {} diverges at reactor={} chunk={}",
            q.name(),
            td.name(),
            reactor_threads,
            chunk
        );
    }
}

/// A worker that panics mid-edge must poison the window: the consumer
/// blocked on the bounded channel wakes up with [`Poisoned`] instead of
/// waiting forever for a close that will never come, and the pool thread
/// survives to run later jobs.
#[test]
fn panicking_worker_poisons_window_cleanly() {
    let chan = Arc::new(EdgeChannel::<u32>::new(2));
    let prod = Arc::clone(&chan);
    reactor::spawn(2, move || {
        let _guard = PoisonGuard::new(Arc::clone(&prod));
        prod.send(1).unwrap();
        panic!("injected worker crash");
        // guard dropped while armed -> poisons the edge
    });
    // Drain until the crash surfaces. Poisoning discards queued morsels
    // by design (the edge is dead either way), so the consumer may see
    // the first morsel or only the poison — but never a clean close and
    // never a deadlock.
    let mut drained = 0usize;
    let outcome = loop {
        match chan.recv() {
            Ok(Some(_)) => drained += 1,
            other => break other,
        }
    };
    assert_eq!(outcome, Err(Poisoned), "drained {drained} morsels");
    assert!(chan.is_poisoned());

    // The pool thread survived the panic: a follow-up job still runs.
    let after = Arc::new(EdgeChannel::<u32>::new(1));
    let prod = Arc::clone(&after);
    reactor::spawn(2, move || {
        let guard = PoisonGuard::new(Arc::clone(&prod));
        prod.send(7).unwrap();
        prod.close();
        guard.defuse();
    });
    assert_eq!(after.recv(), Ok(Some(7)));
    assert_eq!(after.recv(), Ok(None));
}

/// The other side of the crash contract: a producer blocked on a full
/// bounded channel is woken by poison instead of deadlocking against a
/// consumer that died.
#[test]
fn poison_wakes_blocked_sender() {
    let chan = Arc::new(EdgeChannel::<u32>::new(1));
    chan.send(0).unwrap(); // ring is now full
    let sender = {
        let chan = Arc::clone(&chan);
        std::thread::spawn(move || chan.send(1))
    };
    // Give the sender time to block on the full ring, then crash the
    // consumer side the way a panicking drain loop would.
    std::thread::sleep(std::time::Duration::from_millis(50));
    PoisonGuard::new(Arc::clone(&chan)); // dropped armed immediately
    assert_eq!(sender.join().unwrap(), Err(Poisoned));
}
