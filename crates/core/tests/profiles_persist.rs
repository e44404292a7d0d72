//! Learned-cost-profile persistence: the store has no file of its own, the
//! query history is its persisted form.
//!
//! The history a workload wrote rebuilds, bit for bit, the store the
//! catalog learned while it ran; reading history shards is
//! order-independent, so fleet-wide aggregation can proceed in any order;
//! and the store's size follows the number of keys, not the number of
//! absorbed observations.

use std::sync::Arc;
use xdb_core::{CostProfiles, GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::profile::EngineProfile;
use xdb_net::{Movement, NodeId, Scenario};
use xdb_obs::costmodel::{CandidateObs, CostObservation, DecisionObs, EdgeJoin};
use xdb_obs::history::{parse_history_jsonl, HistoryRecord};
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

/// A scratch directory unique to this test, cleaned up on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("xdb_profiles_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn history_is_a_sufficient_record_of_what_was_learned() {
    // A submit absorbs exactly its record's `cost` and `statements` (an
    // empty observation absorbs nothing), so the lines a live-feedback
    // pass wrote rebuild the catalog's store: no second file is needed.
    for dist in TableDist::ALL {
        let mut cluster = build_cluster(
            dist,
            0.002,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap();
        cluster.topology.add_cloud_node(NodeId::new("cloud"));
        let catalog = GlobalCatalog::discover(&cluster).unwrap();
        let xdb = Xdb::new(&cluster, &catalog)
            .with_client_node("cloud")
            .with_options(XdbOptions {
                learned_costs: true,
                freeze_profiles: false,
                ..Default::default()
            });
        let jsonl: String = TpchQuery::ALL
            .iter()
            .map(|q| xdb.submit(q.sql()).unwrap().record(q.sql()).to_json() + "\n")
            .collect();
        let records = parse_history_jsonl(&jsonl).unwrap();
        assert_eq!(records.len(), TpchQuery::ALL.len(), "{}", dist.name());
        let learned = catalog.profiles_snapshot();
        assert!(!learned.is_empty(), "{}", dist.name());
        assert_eq!(
            CostProfiles::from_history(&records),
            learned,
            "{}",
            dist.name()
        );
    }
}

/// One history record carrying a single matched edge and one engine's
/// statement work, enough for `absorb` to learn from.
fn record(from: &str, to: &str, pred_bytes: u64, obs_encoded: u64, obs_ms: f64) -> HistoryRecord {
    HistoryRecord {
        label: "Qx".into(),
        deployment: "xdb".into(),
        sql_fnv: format!("{pred_bytes:x}"),
        fingerprint: "f".into(),
        statements: vec![(to.to_string(), obs_ms)],
        cost: CostObservation {
            decisions: vec![DecisionObs {
                dbms: to.to_string(),
                consult_ms: 1.0,
                candidates: vec![CandidateObs {
                    dbms: to.to_string(),
                    exec_ms: 2.0,
                    startup_ms: 1.0,
                    chosen: true,
                    ..Default::default()
                }],
                edges: vec![EdgeJoin {
                    from: from.to_string(),
                    to: to.to_string(),
                    movement: "implicit".into(),
                    pred_bytes,
                    obs_encoded_bytes: obs_encoded,
                    matched: true,
                    ..Default::default()
                }],
                ..Default::default()
            }],
            consult_ms: 1.0,
            ..Default::default()
        },
        learned_costs: false,
        ..Default::default()
    }
}

#[test]
fn history_shards_merge_order_independently() {
    // Two shards with overlapping edge shapes, loaded in both orders.
    let shard_a = [
        record("db1", "db2", 1000, 250, 3.0),
        record("db2", "db1", 2000, 1000, 4.5),
    ];
    let shard_b = [
        record("db1", "db2", 4000, 3000, 2.4),
        record("db3", "db2", 500, 400, 6.0),
    ];
    let write = |scratch: &Scratch, order: &[&[HistoryRecord]]| {
        let mut text = String::new();
        for shard in order {
            for r in *shard {
                text.push_str(&r.to_json());
                text.push('\n');
            }
        }
        std::fs::write(scratch.path("history.jsonl"), text).unwrap();
    };

    let ab = Scratch::new("order_ab");
    write(&ab, &[&shard_a, &shard_b]);
    let ba = Scratch::new("order_ba");
    write(&ba, &[&shard_b, &shard_a]);

    let p_ab = CostProfiles::from_history_dir(&ab.0).unwrap();
    let p_ba = CostProfiles::from_history_dir(&ba.0).unwrap();
    assert!(!p_ab.is_empty());
    // Bit-identical factors whichever order the shards arrived in.
    assert_eq!(p_ab, p_ba);
    assert_eq!(
        p_ab.wire_ratio("db1", "db2", Movement::Implicit),
        p_ba.wire_ratio("db1", "db2", Movement::Implicit)
    );

    // A truncated line is the reader's error, not a store trained on zeros.
    let line = shard_a[0]
        .to_json()
        .replacen(",\"obs_encoded_bytes\":250", "", 1);
    let cut = Scratch::new("truncated");
    std::fs::write(cut.path("history.jsonl"), line).unwrap();
    let err = CostProfiles::from_history_dir(&cut.0).unwrap_err();
    assert!(err.starts_with("history line 1: "), "{err}");
    assert!(err.contains("\"obs_encoded_bytes\""), "{err}");
}

#[test]
fn the_file_does_not_grow_with_what_was_absorbed() {
    // Forty observations over a handful of edge shapes, then the same
    // workload a hundred times over: the 4 000-observation store holds the
    // keys of the 40-observation one, and no more.
    let workload: Vec<HistoryRecord> = (0..40u64)
        .map(|i| {
            let (from, to) = [("db1", "db2"), ("db2", "db1"), ("db3", "db2")][i as usize % 3];
            record(
                from,
                to,
                1000 + 37 * i,
                200 + 11 * i,
                2.0 + i as f64 * 0.125,
            )
        })
        .collect();
    let keys_after = |rounds: usize| {
        let mut store = CostProfiles::default();
        for _ in 0..rounds {
            for r in &workload {
                store.absorb_record(r);
            }
        }
        assert_eq!(store.samples(), 2 * 40 * rounds as u64);
        store.keys()
    };
    let (small, large) = (keys_after(1), keys_after(100));
    assert!(small > 0);
    assert_eq!(
        small, large,
        "{small} keys after 40 observations, {large} after 4000"
    );
}

#[test]
fn ten_thousand_absorbs_leave_a_store_the_size_of_one() {
    // A factor is `Copy`: it owns nothing out of line, so the store's heap
    // is its keys.
    fn owns_no_heap<T: Copy>() {}
    owns_no_heap::<xdb_core::profiles::FactorStat>();
    // 375/1000 and 4.5/3 are exact in fixed point.
    let r = record("db1", "db2", 1000, 375, 4.5);
    let mut p = CostProfiles::default();
    p.absorb_record(&r);
    let keys_after_one = p.keys();
    let n = 10_000u64;
    for _ in 1..n {
        p.absorb_record(&r);
    }
    assert_eq!(p.keys(), keys_after_one);
    assert_eq!(p.samples(), 2 * n);
    // The closed form `(n·r + K) / (n + K)`, to the last bit.
    let k = xdb_core::profiles::CONFIDENCE_PRIOR;
    let closed = |r: f64| Some((n as f64 * r + k) / (n as f64 + k));
    assert_eq!(
        p.wire_ratio("db1", "db2", Movement::Implicit),
        closed(0.375)
    );
    assert_eq!(p.compute_factor("db2"), closed(1.5));
    // And clamped: 10 000 samples of 1/1000 do not price a transfer at zero.
    let mut tiny = CostProfiles::default();
    for _ in 0..n {
        tiny.observe_wire("db1", "db2", Movement::Implicit, 0.001);
    }
    assert_eq!(
        tiny.wire_ratio("db1", "db2", Movement::Implicit),
        Some(xdb_core::profiles::WIRE_RATIO_CLAMP.0)
    );
}

#[test]
fn annotators_share_one_snapshot_and_an_absorb_leaves_it_alone() {
    let catalog = GlobalCatalog::new();
    assert!(catalog.learned_profiles().is_none());
    let absorb = |r: HistoryRecord| catalog.absorb_cost_observation(&r.cost, &r.statements);
    absorb(record("db1", "db2", 1000, 250, 3.0));
    // No absorb in between: the same allocation, not a copy.
    let first = catalog.learned_profiles().unwrap();
    let second = catalog.learned_profiles().unwrap();
    assert!(Arc::ptr_eq(&first, &second));
    // An absorb while the snapshot is out: the snapshot keeps its state,
    // the catalog moves on to a new one.
    let held = CostProfiles::clone(&first);
    absorb(record("db1", "db2", 4000, 3000, 2.4));
    assert_eq!(*first, held);
    let third = catalog.learned_profiles().unwrap();
    assert!(!Arc::ptr_eq(&first, &third));
    assert_ne!(*third, held);
    // No snapshot out: the store is updated where it is.
    let at = Arc::as_ptr(&third);
    drop((first, second, third));
    absorb(record("db2", "db1", 2000, 1000, 4.5));
    assert_eq!(Arc::as_ptr(&catalog.learned_profiles().unwrap()), at);
}
