//! Learned-cost-profile persistence: the on-disk schema contract.
//!
//! A saved store reads back bit-identically; files of any other schema
//! version (no profile file is checked in, so there is nothing to migrate)
//! and corrupt files are a loud error naming the file, never a
//! silently-empty store; merging history shards is order-independent so
//! fleet-wide aggregation can proceed in any order; and the file's size
//! follows the number of keys, not the number of absorbed observations.

use std::sync::Arc;
use xdb_core::{CostProfiles, GlobalCatalog};
use xdb_net::Movement;
use xdb_obs::costmodel::{CandidateObs, CostObservation, DecisionObs, EdgeJoin};
use xdb_obs::history::HistoryRecord;

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

/// A store with every factor table populated.
fn sample_store() -> CostProfiles {
    let mut p = CostProfiles::default();
    p.observe_wire("db1", "db2", Movement::Implicit, 0.25);
    p.observe_wire("db1", "db2", Movement::Explicit, 0.5);
    p.observe_wire("db2", "db1", Movement::Implicit, 1.25);
    p.observe_compute("db1", 1.5);
    p.observe_compute("db2", 0.75);
    p
}

#[test]
fn saved_store_roundtrips_through_disk() {
    let scratch = Scratch::new("roundtrip");
    let path = scratch.path(xdb_core::profiles::PROFILES_FILE);
    let store = sample_store();
    store.save(&path).unwrap();
    let back = CostProfiles::load(&path).unwrap();
    assert_eq!(store.to_json(), back.to_json());
    assert_eq!(
        store.wire_ratio("db1", "db2", Movement::Implicit),
        back.wire_ratio("db1", "db2", Movement::Implicit)
    );
    assert_eq!(store.compute_factor("db1"), back.compute_factor("db1"));
}

#[test]
fn corrupt_files_are_rejected_with_the_path() {
    let scratch = Scratch::new("corrupt");
    for (name, text) in [
        ("garbage.json", "not json at all"),
        ("truncated.json", "{\"schema_version\":4,\"wire_shape\":{"),
        (
            "noversion.json",
            "{\"wire_shape\":{},\"compute_engine\":{}}",
        ),
        (
            "future.json",
            "{\"schema_version\":99,\"wire_shape\":{},\"compute_engine\":{}}",
        ),
        (
            "samples.json",
            "{\"schema_version\":2,\"wire_shape\":{\"a->b/implicit\":[0.25,0.5]},\
              \"compute_engine\":{}}",
        ),
        (
            "badfactor.json",
            "{\"schema_version\":4,\"wire_shape\":{\"a->b/implicit\":[\"x\"]},\
              \"wire_pair\":{},\"wire_engine\":{},\"compute_engine\":{}}",
        ),
    ] {
        let path = scratch.path(name);
        std::fs::write(&path, text).unwrap();
        let err = CostProfiles::load(&path).expect_err(name);
        assert!(
            err.contains(name),
            "error for {name} should name the file: {err}"
        );
    }
    // A missing file is equally loud.
    let err = CostProfiles::load(scratch.path("absent.json")).unwrap_err();
    assert!(err.contains("absent.json"), "{err}");
}

/// One history record carrying a single matched edge and one engine's
/// statement work, enough for `absorb` to learn from.
fn record(from: &str, to: &str, pred_bytes: u64, obs_encoded: u64, obs_ms: f64) -> HistoryRecord {
    HistoryRecord {
        schema_version: 3,
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
    // Bit-identical factors AND bit-identical serialized form, whichever
    // order the shards arrived in.
    assert_eq!(p_ab.to_json(), p_ba.to_json());
    assert_eq!(
        p_ab.wire_ratio("db1", "db2", Movement::Implicit),
        p_ba.wire_ratio("db1", "db2", Movement::Implicit)
    );

    // And explicit merge of separately-built stores agrees with the
    // concatenated load.
    let a = CostProfiles::from_history(&shard_a);
    let b = CostProfiles::from_history(&shard_b);
    let mut merged = a.clone();
    merged.merge(&b);
    let mut merged_rev = b;
    merged_rev.merge(&a);
    assert_eq!(merged.to_json(), p_ab.to_json());
    assert_eq!(merged_rev.to_json(), p_ab.to_json());
}

#[test]
fn the_file_does_not_grow_with_what_was_absorbed() {
    // Forty observations over a handful of edge shapes, then the same
    // workload a hundred times over: the 4 000-observation file is the
    // size of the 40-observation one.
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
    let scratch = Scratch::new("size");
    let size_after = |rounds: usize| {
        let mut store = CostProfiles::default();
        for _ in 0..rounds {
            for r in &workload {
                store.absorb_record(r);
            }
        }
        assert_eq!(store.samples(), 2 * 40 * rounds as u64);
        let path = scratch.path(&format!("profiles_{rounds}.json"));
        store.save(&path).unwrap();
        assert_eq!(CostProfiles::load(&path).unwrap(), store);
        std::fs::metadata(&path).unwrap().len()
    };
    let (small, large) = (size_after(1), size_after(100));
    assert!(
        large.abs_diff(small) * 100 <= small,
        "{small} bytes after 40 observations, {large} after 4000"
    );
}

#[test]
fn ten_thousand_absorbs_leave_a_store_the_size_of_one() {
    // A factor is `Copy`: it owns nothing out of line, so the store's heap
    // is its keys, and the fixed-width file shows when a key is added.
    fn owns_no_heap<T: Copy>() {}
    owns_no_heap::<xdb_core::profiles::FactorStat>();
    // 375/1000 and 4.5/3 are exact in fixed point.
    let r = record("db1", "db2", 1000, 375, 4.5);
    let mut p = CostProfiles::default();
    p.absorb_record(&r);
    let json_after_one = p.to_json().len();
    let n = 10_000u64;
    for _ in 1..n {
        p.absorb_record(&r);
    }
    assert_eq!(p.to_json().len(), json_after_one);
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
    let held = first.to_json();
    absorb(record("db1", "db2", 4000, 3000, 2.4));
    assert_eq!(first.to_json(), held);
    let third = catalog.learned_profiles().unwrap();
    assert!(!Arc::ptr_eq(&first, &third));
    assert_ne!(third.to_json(), held);
    // No snapshot out: the store is updated where it is.
    let at = Arc::as_ptr(&third);
    drop((first, second, third));
    absorb(record("db2", "db1", 2000, 1000, 4.5));
    assert_eq!(Arc::as_ptr(&catalog.learned_profiles().unwrap()), at);
}
