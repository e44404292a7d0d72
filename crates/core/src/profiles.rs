//! Learned cost profiles: the feedback half of the cost model.
//!
//! The observatory (`crate::observatory`, `xdb_obs::costmodel`) measures
//! what every cross-database decision actually cost — true encoded bytes
//! per wire edge, per-engine statement work, consult charges. This module
//! aggregates those [`CostObservation`]s into **smoothed multiplicative
//! factors** that re-price future decisions:
//!
//! - **wire ratio** per edge shape (`from->to/movement`, with
//!   `from->to` / consuming-engine / global fallbacks): observed encoded
//!   bytes per estimated raw byte. Applied to the byte term of
//!   `cost::movement_cost_split`, it turns the model's raw-byte wire price
//!   into a learned encoded-byte estimate.
//! - **compute factor** per engine: observed statement work per predicted
//!   cross-database compute unit (`exec + startup` of chosen candidates).
//!   Applied to Eq. 1's exec/startup terms.
//!
//! **Smoothing and confidence.** Every factor is the sample mean blended
//! toward the static model's implicit 1.0 with a pseudo-count prior:
//! `(Σ samples + K) / (n + K)` with `K =` [`CONFIDENCE_PRIOR`] — one or
//! two outlier observations barely move a price, a consistent workload
//! history converges to the observed mean — then clamped to a per-factor
//! range ([`WIRE_RATIO_CLAMP`], [`COMPUTE_FACTOR_CLAMP`]) so a corrupted
//! or adversarial history cannot invert the cost order outright.
//!
//! **Determinism.** A store's state is a function of the *multiset* of
//! absorbed samples, not their order: a factor keeps a sample count and
//! the exact sum of the samples in 2⁻⁴⁰ fixed point. Integer addition is
//! associative where `f64` addition is not, so reading history files in any
//! order — or absorbing the same observations from concurrent sessions in
//! any interleaving — yields bit-identical factors, and the store's size
//! depends on the number of keys, not on how much was absorbed.
//! Observations themselves are bit-identical across stream-chunk sizes
//! (the observatory's contract), so feedback preserves
//! the repo's cross-axis determinism.
//!
//! **No file of its own.** A store is built by absorbing observations
//! (`Xdb::submit`) or history records ([`CostProfiles::from_history`],
//! [`CostProfiles::from_history_dir`], `repro --profiles dir/`), and in no
//! other way. A submit absorbs exactly its record's `cost` and
//! `statements`, so the history a workload wrote rebuilds the store it
//! learned: the record is the one persisted form of both.

use std::collections::BTreeMap;
use std::path::Path;
use xdb_net::{edge_pair, edge_shape, Movement};
use xdb_obs::costmodel::CostObservation;
use xdb_obs::history::{load_history_dir, HistoryRecord};

/// Pseudo-count prior pulling every learned factor toward the static
/// model's 1.0 (see module docs).
pub const CONFIDENCE_PRIOR: f64 = 2.0;

/// Clamp range for learned wire (encoded/raw byte) ratios. The lower
/// bound keeps a pathological history from pricing any transfer at ~zero;
/// the upper bound caps codec-overhead blowups.
pub const WIRE_RATIO_CLAMP: (f64, f64) = (0.05, 2.0);

/// Clamp range for learned per-engine compute-unit factors. Observed
/// statement work includes leaf/local stages the Eq. 1 terms never
/// modeled, so the raw ratio runs high; the clamp bounds how far learned
/// compute units may drift from the static profile.
pub const COMPUTE_FACTOR_CLAMP: (f64, f64) = (0.5, 2.0);

/// Fixed-point scale of [`FactorStat`]'s sum: a sample is stored as
/// `round(ratio × 2⁴⁰)`.
const FIXED_ONE: f64 = (1u64 << 40) as f64;

/// Largest stored sample (a ratio of 2⁴⁸; every clamp ends at 2). With it
/// the `u128` sum holds 2⁴⁰ samples before it saturates.
const FIXED_SAMPLE_MAX: f64 = (1u128 << 88) as f64;

/// One factor's observed samples as a count and their exact sum in
/// fixed point (see the module docs on determinism).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FactorStat {
    count: u64,
    sum: u128,
}

impl FactorStat {
    /// Fold one observed ratio in. Non-finite or non-positive samples are
    /// dropped: a degenerate edge (zero estimated bytes, poisoned
    /// arithmetic) must not poison the factor.
    pub(crate) fn observe(&mut self, ratio: f64) {
        if !ratio.is_finite() || ratio <= 0.0 {
            return;
        }
        let sample = (ratio * FIXED_ONE).round().min(FIXED_SAMPLE_MAX) as u128;
        self.merge(&FactorStat {
            count: 1,
            sum: sample,
        });
    }

    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Confidence-smoothed factor: `(Σ + K) / (n + K)` clamped to
    /// `clamp`, `None` when no samples were absorbed (the caller then
    /// falls through to the next granularity, ultimately to the static
    /// model).
    pub(crate) fn factor(&self, clamp: (f64, f64)) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let sum = self.sum as f64 / FIXED_ONE;
        let smoothed = (sum + CONFIDENCE_PRIOR) / (self.count as f64 + CONFIDENCE_PRIOR);
        Some(smoothed.clamp(clamp.0, clamp.1))
    }

    /// Union of both sample multisets.
    pub(crate) fn merge(&mut self, other: &FactorStat) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// The learned-profile store (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostProfiles {
    /// Wire ratio per `from->to/movement` edge shape.
    wire_by_shape: BTreeMap<String, FactorStat>,
    /// Wire ratio per `from->to` link, any movement.
    wire_by_pair: BTreeMap<String, FactorStat>,
    /// Wire ratio per consuming engine node.
    wire_by_engine: BTreeMap<String, FactorStat>,
    /// Wire ratio across every observed edge.
    wire_global: FactorStat,
    /// Observed-vs-predicted compute units per engine node.
    compute_by_engine: BTreeMap<String, FactorStat>,
}

impl CostProfiles {
    /// The keyed factor tables.
    fn tables(&self) -> [&BTreeMap<String, FactorStat>; 4] {
        [
            &self.wire_by_shape,
            &self.wire_by_pair,
            &self.wire_by_engine,
            &self.compute_by_engine,
        ]
    }

    pub fn is_empty(&self) -> bool {
        self.keys() == 0 && self.wire_global.is_empty()
    }

    /// Keyed factors across every table: what the store's size follows
    /// (a factor is `Copy` and fixed-width, whatever it absorbed).
    pub fn keys(&self) -> usize {
        self.tables().iter().map(|t| t.len()).sum()
    }

    /// Total absorbed samples across every factor (wire samples counted
    /// once, via the global accumulator).
    pub fn samples(&self) -> u64 {
        self.wire_global.count()
            + self
                .compute_by_engine
                .values()
                .map(FactorStat::count)
                .sum::<u64>()
    }

    /// Learned encoded-per-raw byte ratio for moving data `from → to` via
    /// `movement`: most specific granularity with samples wins
    /// (shape → link → consuming engine → global); `None` when nothing
    /// relevant was ever observed (callers keep the static raw-byte
    /// price).
    pub fn wire_ratio(&self, from: &str, to: &str, movement: Movement) -> Option<f64> {
        self.wire_by_shape
            .get(&edge_shape(from, to, movement))
            .and_then(|s| s.factor(WIRE_RATIO_CLAMP))
            .or_else(|| {
                self.wire_by_pair
                    .get(&edge_pair(from, to))
                    .and_then(|s| s.factor(WIRE_RATIO_CLAMP))
            })
            .or_else(|| {
                self.wire_by_engine
                    .get(to)
                    .and_then(|s| s.factor(WIRE_RATIO_CLAMP))
            })
            .or_else(|| self.wire_global.factor(WIRE_RATIO_CLAMP))
    }

    /// Learned compute-unit factor for `engine`; `None` keeps the static
    /// profile's units.
    pub fn compute_factor(&self, engine: &str) -> Option<f64> {
        self.compute_by_engine
            .get(engine)
            .and_then(|s| s.factor(COMPUTE_FACTOR_CLAMP))
    }

    /// Record one wire encoded-per-raw ratio for an edge, at every
    /// granularity (shape, link, consuming engine, global).
    pub fn observe_wire(&mut self, from: &str, to: &str, movement: Movement, ratio: f64) {
        self.wire_by_shape
            .entry(edge_shape(from, to, movement))
            .or_default()
            .observe(ratio);
        self.wire_by_pair
            .entry(edge_pair(from, to))
            .or_default()
            .observe(ratio);
        self.wire_by_engine
            .entry(to.to_string())
            .or_default()
            .observe(ratio);
        self.wire_global.observe(ratio);
    }

    /// Record one observed-per-predicted compute-unit ratio for an engine.
    pub fn observe_compute(&mut self, engine: &str, ratio: f64) {
        self.compute_by_engine
            .entry(engine.to_string())
            .or_default()
            .observe(ratio);
    }

    /// Fold one query's cost observation (plus its per-engine statement
    /// work) into the store.
    pub(crate) fn absorb(&mut self, cost: &CostObservation, statements: &[(String, f64)]) {
        let mut pred_compute: BTreeMap<&str, f64> = BTreeMap::new();
        for d in &cost.decisions {
            if let Some(c) = d.candidates.iter().find(|c| c.chosen) {
                *pred_compute.entry(d.dbms.as_str()).or_default() += c.exec_ms + c.startup_ms;
            }
            for e in d.edges.iter().filter(|e| e.matched) {
                if e.pred_bytes == 0 {
                    continue;
                }
                let ratio = e.obs_encoded_bytes as f64 / e.pred_bytes as f64;
                let movement = if e.movement == Movement::Explicit.label() {
                    Movement::Explicit
                } else {
                    Movement::Implicit
                };
                self.observe_wire(&e.from, &e.to, movement, ratio);
            }
        }
        for (engine, obs_ms) in statements {
            if let Some(pred) = pred_compute.get(engine.as_str()) {
                if *pred > 0.0 && *obs_ms > 0.0 {
                    self.compute_by_engine
                        .entry(engine.clone())
                        .or_default()
                        .observe(obs_ms / pred);
                }
            }
        }
    }

    /// Fold one history record in (its cost bundle + statement work).
    pub fn absorb_record(&mut self, record: &HistoryRecord) {
        self.absorb(&record.cost, &record.statements);
    }

    /// Build a store from a set of history records.
    pub fn from_history(records: &[HistoryRecord]) -> CostProfiles {
        let mut p = CostProfiles::default();
        for r in records {
            p.absorb_record(r);
        }
        p
    }

    /// Build a store from `<dir>/history.jsonl` (the `repro --history`
    /// output format).
    pub fn from_history_dir(dir: impl AsRef<Path>) -> Result<CostProfiles, String> {
        Ok(Self::from_history(&load_history_dir(dir)?))
    }

    /// One-line description for reports.
    pub fn describe(&self) -> String {
        format!(
            "{} wire sample(s) across {} edge shape(s), {} engine compute factor(s)",
            self.wire_global.count(),
            self.wire_by_shape.len(),
            self.compute_by_engine.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_obs::costmodel::{CandidateObs, DecisionObs, EdgeJoin};

    fn observation(encoded: u64, raw: u64) -> CostObservation {
        CostObservation {
            decisions: vec![DecisionObs {
                dbms: "hdb".to_string(),
                consult_ms: 24.0,
                candidates: vec![CandidateObs {
                    dbms: "hdb".to_string(),
                    exec_ms: 50.0,
                    startup_ms: 10.0,
                    chosen: true,
                    ..Default::default()
                }],
                edges: vec![EdgeJoin {
                    from: "cdb".to_string(),
                    to: "hdb".to_string(),
                    movement: "implicit".to_string(),
                    engine: "hdb".to_string(),
                    codec: "dict".to_string(),
                    pred_bytes: raw,
                    obs_encoded_bytes: encoded,
                    matched: true,
                    ..Default::default()
                }],
                ..Default::default()
            }],
            consult_ms: 24.0,
            ..Default::default()
        }
    }

    #[test]
    fn absorb_learns_wire_and_compute_factors() {
        let mut p = CostProfiles::default();
        assert!(p.is_empty());
        assert_eq!(p.wire_ratio("cdb", "hdb", Movement::Implicit), None);
        p.absorb(&observation(400, 1000), &[("hdb".to_string(), 90.0)]);
        // One 0.4 sample, prior K=2 toward 1.0: (0.4 + 2) / 3 = 0.8.
        let r = p.wire_ratio("cdb", "hdb", Movement::Implicit).unwrap();
        assert!((r - 0.8).abs() < 1e-12, "{r}");
        // Unknown shape falls back through pair/engine/global to the same
        // single sample.
        assert_eq!(p.wire_ratio("cdb", "hdb", Movement::Explicit), Some(r));
        assert_eq!(p.wire_ratio("vdb", "hdb", Movement::Implicit), Some(r));
        assert_eq!(p.wire_ratio("vdb", "cdb", Movement::Implicit), Some(r));
        // Compute: 90 observed over 60 predicted = 1.5; (1.5+2)/3 ≈ 1.1667.
        let f = p.compute_factor("hdb").unwrap();
        assert!((f - (1.5 + 2.0) / 3.0).abs() < 1e-12, "{f}");
        assert_eq!(p.compute_factor("cdb"), None);
        assert!(!p.is_empty());
        assert_eq!(p.samples(), 2);
    }

    #[test]
    fn factors_converge_to_sample_mean_and_clamp() {
        let mut s = FactorStat::default();
        for _ in 0..1000 {
            s.observe(0.4);
        }
        let f = s.factor(WIRE_RATIO_CLAMP).unwrap();
        assert!((f - 0.4).abs() < 2e-3, "{f}");
        // Clamps hold against extreme histories.
        let mut tiny = FactorStat::default();
        for _ in 0..100_000 {
            tiny.observe(1e-9);
        }
        assert_eq!(tiny.factor(WIRE_RATIO_CLAMP), Some(WIRE_RATIO_CLAMP.0));
        let mut huge = FactorStat::default();
        for _ in 0..100_000 {
            huge.observe(1e9);
        }
        assert_eq!(huge.factor(WIRE_RATIO_CLAMP), Some(WIRE_RATIO_CLAMP.1));
        // Degenerate samples are dropped outright.
        let mut bad = FactorStat::default();
        bad.observe(f64::NAN);
        bad.observe(f64::INFINITY);
        bad.observe(0.0);
        bad.observe(-3.0);
        assert!(bad.is_empty());
        assert_eq!(bad.factor(WIRE_RATIO_CLAMP), None);
    }

    #[test]
    fn zero_byte_edges_are_ignored() {
        let mut p = CostProfiles::default();
        p.absorb(&observation(0, 0), &[]);
        assert_eq!(p.wire_ratio("cdb", "hdb", Movement::Implicit), None);
        // A zero-encoded observation over real predicted bytes *is* a
        // sample (total collapse), dropped by the positivity guard.
        p.absorb(&observation(0, 1000), &[]);
        assert_eq!(p.wire_ratio("cdb", "hdb", Movement::Implicit), None);
    }

    #[test]
    fn merge_is_order_independent() {
        // Any order of the absorbs into one store: ratios whose `f64` sum
        // depends on the order of addition, bit-equal here.
        let absorb_all = |order: &[u64]| {
            let mut store = CostProfiles::default();
            for i in order {
                let (encoded, ms) = (1 + i * i * 7919 % 100_003, 10.0 + (i % 11) as f64 * 0.1);
                store.absorb(&observation(encoded, 99_991), &[("hdb".into(), ms)]);
            }
            store
        };
        let mut order: Vec<u64> = (0..200).collect();
        let reference = absorb_all(&order);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..5 {
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let shuffled = absorb_all(&order);
            assert_eq!(shuffled, reference);
            assert_eq!(
                shuffled.compute_factor("hdb").map(f64::to_bits),
                reference.compute_factor("hdb").map(f64::to_bits)
            );
            assert_eq!(
                shuffled.wire_ratio("cdb", "hdb", Movement::Implicit),
                reference.wire_ratio("cdb", "hdb", Movement::Implicit)
            );
        }
    }
}
