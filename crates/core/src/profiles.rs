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
//! associative where `f64` addition is not, so merging history files in any
//! order — or absorbing the same observations from concurrent sessions in
//! any interleaving — yields bit-identical factors, and the store's size
//! depends on the number of keys, not on how much was absorbed.
//! Observations themselves are bit-identical across reactor on/off and
//! stream-chunk sizes (the observatory's contract), so feedback preserves
//! the repo's cross-axis determinism.
//!
//! Persistence is schema-versioned JSON (`profiles.json`); history
//! directories (`history.jsonl`) are also accepted as a profile source via
//! [`CostProfiles::from_history_dir`] / `repro --profiles dir/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use xdb_net::{edge_pair, edge_shape, Movement};
use xdb_obs::costmodel::CostObservation;
use xdb_obs::history::{load_history_dir, HistoryRecord};
use xdb_obs::json;
use xdb_obs::trace::json_string;

/// Version of the on-disk profile layout; the only one this build reads.
/// v3: a factor is `"<count>:<fixed-point sum>"` in fixed-width hex (so a
/// file's size depends on its keys alone), not a list of samples.
/// v4: no `consult` factor.
pub const PROFILES_SCHEMA_VERSION: u64 = 4;

/// File name of a persisted profile store inside a directory.
pub const PROFILES_FILE: &str = "profiles.json";

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
    pub fn observe(&mut self, ratio: f64) {
        if !ratio.is_finite() || ratio <= 0.0 {
            return;
        }
        let sample = (ratio * FIXED_ONE).round().min(FIXED_SAMPLE_MAX) as u128;
        self.merge(&FactorStat {
            count: 1,
            sum: sample,
        });
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Confidence-smoothed factor: `(Σ + K) / (n + K)` clamped to
    /// `clamp`, `None` when no samples were absorbed (the caller then
    /// falls through to the next granularity, ultimately to the static
    /// model).
    pub fn factor(&self, clamp: (f64, f64)) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let sum = self.sum as f64 / FIXED_ONE;
        let smoothed = (sum + CONFIDENCE_PRIOR) / (self.count as f64 + CONFIDENCE_PRIOR);
        Some(smoothed.clamp(clamp.0, clamp.1))
    }

    /// Union of both sample multisets.
    pub fn merge(&mut self, other: &FactorStat) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    fn to_json(self) -> String {
        format!("\"{:016x}:{:032x}\"", self.count, self.sum)
    }

    fn from_json(v: &json::Value) -> Result<FactorStat, String> {
        v.as_str()
            .and_then(|s| s.split_once(':'))
            .filter(|(count, sum)| count.len() == 16 && sum.len() == 32)
            .and_then(|(count, sum)| {
                Some(FactorStat {
                    count: u64::from_str_radix(count, 16).ok()?,
                    sum: u128::from_str_radix(sum, 16).ok()?,
                })
            })
            .filter(|stat| stat.count > 0 || stat.sum == 0)
            .ok_or_else(|| "factor is not \"<16 hex count>:<32 hex sum>\"".to_string())
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
    /// The keyed factor tables, under their names in the file.
    fn tables(&self) -> [(&'static str, &BTreeMap<String, FactorStat>); 4] {
        [
            ("wire_shape", &self.wire_by_shape),
            ("wire_pair", &self.wire_by_pair),
            ("wire_engine", &self.wire_by_engine),
            ("compute_engine", &self.compute_by_engine),
        ]
    }

    pub fn is_empty(&self) -> bool {
        self.tables().iter().all(|(_, t)| t.is_empty()) && self.wire_global.is_empty()
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
    pub fn absorb(&mut self, cost: &CostObservation, statements: &[(String, f64)]) {
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

    /// Union with another store. Order-independent: merging A into B and
    /// B into A produce bit-identical factors, regardless of how the
    /// sample sets overlap.
    pub fn merge(&mut self, other: &CostProfiles) {
        let mine = [
            &mut self.wire_by_shape,
            &mut self.wire_by_pair,
            &mut self.wire_by_engine,
            &mut self.compute_by_engine,
        ];
        for (mine, (_, theirs)) in mine.into_iter().zip(other.tables()) {
            for (k, s) in theirs {
                mine.entry(k.clone()).or_default().merge(s);
            }
        }
        self.wire_global.merge(&other.wire_global);
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

    /// One JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"schema_version\":{PROFILES_SCHEMA_VERSION}");
        for (key, table) in self.tables() {
            let _ = write!(out, ",\"{key}\":{{");
            for (i, (k, s)) in table.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}{}:{}", json_string(k), s.to_json());
            }
            out.push('}');
        }
        let _ = write!(out, ",\"wire_global\":{}}}", self.wire_global.to_json());
        out
    }

    fn map_from_json(v: &json::Value, key: &str) -> Result<BTreeMap<String, FactorStat>, String> {
        let Some(json::Value::Object(items)) = v.get(key) else {
            return Err(format!("profiles missing object {key:?}"));
        };
        let mut map = BTreeMap::new();
        for (k, stat) in items {
            let stat = FactorStat::from_json(stat)
                .map_err(|e| format!("profiles {key:?} entry {k:?}: {e}"))?;
            map.insert(k.clone(), stat);
        }
        Ok(map)
    }

    /// Parse a store back out of its JSON form. Rejects unsupported
    /// schema versions and malformed factor tables with a clear error.
    pub fn from_json(v: &json::Value) -> Result<CostProfiles, String> {
        let version = v
            .get("schema_version")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| "profiles missing numeric \"schema_version\"".to_string())?
            as u64;
        if version != PROFILES_SCHEMA_VERSION {
            return Err(format!(
                "profiles schema_version {version} (this build reads {PROFILES_SCHEMA_VERSION})"
            ));
        }
        let wire_global = v
            .get("wire_global")
            .ok_or_else(|| "profiles missing \"wire_global\"".to_string())
            .and_then(|f| {
                FactorStat::from_json(f).map_err(|e| format!("profiles \"wire_global\": {e}"))
            })?;
        Ok(CostProfiles {
            wire_by_shape: Self::map_from_json(v, "wire_shape")?,
            wire_by_pair: Self::map_from_json(v, "wire_pair")?,
            wire_by_engine: Self::map_from_json(v, "wire_engine")?,
            wire_global,
            compute_by_engine: Self::map_from_json(v, "compute_engine")?,
        })
    }

    /// Write the store to `path` as schema-versioned JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        std::fs::write(path, format!("{}\n", self.to_json()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Read a store back from `path`; corrupt or unsupported files are a
    /// clear error, never a silently-empty store.
    pub fn load(path: impl AsRef<Path>) -> Result<CostProfiles, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Process-wide profile seed, set by `repro --profiles dir/` before any
/// catalog is built.
static SEED: parking_lot::Mutex<Option<CostProfiles>> = parking_lot::Mutex::new(None);

/// Install a process-wide profile seed: every [`crate::GlobalCatalog`]
/// built afterwards starts from a clone of `profiles` (pass `None` to
/// clear). This is how `repro --profiles dir/` threads a history-derived
/// store into experiment harnesses that build their own catalogs.
pub fn set_seed_profiles(profiles: Option<CostProfiles>) {
    *SEED.lock() = profiles;
}

/// The seed a fresh catalog starts from: what [`set_seed_profiles`]
/// installed, else the empty store.
pub(crate) fn seed_profiles() -> CostProfiles {
    SEED.lock().clone().unwrap_or_default()
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
        let mut a = CostProfiles::default();
        a.absorb(&observation(400, 1000), &[("hdb".to_string(), 90.0)]);
        a.absorb(&observation(300, 1000), &[("hdb".to_string(), 70.0)]);
        let mut b = CostProfiles::default();
        b.absorb(&observation(900, 1000), &[("hdb".to_string(), 120.0)]);
        // Overlapping sample sets: c shares b's observations.
        let mut c = CostProfiles::default();
        c.absorb(&observation(900, 1000), &[("hdb".to_string(), 120.0)]);
        c.absorb(&observation(500, 1000), &[]);

        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, cba);
        assert_eq!(abc.to_json(), cba.to_json());
        assert_eq!(
            abc.wire_ratio("cdb", "hdb", Movement::Implicit),
            cba.wire_ratio("cdb", "hdb", Movement::Implicit)
        );

        // Any interleaving of the absorbs over any number of shards, merged
        // in any order: ratios whose `f64` sum depends on the order of
        // addition, bit-equal here.
        let absorb_all = |order: &[u64], shards: usize| {
            let mut stores = vec![CostProfiles::default(); shards];
            for (k, i) in order.iter().enumerate() {
                let (encoded, ms) = (1 + i * i * 7919 % 100_003, 10.0 + (i % 11) as f64 * 0.1);
                stores[k % shards].absorb(&observation(encoded, 99_991), &[("hdb".into(), ms)]);
            }
            stores
                .iter()
                .rev()
                .fold(CostProfiles::default(), |mut all, s| {
                    all.merge(s);
                    all
                })
        };
        let mut order: Vec<u64> = (0..200).collect();
        let reference = absorb_all(&order, 1);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for shards in 1..=5 {
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            let shuffled = absorb_all(&order, shards);
            assert_eq!(shuffled, reference);
            assert_eq!(shuffled.to_json(), reference.to_json());
            assert_eq!(
                shuffled.compute_factor("hdb").map(f64::to_bits),
                reference.compute_factor("hdb").map(f64::to_bits)
            );
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let mut p = CostProfiles::default();
        p.absorb(&observation(400, 1000), &[("hdb".to_string(), 90.0)]);
        p.absorb(&observation(123, 777), &[("hdb".to_string(), 55.5)]);
        let v = json::parse(&p.to_json()).unwrap();
        let back = CostProfiles::from_json(&v).unwrap();
        assert_eq!(back, p);
        let empty = CostProfiles::default();
        let v = json::parse(&empty.to_json()).unwrap();
        assert_eq!(CostProfiles::from_json(&v).unwrap(), empty);
    }

    #[test]
    fn from_json_rejects_bad_versions_and_shapes() {
        let current = CostProfiles::default().to_json();
        let version = format!("\"schema_version\":{PROFILES_SCHEMA_VERSION}");
        // Neither a later layout nor an earlier one is read.
        for other in [PROFILES_SCHEMA_VERSION + 1, 3, 2, 1] {
            let text = current.replace(&version, &format!("\"schema_version\":{other}"));
            let err = CostProfiles::from_json(&json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
        let missing = "{\"wire_shape\":{}}";
        let err = CostProfiles::from_json(&json::parse(missing).unwrap()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let (zero, one) = ("0".repeat(16), format!("{:032x}", 1));
        for factor in [
            "\"zap\"".to_string(),
            "[0.25,0.5]".to_string(),
            format!("\"{zero}:1\""),
            format!("\"{zero}:{one}\""),
            format!("\"{zero}:{}\"", one.replace('1', "g")),
        ] {
            let bad = current.replace(
                "\"wire_shape\":{}",
                &format!("\"wire_shape\":{{\"a->b/implicit\":{factor}}}"),
            );
            let err = CostProfiles::from_json(&json::parse(&bad).unwrap()).unwrap_err();
            assert!(err.contains("a->b/implicit"), "{factor}: {err}");
        }
    }
}
