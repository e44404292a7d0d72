//! The cost-model observatory: predicted-vs-observed accounting for every
//! cross-database placement decision.
//!
//! The annotator solves Eq. 1–3 over *estimated* raw bytes and static
//! per-engine profiles; the telemetry layer observes what actually
//! happened — true encoded bytes per wire edge, per-engine statement work,
//! consult cache hits. This module is the measurement half of a
//! feedback-driven cost model (RHEEMix-style): it defines the record types
//! that pair each decision's predicted cost components (the chosen
//! alternative AND every rejected candidate) with the observed outcome,
//! plus the error/regret arithmetic and the per-(engine, codec, edge
//! shape) aggregation that `repro calibrate` reports.
//!
//! Everything here is **purely observational**: records are derived from
//! already-deterministic state (annotation decisions, the script-ordered
//! transfer ledger, simulated-clock statement work), so they are
//! bit-identical across stream-chunk sizes. Producing a record never feeds back into planning
//! or execution.
//!
//! **Placement regret** (per decision): the observed cost of the chosen
//! plan minus the model-predicted cost of the best *rejected* candidate.
//! The observed cost re-prices the chosen candidate's movement terms with
//! the observed wire (encoded bytes through the same link model) and
//! observed row counts, keeping the predicted compute terms — so regret
//! isolates the movement mispricing the wire codec introduces. Positive
//! regret means observation says a rejected candidate was modeled cheaper
//! than what the chosen plan actually cost: those are the systematically
//! wrong decisions, rankable by regret.

use crate::history::HistoryRecord;
use crate::json;
use std::collections::BTreeMap;

/// One costed `(a, x_l, x_r)` alternative, with its Eq. 1–3 component
/// split (all in simulated ms; `predicted_ms` is the exact total the
/// optimizer compared).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CandidateObs {
    pub dbms: String,
    /// `implicit` / `explicit`.
    pub left_move: String,
    pub right_move: String,
    pub predicted_ms: f64,
    /// Pure wire time of the left input over estimated raw bytes.
    pub wire_left_ms: f64,
    pub wire_right_ms: f64,
    /// Full Eq. 2–3 movement cost (includes the wire term).
    pub move_left_ms: f64,
    pub move_right_ms: f64,
    /// Eq. 1 join execution cost at `dbms`.
    pub exec_ms: f64,
    pub startup_ms: f64,
    /// Multiplicative factor aligning this engine's compute cost to the
    /// calibration reference unit (`calibration.rs`).
    pub calib_factor: f64,
    pub chosen: bool,
}

/// One predicted wire edge of a decision joined against the observed
/// transfer ledger record it produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EdgeJoin {
    pub from: String,
    pub to: String,
    /// `implicit` / `explicit`.
    pub movement: String,
    /// Consuming engine node (whose protocol overhead priced the wire).
    pub engine: String,
    /// Dominant codec of the observed payload by encoded bytes
    /// (lexicographic tie-break); `none` when the edge was not matched.
    pub codec: String,
    pub pred_rows: u64,
    /// Estimated raw bytes the model charged.
    pub pred_bytes: u64,
    pub pred_wire_ms: f64,
    pub obs_rows: u64,
    pub obs_bytes: u64,
    /// True post-codec bytes that crossed the wire.
    pub obs_encoded_bytes: u64,
    /// The same link model re-priced with `obs_encoded_bytes`.
    pub obs_wire_ms: f64,
    /// False when no ledger record matched (e.g. the edge collapsed);
    /// unmatched edges are excluded from error aggregation.
    pub matched: bool,
}

impl EdgeJoin {
    /// `from->to/movement` — the aggregation key for edge-shape stats.
    pub(crate) fn shape(&self) -> String {
        format!("{}->{}/{}", self.from, self.to, self.movement)
    }
}

/// One placement decision: predicted components for every candidate,
/// joined observations for the chosen movements, error and regret.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionObs {
    /// Annotation (bottom-up) order of the decision within its query.
    pub index: u64,
    /// Chosen engine node.
    pub dbms: String,
    /// Consult cost charged to the `ann` phase for this decision
    /// (`paid_consults × CONSULT_ROUNDTRIP_MS`).
    pub consult_ms: f64,
    /// Predicted Eq. 1 total of the chosen candidate (zero for heuristic
    /// policies, which cost nothing).
    pub predicted_ms: f64,
    /// Chosen cost re-priced with observed wire/rows (see module docs).
    pub observed_ms: f64,
    /// Model-predicted cost of the cheapest rejected candidate; zero when
    /// nothing was rejected.
    pub best_rejected_ms: f64,
    /// `observed_ms - best_rejected_ms` when a rejected candidate exists,
    /// else zero. Positive = observation ranks a rejected plan cheaper.
    pub regret_ms: f64,
    pub candidates: Vec<CandidateObs>,
    pub edges: Vec<EdgeJoin>,
}

/// Per-query bundle attached to [`HistoryRecord`] (schema v2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostObservation {
    pub decisions: Vec<DecisionObs>,
    /// Σ chosen `exec + startup` across decisions, scaled to the
    /// calibration reference unit. Covers cross-database stages only.
    pub pred_compute_ms: f64,
    /// Σ per-engine statement work — full statements, so the gap to
    /// `pred_compute_ms` measures the unmodeled (leaf/local) work too.
    pub obs_compute_ms: f64,
    /// Σ chosen wire terms over matched edges.
    pub pred_transfer_ms: f64,
    /// The same edges re-priced with observed encoded bytes.
    pub obs_transfer_ms: f64,
    /// Σ per-decision consult cost — equals the `ann` phase exactly.
    pub consult_ms: f64,
}

impl CostObservation {
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Positive-only total regret (the gate series: only observed-worse
    /// choices count against the model).
    pub fn regret_ms(&self) -> f64 {
        self.decisions.iter().map(|d| d.regret_ms.max(0.0)).sum()
    }

    /// Wire-time prediction error (percent) of every matched edge, in
    /// decision order: the one sample every wire-error mean folds.
    pub fn wire_errors(&self) -> impl Iterator<Item = f64> + '_ {
        self.decisions
            .iter()
            .flat_map(|d| &d.edges)
            .filter(|e| e.matched)
            .map(|e| error_pct(e.pred_wire_ms, e.obs_wire_ms))
    }

    /// Mean |wire-time prediction error| in percent over matched edges;
    /// zero when nothing matched.
    pub fn wire_abs_err_pct(&self) -> f64 {
        self.wire_errors().collect::<ErrorStats>().mean_abs_pct()
    }

    /// The bundle as the `cost` member of a history line.
    pub fn to_value(&self) -> json::Value {
        let text = |s: &String| json::Value::from(s.as_str());
        let decisions = self.decisions.iter().map(|d| {
            let candidates = d.candidates.iter().map(|c| {
                json::object([
                    ("dbms", text(&c.dbms)),
                    ("left_move", text(&c.left_move)),
                    ("right_move", text(&c.right_move)),
                    ("predicted_ms", c.predicted_ms.into()),
                    ("wire_left_ms", c.wire_left_ms.into()),
                    ("wire_right_ms", c.wire_right_ms.into()),
                    ("move_left_ms", c.move_left_ms.into()),
                    ("move_right_ms", c.move_right_ms.into()),
                    ("exec_ms", c.exec_ms.into()),
                    ("startup_ms", c.startup_ms.into()),
                    ("calib_factor", c.calib_factor.into()),
                    ("chosen", c.chosen.into()),
                ])
            });
            let edges = d.edges.iter().map(|e| {
                json::object([
                    ("from", text(&e.from)),
                    ("to", text(&e.to)),
                    ("movement", text(&e.movement)),
                    ("engine", text(&e.engine)),
                    ("codec", text(&e.codec)),
                    ("pred_rows", e.pred_rows.into()),
                    ("pred_bytes", e.pred_bytes.into()),
                    ("pred_wire_ms", e.pred_wire_ms.into()),
                    ("obs_rows", e.obs_rows.into()),
                    ("obs_bytes", e.obs_bytes.into()),
                    ("obs_encoded_bytes", e.obs_encoded_bytes.into()),
                    ("obs_wire_ms", e.obs_wire_ms.into()),
                    ("matched", e.matched.into()),
                ])
            });
            json::object([
                ("index", d.index.into()),
                ("dbms", text(&d.dbms)),
                ("consult_ms", d.consult_ms.into()),
                ("predicted_ms", d.predicted_ms.into()),
                ("observed_ms", d.observed_ms.into()),
                ("best_rejected_ms", d.best_rejected_ms.into()),
                ("regret_ms", d.regret_ms.into()),
                ("candidates", json::Value::Array(candidates.collect())),
                ("edges", json::Value::Array(edges.collect())),
            ])
        });
        json::object([
            ("pred_compute_ms", self.pred_compute_ms.into()),
            ("obs_compute_ms", self.obs_compute_ms.into()),
            ("pred_transfer_ms", self.pred_transfer_ms.into()),
            ("obs_transfer_ms", self.obs_transfer_ms.into()),
            ("consult_ms", self.consult_ms.into()),
            ("decisions", json::Value::Array(decisions.collect())),
        ])
    }

    /// Read the bundle back; every field is required (see
    /// [`HistoryRecord::from_json`]).
    pub(crate) fn from_json(v: &json::Value) -> Result<CostObservation, String> {
        let text = |v: &json::Value, key: &str| v.str(key).map(str::to_string);
        let candidate = |c: &json::Value| {
            Ok(CandidateObs {
                dbms: text(c, "dbms")?,
                left_move: text(c, "left_move")?,
                right_move: text(c, "right_move")?,
                predicted_ms: c.f64("predicted_ms")?,
                wire_left_ms: c.f64("wire_left_ms")?,
                wire_right_ms: c.f64("wire_right_ms")?,
                move_left_ms: c.f64("move_left_ms")?,
                move_right_ms: c.f64("move_right_ms")?,
                exec_ms: c.f64("exec_ms")?,
                startup_ms: c.f64("startup_ms")?,
                calib_factor: c.f64("calib_factor")?,
                chosen: c.bool("chosen")?,
            })
        };
        let edge = |e: &json::Value| {
            Ok(EdgeJoin {
                from: text(e, "from")?,
                to: text(e, "to")?,
                movement: text(e, "movement")?,
                engine: text(e, "engine")?,
                codec: text(e, "codec")?,
                pred_rows: e.u64("pred_rows")?,
                pred_bytes: e.u64("pred_bytes")?,
                pred_wire_ms: e.f64("pred_wire_ms")?,
                obs_rows: e.u64("obs_rows")?,
                obs_bytes: e.u64("obs_bytes")?,
                obs_encoded_bytes: e.u64("obs_encoded_bytes")?,
                obs_wire_ms: e.f64("obs_wire_ms")?,
                matched: e.bool("matched")?,
            })
        };
        let decision = |d: &json::Value| {
            Ok(DecisionObs {
                index: d.u64("index")?,
                dbms: text(d, "dbms")?,
                consult_ms: d.f64("consult_ms")?,
                predicted_ms: d.f64("predicted_ms")?,
                observed_ms: d.f64("observed_ms")?,
                best_rejected_ms: d.f64("best_rejected_ms")?,
                regret_ms: d.f64("regret_ms")?,
                candidates: d.each("candidates", candidate)?,
                edges: d.each("edges", edge)?,
            })
        };
        Ok(CostObservation {
            decisions: v.each("decisions", decision)?,
            pred_compute_ms: v.f64("pred_compute_ms")?,
            obs_compute_ms: v.f64("obs_compute_ms")?,
            pred_transfer_ms: v.f64("pred_transfer_ms")?,
            obs_transfer_ms: v.f64("obs_transfer_ms")?,
            consult_ms: v.f64("consult_ms")?,
        })
    }
}

/// Signed prediction error in percent of the observed value. Both zero →
/// 0%; observed zero but a prediction made → +100% (the model predicted
/// cost where none materialized). Degenerate inputs — a NaN/∞ estimate, or
/// an observed value so small the ratio overflows — are clamped to the
/// same ±100% sentinel instead of leaking non-finite percentages into
/// calibrate/drift output (zero-byte and zero-row edges hit this path).
pub fn error_pct(predicted: f64, observed: f64) -> f64 {
    if !predicted.is_finite() || !observed.is_finite() {
        return if predicted.to_bits() == observed.to_bits() {
            0.0
        } else {
            100.0
        };
    }
    if observed.abs() < 1e-12 {
        if predicted.abs() < 1e-12 {
            0.0
        } else {
            100.0
        }
    } else {
        let pct = (predicted - observed) / observed * 100.0;
        if pct.is_finite() {
            pct
        } else {
            100.0_f64.copysign(pct)
        }
    }
}

/// Streaming error-distribution accumulator (deterministic: plain sums in
/// push order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ErrorStats {
    pub count: u64,
    pub sum_pct: f64,
    pub sum_abs_pct: f64,
    pub min_pct: f64,
    pub max_pct: f64,
}

impl ErrorStats {
    /// Fold one percentage sample in. Non-finite samples are dropped: one
    /// degenerate edge (zero bytes, zero rows, a poisoned estimate) must
    /// not turn every mean/min/max of its group into NaN/∞.
    pub(crate) fn push(&mut self, pct: f64) {
        if !pct.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min_pct = pct;
            self.max_pct = pct;
        } else {
            self.min_pct = self.min_pct.min(pct);
            self.max_pct = self.max_pct.max(pct);
        }
        self.count += 1;
        self.sum_pct += pct;
        self.sum_abs_pct += pct.abs();
    }

    pub fn mean_pct(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_pct / self.count as f64
        }
    }

    pub fn mean_abs_pct(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_abs_pct / self.count as f64
        }
    }
}

impl FromIterator<f64> for ErrorStats {
    fn from_iter<I: IntoIterator<Item = f64>>(samples: I) -> ErrorStats {
        let mut stats = ErrorStats::default();
        samples.into_iter().for_each(|pct| stats.push(pct));
        stats
    }
}

/// Aggregated calibration view over a set of history records — what
/// `repro calibrate` renders and the bench gate snapshots.
#[derive(Debug, Clone, Default)]
pub struct CalibrationSummary {
    /// Wire-time prediction error per consuming engine node.
    pub wire_by_engine: BTreeMap<String, ErrorStats>,
    /// Byte prediction error (estimated raw vs observed encoded) per
    /// dominant codec.
    pub bytes_by_codec: BTreeMap<String, ErrorStats>,
    /// Wire-time prediction error per `from->to/movement` edge shape.
    pub wire_by_shape: BTreeMap<String, ErrorStats>,
    /// Per-engine `(predicted cross-database compute, observed statement
    /// work)` in ms.
    pub compute_by_engine: BTreeMap<String, (f64, f64)>,
    pub decisions: u64,
    pub matched_edges: u64,
    pub unmatched_edges: u64,
    /// Positive-only regret total across all records.
    pub regret_ms: f64,
    /// Signed regret total.
    pub net_regret_ms: f64,
}

/// Fold the cost observations of `records` into one summary. Records
/// without cost observations (schema v1 baselines) contribute nothing.
pub fn summarize(records: &[HistoryRecord]) -> CalibrationSummary {
    let mut s = CalibrationSummary::default();
    for r in records {
        for d in &r.cost.decisions {
            s.decisions += 1;
            s.regret_ms += d.regret_ms.max(0.0);
            s.net_regret_ms += d.regret_ms;
            let chosen = d.candidates.iter().find(|c| c.chosen);
            if let Some(c) = chosen {
                let e = s.compute_by_engine.entry(d.dbms.clone()).or_default();
                e.0 += (c.exec_ms + c.startup_ms) * c.calib_factor;
            }
            for e in &d.edges {
                if !e.matched {
                    s.unmatched_edges += 1;
                    continue;
                }
                s.matched_edges += 1;
                let wire_err = error_pct(e.pred_wire_ms, e.obs_wire_ms);
                s.wire_by_engine
                    .entry(e.engine.clone())
                    .or_default()
                    .push(wire_err);
                s.wire_by_shape.entry(e.shape()).or_default().push(wire_err);
                s.bytes_by_codec
                    .entry(e.codec.clone())
                    .or_default()
                    .push(error_pct(e.pred_bytes as f64, e.obs_encoded_bytes as f64));
            }
        }
        for (engine, ms) in &r.statements {
            s.compute_by_engine.entry(engine.clone()).or_default().1 += ms;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_cost() -> CostObservation {
        CostObservation {
            decisions: vec![DecisionObs {
                index: 0,
                dbms: "hdb".to_string(),
                consult_ms: 24.0,
                predicted_ms: 100.5,
                observed_ms: 80.25,
                best_rejected_ms: 90.0,
                regret_ms: -9.75,
                candidates: vec![
                    CandidateObs {
                        dbms: "hdb".to_string(),
                        left_move: "implicit".to_string(),
                        right_move: "implicit".to_string(),
                        predicted_ms: 100.5,
                        wire_left_ms: 10.0,
                        wire_right_ms: 0.0,
                        move_left_ms: 20.0,
                        move_right_ms: 0.0,
                        exec_ms: 70.5,
                        startup_ms: 10.0,
                        calib_factor: 1.0,
                        chosen: true,
                    },
                    CandidateObs {
                        dbms: "cdb".to_string(),
                        left_move: "implicit".to_string(),
                        right_move: "explicit".to_string(),
                        predicted_ms: 90.0,
                        calib_factor: 0.5,
                        ..Default::default()
                    },
                ],
                edges: vec![EdgeJoin {
                    from: "cdb".to_string(),
                    to: "hdb".to_string(),
                    movement: "implicit".to_string(),
                    engine: "hdb".to_string(),
                    codec: "dict".to_string(),
                    pred_rows: 100,
                    pred_bytes: 5000,
                    pred_wire_ms: 10.0,
                    obs_rows: 100,
                    obs_bytes: 5000,
                    obs_encoded_bytes: 2000,
                    obs_wire_ms: 4.0,
                    matched: true,
                }],
            }],
            pred_compute_ms: 80.5,
            obs_compute_ms: 120.0,
            pred_transfer_ms: 10.0,
            obs_transfer_ms: 4.0,
            consult_ms: 24.0,
        }
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let c = sample_cost();
        let v = json::parse(&c.to_value().to_json()).unwrap();
        assert_eq!(CostObservation::from_json(&v), Ok(c));
        let empty = CostObservation::default();
        let v = json::parse(&empty.to_value().to_json()).unwrap();
        assert_eq!(CostObservation::from_json(&v), Ok(empty));
    }

    #[test]
    fn error_pct_handles_zero_observations() {
        assert_eq!(error_pct(0.0, 0.0), 0.0);
        assert_eq!(error_pct(5.0, 0.0), 100.0);
        assert!((error_pct(15.0, 10.0) - 50.0).abs() < 1e-12);
        assert!((error_pct(5.0, 10.0) + 50.0).abs() < 1e-12);
    }

    #[test]
    fn error_pct_never_returns_non_finite() {
        // Degenerate edges: poisoned estimates and near-zero observations
        // must come back as finite sentinel percentages, never NaN/∞.
        assert_eq!(error_pct(f64::NAN, 5.0), 100.0);
        assert_eq!(error_pct(5.0, f64::NAN), 100.0);
        assert_eq!(error_pct(f64::INFINITY, 5.0), 100.0);
        assert_eq!(error_pct(f64::NAN, f64::NAN), 0.0);
        assert_eq!(error_pct(f64::INFINITY, f64::INFINITY), 0.0);
        // Observed barely above the zero threshold with a huge prediction:
        // the raw ratio overflows, the guard clamps it.
        let pct = error_pct(f64::MAX, 2e-12);
        assert!(pct.is_finite());
        assert_eq!(pct, 100.0);
        let pct = error_pct(-f64::MAX, 2e-12);
        assert!(pct.is_finite());
        assert_eq!(pct, -100.0);
    }

    #[test]
    fn stats_drop_non_finite_samples() {
        let mut s = ErrorStats::default();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(f64::NEG_INFINITY);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_pct(), 0.0);
        assert_eq!(s.mean_abs_pct(), 0.0);
        s.push(40.0);
        s.push(f64::NAN); // ignored between valid samples too
        s.push(-20.0);
        assert_eq!(s.count, 2);
        assert!((s.mean_pct() - 10.0).abs() < 1e-12);
        assert!((s.mean_abs_pct() - 30.0).abs() < 1e-12);
        assert_eq!(s.min_pct, -20.0);
        assert_eq!(s.max_pct, 40.0);
    }

    #[test]
    fn summarize_keeps_zero_byte_edges_finite() {
        // A matched edge that moved zero rows and zero bytes (an empty
        // relation) must not poison the per-codec/per-shape tables.
        let mut c = sample_cost();
        c.decisions[0].edges.push(EdgeJoin {
            from: "cdb".to_string(),
            to: "vdb".to_string(),
            movement: "implicit".to_string(),
            engine: "vdb".to_string(),
            codec: "raw".to_string(),
            matched: true,
            ..Default::default()
        });
        let r = HistoryRecord {
            cost: c,
            ..Default::default()
        };
        let s = summarize(&[r]);
        assert_eq!(s.matched_edges, 2);
        for table in [&s.wire_by_engine, &s.bytes_by_codec, &s.wire_by_shape] {
            for stats in table.values() {
                assert!(stats.mean_pct().is_finite());
                assert!(stats.mean_abs_pct().is_finite());
                assert!(stats.min_pct.is_finite());
                assert!(stats.max_pct.is_finite());
            }
        }
        // The zero/zero edge lands as an exact 0% error, not NaN.
        assert_eq!(s.bytes_by_codec["raw"].mean_pct(), 0.0);
    }

    #[test]
    fn stats_track_min_max_and_means() {
        let mut s = ErrorStats::default();
        s.push(-50.0);
        s.push(150.0);
        assert_eq!(s.count, 2);
        assert!((s.mean_pct() - 50.0).abs() < 1e-12);
        assert!((s.mean_abs_pct() - 100.0).abs() < 1e-12);
        assert_eq!(s.min_pct, -50.0);
        assert_eq!(s.max_pct, 150.0);
    }

    #[test]
    fn regret_totals_split_signed_and_positive() {
        let mut c = sample_cost();
        assert_eq!(c.regret_ms(), 0.0);
        c.decisions[0].regret_ms = 12.5;
        assert_eq!(c.regret_ms(), 12.5);
        // 150% wire error on the single matched edge: 10 pred vs 4 obs.
        assert!((c.wire_abs_err_pct() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn summarize_groups_by_engine_codec_and_shape() {
        let mut r = HistoryRecord {
            cost: sample_cost(),
            ..Default::default()
        };
        r.statements = vec![("hdb".to_string(), 120.0)];
        let s = summarize(&[r]);
        assert_eq!(s.decisions, 1);
        assert_eq!(s.matched_edges, 1);
        assert_eq!(s.unmatched_edges, 0);
        assert!(s.wire_by_engine.contains_key("hdb"));
        assert!(s.bytes_by_codec.contains_key("dict"));
        assert!(s.wire_by_shape.contains_key("cdb->hdb/implicit"));
        let (pred, obs) = s.compute_by_engine["hdb"];
        assert!((pred - 80.5).abs() < 1e-12);
        assert!((obs - 120.0).abs() < 1e-12);
        assert_eq!(s.regret_ms, 0.0);
        assert!((s.net_regret_ms + 9.75).abs() < 1e-12);
    }
}
