//! Performance-drift detection over query-history stores.
//!
//! `repro drift --baseline dir/ --current dir/` loads two history
//! directories (see `xdb_obs::history`), groups records by
//! `(sql_fnv, deployment)`, and flags five kinds of drift:
//!
//! 1. **Plan flips** — the canonical plan fingerprint changed for the
//!    same SQL and deployment (the annotator placed tasks or chose
//!    movements differently);
//! 2. **Changed answers** — the group's records, on both sides, carry
//!    more than one result digest (exact: a plan that rounds a float
//!    differently counts); no flip budget excuses one;
//! 3. **Latency drift** — mean end-to-end simulated time moved beyond a
//!    noise band (default ±5%);
//! 4. **Composition shifts** — the critical-path category mix changed:
//!    a different dominant category (e.g. compute-bound → transfer-
//!    bound) or any category's share moving by more than 15 points;
//! 5. **Calibration drift** — the cost-model observatory's mean
//!    |wire-time prediction error| moved by more than 10 points: the
//!    Eq. 1–3 model got systematically better or worse at pricing the
//!    wire (e.g. a cost-profile or codec skew).
//!
//! A baseline group missing from the current store is a coverage finding.
//! Everything compares simulated-clock state, so a self-compare of two
//! runs of the same build is *exactly* zero findings — any finding is a
//! real behavior change, not noise. `query_id` is ignored: two histories
//! of one workload number their queries alike only when each was recorded
//! on fresh federations. The bench gate runs this as part of tier-1.

use std::collections::BTreeMap;
use xdb_obs::costmodel::ErrorStats;
use xdb_obs::history::{load_history_dir, HistoryRecord};

/// Default latency noise band, percent.
pub const DEFAULT_NOISE_PCT: f64 = 5.0;
/// Default tolerated share of query groups whose plan may flip between
/// two *learned-cost* histories (`repro drift --flip-rate`). Feedback is
/// expected to re-place some queries as profiles converge; more than this
/// share flipping at once signals an unstable or corrupted profile store.
pub const DEFAULT_FLIP_RATE_PCT: f64 = 25.0;
/// A category's critical-path share moving by more than this many
/// percentage points is a composition shift.
pub const COMPOSITION_POINTS: f64 = 15.0;
/// The observatory's mean |wire-time prediction error| moving by more
/// than this many percentage points is calibration drift.
pub const CALIBRATION_POINTS: f64 = 10.0;

/// What kind of drift a finding describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Plan fingerprint changed for the same SQL + deployment.
    PlanFlip,
    /// The same SQL + deployment returned different result rows.
    Answer,
    /// Mean latency moved beyond the noise band.
    Latency,
    /// Critical-path composition changed.
    Composition,
    /// Cost-model wire-time prediction error moved beyond the band.
    Calibration,
    /// A baseline query group is absent from the current store.
    Coverage,
    /// Learned-cost histories: more query groups flipped plans than the
    /// tolerated share.
    FlipRate,
}

impl DriftKind {
    pub fn label(self) -> &'static str {
        match self {
            DriftKind::PlanFlip => "plan-flip",
            DriftKind::Answer => "answer",
            DriftKind::Latency => "latency",
            DriftKind::Composition => "composition",
            DriftKind::Calibration => "calibration",
            DriftKind::Coverage => "coverage",
            DriftKind::FlipRate => "flip-rate",
        }
    }
}

/// One attributed drift finding.
#[derive(Debug, Clone)]
pub struct DriftFinding {
    pub kind: DriftKind,
    /// Display name of the query group (workload label if recorded,
    /// otherwise the SQL hash).
    pub query: String,
    pub detail: String,
}

/// Outcome of one baseline/current comparison.
#[derive(Debug, Default)]
pub struct DriftReport {
    /// Query groups compared (present on both sides).
    pub compared: usize,
    /// Query groups only in the current store (informational).
    pub new_groups: usize,
    pub findings: Vec<DriftFinding>,
    /// Plan flips tolerated under a `--flip-rate` budget (informational:
    /// learned-cost feedback is *expected* to re-place some queries).
    pub tolerated: Vec<DriftFinding>,
}

impl DriftReport {
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "drift: {} query group(s) compared, {} finding(s)",
            self.compared,
            self.findings.len()
        );
        if self.new_groups > 0 {
            out.push_str(&format!(
                " ({} new group(s) not in baseline)",
                self.new_groups
            ));
        }
        if !self.tolerated.is_empty() {
            out.push_str(&format!(
                ", {} tolerated plan flip(s)",
                self.tolerated.len()
            ));
        }
        out.push('\n');
        for f in &self.findings {
            out.push_str(&format!(
                "  [{:<11}] {}: {}\n",
                f.kind.label(),
                f.query,
                f.detail
            ));
        }
        for f in &self.tolerated {
            out.push_str(&format!(
                "  (tolerated) [{:<11}] {}: {}\n",
                f.kind.label(),
                f.query,
                f.detail
            ));
        }
        if self.passed() {
            out.push_str("  no drift\n");
        }
        out
    }
}

/// Aggregate view of one `(sql_fnv, deployment)` group.
struct Group {
    display: String,
    runs: usize,
    fingerprints: Vec<String>,
    /// The distinct result digests of the group's records, sorted.
    digests: Vec<String>,
    mean_total_ms: f64,
    /// Mean critical-path share per category, percent.
    shares: BTreeMap<String, f64>,
    /// Wire-time prediction error across every matched observatory edge
    /// of the group.
    cal: ErrorStats,
}

fn group(records: &[HistoryRecord]) -> BTreeMap<(String, String), Group> {
    let mut buckets: BTreeMap<(String, String), Vec<&HistoryRecord>> = BTreeMap::new();
    for r in records {
        buckets
            .entry((r.sql_fnv.clone(), r.deployment.clone()))
            .or_default()
            .push(r);
    }
    buckets
        .into_iter()
        .map(|(key, rs)| {
            let display = rs
                .iter()
                .find(|r| !r.label.is_empty())
                .map(|r| r.label.clone())
                .unwrap_or_else(|| format!("sql:{}", key.0));
            let distinct = |field: fn(&HistoryRecord) -> &String| {
                let mut values: Vec<String> = rs.iter().map(|r| field(r).clone()).collect();
                values.sort();
                values.dedup();
                values
            };
            let fingerprints = distinct(|r| &r.fingerprint);
            let digests = distinct(|r| &r.result_digest);
            let mean_total_ms = rs.iter().map(|r| r.total_ms).sum::<f64>() / rs.len() as f64;
            // Mean per-category share of the critical path across runs.
            let mut shares: BTreeMap<String, f64> = BTreeMap::new();
            for r in rs.iter() {
                let total: f64 = r.critical.iter().map(|(_, _, ms)| ms).sum();
                if total <= 0.0 {
                    continue;
                }
                for (cat, ms) in r.critical_by_category() {
                    *shares.entry(cat).or_insert(0.0) += 100.0 * ms / total;
                }
            }
            for v in shares.values_mut() {
                *v /= rs.len() as f64;
            }
            let cal = rs.iter().flat_map(|r| r.cost.wire_errors()).collect();
            (
                key,
                Group {
                    display,
                    runs: rs.len(),
                    fingerprints,
                    digests,
                    mean_total_ms,
                    shares,
                    cal,
                },
            )
        })
        .collect()
}

/// The category with the largest share. A share that is NaN (a critical
/// path time that overflowed to `inf` in a damaged line) still orders.
fn dominant(shares: &BTreeMap<String, f64>) -> Option<(&str, f64)> {
    shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(k, v)| (k.as_str(), *v))
}

/// Compare two history-record sets. `noise_pct` is the latency band in
/// percent (see [`DEFAULT_NOISE_PCT`]); `flip_tolerance_pct` is a plan-flip
/// budget, for histories recorded with live cost feedback (where later
/// runs legitimately re-plan).
///
/// When `flip_tolerance_pct` is set, individual plan flips are tolerated —
/// reported informationally — up to that share of the compared query
/// groups; beyond it a single [`DriftKind::FlipRate`] finding fails the
/// report. Without it every flip is a strict [`DriftKind::PlanFlip`].
pub fn compare(
    baseline: &[HistoryRecord],
    current: &[HistoryRecord],
    noise_pct: f64,
    flip_tolerance_pct: Option<f64>,
) -> DriftReport {
    let base = group(baseline);
    let cur = group(current);
    let mut report = DriftReport {
        new_groups: cur.keys().filter(|k| !base.contains_key(*k)).count(),
        ..DriftReport::default()
    };
    let mut flips: Vec<DriftFinding> = Vec::new();
    for (key, b) in &base {
        let Some(c) = cur.get(key) else {
            report.findings.push(DriftFinding {
                kind: DriftKind::Coverage,
                query: b.display.clone(),
                detail: format!(
                    "present in baseline ({} run(s)) but missing from current store",
                    b.runs
                ),
            });
            continue;
        };
        report.compared += 1;
        let finding = |kind, detail| DriftFinding {
            kind,
            query: c.display.clone(),
            detail,
        };
        if b.fingerprints != c.fingerprints {
            let detail = format!(
                "plan fingerprint changed: baseline {:?} -> current {:?}",
                b.fingerprints, c.fingerprints
            );
            let list = match flip_tolerance_pct {
                Some(_) => &mut flips,
                None => &mut report.findings,
            };
            list.push(finding(DriftKind::PlanFlip, detail));
        }
        if b.digests
            .iter()
            .chain(&c.digests)
            .any(|d| *d != b.digests[0])
        {
            let detail = format!(
                "result digest differs: baseline {:?} -> current {:?}",
                b.digests, c.digests
            );
            report.findings.push(finding(DriftKind::Answer, detail));
        }
        if b.mean_total_ms > 0.0 {
            let delta_pct = 100.0 * (c.mean_total_ms - b.mean_total_ms) / b.mean_total_ms;
            if delta_pct.abs() > noise_pct {
                let detail = format!(
                    "mean total {:.3} ms -> {:.3} ms ({:+.1}%, band ±{}%)",
                    b.mean_total_ms, c.mean_total_ms, delta_pct, noise_pct
                );
                report.findings.push(finding(DriftKind::Latency, detail));
            }
        }
        let (be, ce) = (b.cal.mean_abs_pct(), c.cal.mean_abs_pct());
        if (ce - be).abs() > CALIBRATION_POINTS {
            let detail = format!(
                "mean |wire-time prediction error| moved {be:.1}% -> {ce:.1}% \
                 (>{CALIBRATION_POINTS} points)"
            );
            report
                .findings
                .push(finding(DriftKind::Calibration, detail));
        }
        if let (Some((bcat, bshare)), Some((ccat, cshare))) =
            (dominant(&b.shares), dominant(&c.shares))
        {
            let shifted = if bcat != ccat {
                Some(format!(
                    "critical path went {bcat}-bound ({bshare:.0}%) -> \
                     {ccat}-bound ({cshare:.0}%)"
                ))
            } else {
                // Same dominant category: still flag the first category
                // whose share moved by more than the threshold.
                b.shares.keys().chain(c.shares.keys()).find_map(|cat| {
                    let bs = b.shares.get(cat).copied().unwrap_or(0.0);
                    let cs = c.shares.get(cat).copied().unwrap_or(0.0);
                    ((cs - bs).abs() > COMPOSITION_POINTS).then(|| {
                        format!(
                            "{cat} share of the critical path moved \
                             {bs:.1}% -> {cs:.1}% (>{COMPOSITION_POINTS} points)"
                        )
                    })
                })
            };
            report
                .findings
                .extend(shifted.map(|d| finding(DriftKind::Composition, d)));
        }
    }
    if let Some(tolerance) = flip_tolerance_pct {
        let rate = 100.0 * flips.len() as f64 / report.compared.max(1) as f64;
        if rate > tolerance {
            report.findings.push(DriftFinding {
                kind: DriftKind::FlipRate,
                query: "(all groups)".to_string(),
                detail: format!(
                    "{} of {} group(s) flipped plans ({rate:.0}%, \
                     tolerated {tolerance:.0}%)",
                    flips.len(),
                    report.compared
                ),
            });
        }
        report.tolerated = flips;
    }
    report
}

/// Load two history directories and compare them, with an optional
/// plan-flip budget (see [`compare`]).
pub fn compare_dirs_with(
    baseline: &str,
    current: &str,
    noise_pct: f64,
    flip_tolerance_pct: Option<f64>,
) -> Result<DriftReport, String> {
    let base = load_history_dir(baseline)?;
    let cur = load_history_dir(current)?;
    if base.is_empty() {
        return Err(format!("baseline {baseline} holds no history records"));
    }
    Ok(compare(&base, &cur, noise_pct, flip_tolerance_pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, fingerprint: &str, total_ms: f64) -> HistoryRecord {
        HistoryRecord {
            label: label.to_string(),
            deployment: "xdb".to_string(),
            sql_fnv: format!("fnv-{label}"),
            fingerprint: fingerprint.to_string(),
            tasks: 2,
            result_digest: format!("rows-{label}"),
            query_id: 1,
            total_ms,
            phases: vec![("exec".to_string(), total_ms)],
            consult_hits: 0,
            consult_misses: 0,
            consult_roundtrips: 0,
            crit_spans: 3,
            critical: vec![
                ("compute".to_string(), "hdb".to_string(), 0.7 * total_ms),
                (
                    "transfer".to_string(),
                    "cdb->hdb".to_string(),
                    0.3 * total_ms,
                ),
            ],
            edges: Vec::new(),
            statements: Vec::new(),
            cost: Default::default(),
            learned_costs: false,
        }
    }

    /// Attach an observatory bundle with one matched wire edge priced
    /// `pred_wire_ms` by the model and `obs_wire_ms` by the ledger.
    fn with_cal(mut r: HistoryRecord, pred_wire_ms: f64, obs_wire_ms: f64) -> HistoryRecord {
        r.cost = xdb_obs::CostObservation {
            decisions: vec![xdb_obs::DecisionObs {
                dbms: "hdb".to_string(),
                edges: vec![xdb_obs::EdgeJoin {
                    from: "cdb".to_string(),
                    to: "hdb".to_string(),
                    movement: "implicit".to_string(),
                    engine: "hdb".to_string(),
                    codec: "dict".to_string(),
                    pred_wire_ms,
                    obs_wire_ms,
                    matched: true,
                    ..Default::default()
                }],
                ..Default::default()
            }],
            ..Default::default()
        };
        r
    }

    #[test]
    fn self_compare_is_clean() {
        let records = vec![record("Q3", "aaaa", 100.0), record("Q5", "bbbb", 250.0)];
        let report = compare(&records, &records, DEFAULT_NOISE_PCT, None);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.compared, 2);
        assert!(report.render().contains("no drift"));
    }

    #[test]
    fn plan_flip_is_flagged() {
        let base = vec![record("Q3", "aaaa", 100.0)];
        let cur = vec![record("Q3", "cccc", 100.0)];
        let report = compare(&base, &cur, DEFAULT_NOISE_PCT, None);
        assert!(!report.passed());
        assert_eq!(report.findings[0].kind, DriftKind::PlanFlip);
        assert!(report.render().contains("plan-flip"), "{}", report.render());
    }

    #[test]
    fn changed_answer_is_flagged_even_under_a_flip_budget() {
        let base = vec![record("Q3", "aaaa", 100.0), record("Q5", "bbbb", 250.0)];
        let mut cur = base.clone();
        cur[1].result_digest = "rows-altered".to_string();
        for budget in [None, Some(100.0)] {
            let report = compare(&base, &cur, DEFAULT_NOISE_PCT, budget);
            assert_eq!(report.findings.len(), 1, "{}", report.render());
            let f = &report.findings[0];
            assert_eq!((f.kind, f.query.as_str()), (DriftKind::Answer, "Q5"));
            assert!(f.detail.contains("rows-altered"), "{}", f.detail);
            assert!(report.render().contains("[answer"), "{}", report.render());
        }
        // Two answers inside one store are flagged against itself.
        let split = [base.clone(), cur.clone()].concat();
        let report = compare(&split, &split, DEFAULT_NOISE_PCT, None);
        assert_eq!(report.findings.len(), 1, "{}", report.render());
        assert_eq!(report.findings[0].kind, DriftKind::Answer);
    }

    #[test]
    fn latency_regression_beyond_band_is_flagged() {
        let base = vec![record("Q3", "aaaa", 100.0)];
        let cur = vec![record("Q3", "aaaa", 125.0)];
        let report = compare(&base, &cur, DEFAULT_NOISE_PCT, None);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, DriftKind::Latency);
        assert!(report.findings[0].detail.contains("+25.0%"));
        // Inside the band: clean.
        let cur = vec![record("Q3", "aaaa", 103.0)];
        assert!(compare(&base, &cur, DEFAULT_NOISE_PCT, None).passed());
    }

    #[test]
    fn composition_shift_is_flagged() {
        let base = vec![record("Q3", "aaaa", 100.0)];
        let mut flipped = record("Q3", "aaaa", 100.0);
        // Same total, but now transfer-bound.
        flipped.critical = vec![
            ("transfer".to_string(), "cdb->hdb".to_string(), 80.0),
            ("compute".to_string(), "hdb".to_string(), 20.0),
        ];
        let report = compare(&base, &[flipped], DEFAULT_NOISE_PCT, None);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == DriftKind::Composition
                && f.detail.contains("compute-bound")
                && f.detail.contains("transfer-bound")));
    }

    #[test]
    fn cost_profile_skew_is_flagged_as_calibration_drift() {
        // Baseline: the model prices the wire perfectly. Current: the same
        // edge costs 4x the prediction (an injected cost-profile skew) —
        // the |error| jumps 0% -> 75%, far past the 10-point band.
        let base = vec![with_cal(record("Q3", "aaaa", 100.0), 10.0, 10.0)];
        let skew = vec![with_cal(record("Q3", "aaaa", 100.0), 10.0, 40.0)];
        let report = compare(&base, &skew, DEFAULT_NOISE_PCT, None);
        assert!(!report.passed());
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == DriftKind::Calibration)
            .expect("calibration finding");
        assert!(
            f.detail.contains("wire-time prediction error"),
            "{}",
            f.detail
        );
        assert!(
            report.render().contains("calibration"),
            "{}",
            report.render()
        );
        // Self-compare with observatory data stays clean.
        assert!(compare(&base, &base, DEFAULT_NOISE_PCT, None).passed());
    }

    #[test]
    fn flip_rate_tolerates_learned_flips_within_budget() {
        // 4 groups, 1 flips = 25% — inside a 30% budget.
        let base: Vec<_> = ["Q1", "Q2", "Q3", "Q4"]
            .iter()
            .map(|q| record(q, "aaaa", 100.0))
            .collect();
        let mut cur = base.clone();
        cur[0] = record("Q1", "ffff", 100.0);
        let report = compare(&base, &cur, DEFAULT_NOISE_PCT, Some(30.0));
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.tolerated.len(), 1);
        assert_eq!(report.tolerated[0].kind, DriftKind::PlanFlip);
        assert!(report.render().contains("tolerated"), "{}", report.render());
    }

    #[test]
    fn flip_rate_beyond_budget_is_a_finding() {
        let base: Vec<_> = ["Q1", "Q2", "Q3", "Q4"]
            .iter()
            .map(|q| record(q, "aaaa", 100.0))
            .collect();
        let mut cur = base.clone();
        cur[0] = record("Q1", "ffff", 100.0);
        cur[1] = record("Q2", "gggg", 100.0);
        // 50% of groups flipped against a 25% budget.
        let report = compare(&base, &cur, DEFAULT_NOISE_PCT, Some(DEFAULT_FLIP_RATE_PCT));
        assert!(!report.passed());
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == DriftKind::FlipRate)
            .expect("flip-rate finding");
        assert!(f.detail.contains("2 of 4"), "{}", f.detail);
        assert_eq!(report.tolerated.len(), 2);
        assert!(report.render().contains("flip-rate"), "{}", report.render());
    }

    #[test]
    fn overflowed_critical_path_time_is_a_report_not_a_panic() {
        // `1e999` reads as `inf`: the category share is then `inf/inf`.
        let mut r = record("Q3", "aaaa", 100.0);
        r.critical = vec![
            ("compute".to_string(), "hdb".to_string(), 60.0),
            ("transfer".to_string(), "cdb->hdb".to_string(), 40.0),
        ];
        let line = r.to_json().replacen("\"ms\":60", "\"ms\":1e999", 1);
        let records = xdb_obs::history::parse_history_jsonl(&line).unwrap();
        assert_eq!(records[0].critical[0].2, f64::INFINITY);
        assert_eq!(records[0].critical_by_category()[0].1, f64::INFINITY);
        let report = compare(&records, &records, DEFAULT_NOISE_PCT, None);
        assert_eq!(report.compared, 1);
        assert!(report
            .render()
            .starts_with("drift: 1 query group(s) compared"));
    }

    #[test]
    fn missing_group_is_a_coverage_finding() {
        let base = vec![record("Q3", "aaaa", 100.0), record("Q5", "bbbb", 250.0)];
        let cur = vec![record("Q3", "aaaa", 100.0)];
        let report = compare(&base, &cur, DEFAULT_NOISE_PCT, None);
        assert_eq!(report.compared, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].kind, DriftKind::Coverage);
        // New groups in current are informational, not findings.
        let report = compare(&cur, &base, DEFAULT_NOISE_PCT, None);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.new_groups, 1);
    }
}
