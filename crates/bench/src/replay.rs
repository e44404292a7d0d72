//! `repro replay` — learned-vs-static calibration replay.
//!
//! Re-annotates the recorded six-query workload twice over identical
//! data: once with the static Eq. 1–3 cost model (`learned_costs: false`)
//! and once priced through a fixed learned profile store
//! (`--profiles dir/`, typically the history a previous `repro … profile`
//! run wrote). Both arms execute for real, so every plan flip is reported
//! with its *predicted* delta (chosen-candidate Eq. 1 cost) and its
//! *measured* deltas (simulated wall clock, encoded wire bytes, placement
//! regret) — plus a result-row digest check proving the flip changed the
//! plan, not the answer.
//!
//! The learned arm prices against a **frozen** profile snapshot (no live
//! absorption), so the comparison is a pure function of the inputs:
//! replaying with no profiles (or an empty store) must report **zero**
//! flips — the tier-1 self-compare that pins the learned path's
//! bit-exact-fallback contract in CI. The report is a projection of the
//! two arms' history records ([`ReplayReport::project`]).

use crate::experiments::{onprem, xdb_workload};
use std::fmt::Write as _;
use std::sync::Arc;
use xdb_core::{CostProfiles, XdbOptions};
use xdb_engine::error::Result;
use xdb_obs::costmodel::ErrorStats;
use xdb_obs::{summarize, HistoryRecord, Telemetry};
use xdb_tpch::TableDist;

/// One query's measurements under one cost-model arm.
#[derive(Debug, Clone, Default)]
pub struct ReplayArm {
    /// Canonical delegation-plan fingerprint.
    pub fingerprint: String,
    /// End-to-end simulated time.
    pub total_ms: f64,
    /// Encoded bytes this query put on the wire (every edge it recorded).
    pub encoded_bytes: u64,
    /// Positive placement regret (observed chosen vs best rejected).
    pub regret_ms: f64,
    /// Predicted Eq. 1 cost of the chosen candidates.
    pub predicted_ms: f64,
    /// Digest of the ordered result cells.
    pub digest: String,
}

impl ReplayArm {
    /// The arm of the query `record` holds.
    fn new(record: &HistoryRecord) -> ReplayArm {
        ReplayArm {
            fingerprint: record.fingerprint.clone(),
            total_ms: record.total_ms,
            encoded_bytes: record.edges.iter().map(|e| e.encoded_bytes).sum(),
            regret_ms: record.cost.regret_ms(),
            predicted_ms: record.cost.decisions.iter().map(|d| d.predicted_ms).sum(),
            digest: record.result_digest.clone(),
        }
    }
}

/// Static-vs-learned comparison of one workload query.
#[derive(Debug, Clone)]
pub struct ReplayRow {
    pub query: String,
    pub static_arm: ReplayArm,
    pub learned_arm: ReplayArm,
}

impl ReplayRow {
    /// Did the learned profiles change the delegation plan?
    pub fn flipped(&self) -> bool {
        self.static_arm.fingerprint != self.learned_arm.fingerprint
    }

    /// Measured wall-clock delta, percent (negative = learned faster).
    pub fn wall_delta_pct(&self) -> f64 {
        if self.static_arm.total_ms <= 0.0 {
            return 0.0;
        }
        100.0 * (self.learned_arm.total_ms - self.static_arm.total_ms) / self.static_arm.total_ms
    }

    /// Measured encoded-byte delta, percent (negative = learned moved
    /// fewer bytes).
    pub fn bytes_delta_pct(&self) -> f64 {
        if self.static_arm.encoded_bytes == 0 {
            return 0.0;
        }
        100.0 * (self.learned_arm.encoded_bytes as f64 - self.static_arm.encoded_bytes as f64)
            / self.static_arm.encoded_bytes as f64
    }
}

/// Output of [`run_replay`]: a projection of the two arms' records.
pub struct ReplayReport {
    pub sf: f64,
    pub td: TableDist,
    /// Description of the profile store the learned arm priced against.
    pub profile_source: String,
    pub rows: Vec<ReplayRow>,
    /// Mean |wire-time prediction error| across matched edges, static arm.
    pub static_wire_abs_err_pct: f64,
    /// Same, learned arm.
    pub learned_wire_abs_err_pct: f64,
    /// Net placement regret (observed minus best alternative; negative =
    /// chosen plans beat every rejected candidate), per arm.
    pub static_net_regret_ms: f64,
    pub learned_net_regret_ms: f64,
}

/// Run the workload once under one cost-model arm: one labelled record
/// per query. `profiles` is the frozen store the learned arm prices
/// against (`None` → static model).
fn run_arm(
    td: TableDist,
    sf: f64,
    profiles: Option<&CostProfiles>,
    telemetry: &Arc<Telemetry>,
) -> Result<Vec<HistoryRecord>> {
    let e = onprem(td, sf, telemetry)?;
    if let Some(p) = profiles {
        e.catalog.set_profiles(p.clone());
    }
    let options = XdbOptions {
        // The static arm prices with the Eq. 1–3 model alone; the learned
        // arm never absorbs (frozen snapshot).
        learned_costs: profiles.is_some(),
        freeze_profiles: true,
        ..Default::default()
    };
    xdb_workload(&e, &options, 1, true)
}

/// Replay the workload under static and learned pricing, both arms'
/// records appended to `telemetry`'s history, and join the two arms per
/// query.
pub fn run_replay(
    td: TableDist,
    sf: f64,
    profiles: Option<&CostProfiles>,
    profile_source: &str,
    telemetry: &Arc<Telemetry>,
) -> Result<ReplayReport> {
    let static_arm = run_arm(td, sf, None, telemetry)?;
    let learned_arm = run_arm(td, sf, profiles, telemetry)?;
    let report = ReplayReport::project(td, sf, profile_source, &static_arm, &learned_arm);
    Ok(report)
}

impl ReplayReport {
    /// The report of two arms' records, one labelled record per query in
    /// the same order on both sides.
    pub fn project(
        td: TableDist,
        sf: f64,
        profile_source: &str,
        static_arm: &[HistoryRecord],
        learned_arm: &[HistoryRecord],
    ) -> ReplayReport {
        let wire_err = |records: &[HistoryRecord]| {
            let wire: ErrorStats = records.iter().flat_map(|r| r.cost.wire_errors()).collect();
            wire.mean_abs_pct()
        };
        let rows = static_arm
            .iter()
            .zip(learned_arm)
            .map(|(s, l)| ReplayRow {
                query: s.label.clone(),
                static_arm: ReplayArm::new(s),
                learned_arm: ReplayArm::new(l),
            })
            .collect();
        ReplayReport {
            sf,
            td,
            profile_source: profile_source.to_string(),
            rows,
            static_wire_abs_err_pct: wire_err(static_arm),
            learned_wire_abs_err_pct: wire_err(learned_arm),
            static_net_regret_ms: summarize(static_arm).net_regret_ms,
            learned_net_regret_ms: summarize(learned_arm).net_regret_ms,
        }
    }

    pub fn flips(&self) -> usize {
        self.rows.iter().filter(|r| r.flipped()).count()
    }

    /// Every query's two arms agree on their result digest, which compares
    /// floats rounded to 12 significant digits.
    pub fn results_identical(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.static_arm.digest == r.learned_arm.digest)
    }

    /// The text report `repro replay` prints. The "plan flips: N of M"
    /// line is the tier-1 self-compare anchor.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== replay: static vs learned cost model ({}, sf {}) ==",
            self.td.name(),
            self.sf
        );
        let _ = writeln!(out, "learned profiles: {}", self.profile_source);
        let _ = writeln!(
            out,
            "plan flips: {} of {} quer{}",
            self.flips(),
            self.rows.len(),
            if self.rows.len() == 1 { "y" } else { "ies" }
        );
        let _ = writeln!(
            out,
            "  {:<6} {:<5} {:>12} {:>12} {:>8} {:>14} {:>14} {:>8} {:>7}",
            "query",
            "flip",
            "static ms",
            "learned ms",
            "wall%",
            "static enc B",
            "learned enc B",
            "bytes%",
            "rows"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<6} {:<5} {:>12.3} {:>12.3} {:>+7.1}% {:>14} {:>14} {:>+7.1}% {:>7}",
                r.query,
                if r.flipped() { "FLIP" } else { "-" },
                r.static_arm.total_ms,
                r.learned_arm.total_ms,
                r.wall_delta_pct(),
                r.static_arm.encoded_bytes,
                r.learned_arm.encoded_bytes,
                r.bytes_delta_pct(),
                if r.static_arm.digest == r.learned_arm.digest {
                    "same"
                } else {
                    "DIFFER"
                }
            );
        }
        for r in self.rows.iter().filter(|r| r.flipped()) {
            let _ = writeln!(
                out,
                "  {}: predicted {:.3} -> {:.3} ms, regret {:.3} -> {:.3} ms",
                r.query,
                r.static_arm.predicted_ms,
                r.learned_arm.predicted_ms,
                r.static_arm.regret_ms,
                r.learned_arm.regret_ms
            );
        }
        let _ = writeln!(
            out,
            "wire |err|: static {:.1}% -> learned {:.1}%; net regret: \
             {:+.3} ms -> {:+.3} ms",
            self.static_wire_abs_err_pct,
            self.learned_wire_abs_err_pct,
            self.static_net_regret_ms,
            self.learned_net_regret_ms
        );
        let _ = writeln!(
            out,
            "result rows: {}",
            if self.results_identical() {
                "digests equal across arms (floats to 12 significant digits)"
            } else {
                "DIFFER — learned plans changed answers"
            }
        );
        out
    }
}

/// Learn a profile store from the history of one pass of the workload with
/// live feedback (the default options): the in-process equivalent of
/// `--profiles dir/`, and the store that pass left in its catalog.
pub fn learn_profiles(td: TableDist, sf: f64, telemetry: &Arc<Telemetry>) -> Result<CostProfiles> {
    let env = onprem(td, sf, telemetry)?;
    let records = xdb_workload(&env, &XdbOptions::default(), 1, true)?;
    Ok(CostProfiles::from_history(&records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_obs::history::parse_history_jsonl;

    const TEST_SF: f64 = 0.002;

    #[test]
    fn self_compare_reports_zero_flips() {
        // No profiles: the learned arm prices with an empty store, which
        // must fall back to the static model bit-exactly.
        let report = run_replay(
            TableDist::Td1,
            TEST_SF,
            None,
            "(none)",
            &Telemetry::new_handle(),
        )
        .unwrap();
        assert_eq!(report.flips(), 0, "{}", report.render());
        assert!(report.results_identical());
        for r in &report.rows {
            assert_eq!(r.static_arm.fingerprint, r.learned_arm.fingerprint);
            assert_eq!(r.static_arm.total_ms, r.learned_arm.total_ms);
            assert_eq!(r.static_arm.encoded_bytes, r.learned_arm.encoded_bytes);
        }
        assert_eq!(
            report.static_wire_abs_err_pct,
            report.learned_wire_abs_err_pct
        );
        assert!(report.render().contains("plan flips: 0 of"));
    }

    #[test]
    fn replay_with_workload_profiles_keeps_results_identical() {
        // Learn profiles from one calibration pass of the same workload,
        // then replay against them: whatever flips, answers must not.
        let telemetry = Telemetry::new_handle();
        let profiles = learn_profiles(TableDist::Td1, TEST_SF, &telemetry).unwrap();
        assert!(!profiles.is_empty());
        let report = run_replay(
            TableDist::Td1,
            TEST_SF,
            Some(&profiles),
            "(test)",
            &telemetry,
        )
        .unwrap();
        assert!(report.results_identical(), "{}", report.render());
        // The report is a projection of the arms' records: run again,
        // written as history lines and read back, they render the same.
        let read_back = |records: Vec<HistoryRecord>| {
            let lines: String = records.iter().map(|r| r.to_json() + "\n").collect();
            parse_history_jsonl(&lines).unwrap()
        };
        let arm = |profiles| run_arm(TableDist::Td1, TEST_SF, profiles, &telemetry).unwrap();
        let (static_arm, learned_arm) = (read_back(arm(None)), read_back(arm(Some(&profiles))));
        let projected =
            ReplayReport::project(TableDist::Td1, TEST_SF, "(test)", &static_arm, &learned_arm);
        assert_eq!(projected.render(), report.render());
    }
}
