//! `repro replay` — learned-vs-static calibration replay.
//!
//! Re-annotates the recorded six-query workload twice over identical
//! data: once with the static Eq. 1–3 cost model (`XDB_STATIC_COSTS`
//! semantics) and once priced through a fixed learned profile store
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
//! bit-exact-fallback contract in CI.

use crate::experiments::{env, CLOUD};
use std::fmt::Write as _;
use std::sync::Arc;
use xdb_core::{CostProfiles, Xdb, XdbOptions};
use xdb_engine::error::Result;
use xdb_engine::profile::EngineProfile;
use xdb_net::Scenario;
use xdb_obs::{summarize, Telemetry};
use xdb_tpch::{ProfileAssignment, TableDist, TpchQuery};

/// One query's measurements under one cost-model arm.
#[derive(Debug, Clone, Default)]
pub struct ReplayArm {
    /// Canonical delegation-plan fingerprint.
    pub fingerprint: String,
    /// End-to-end simulated time.
    pub total_ms: f64,
    /// Encoded bytes this query put on the wire (ledger total).
    pub encoded_bytes: u64,
    /// Positive placement regret (observed chosen vs best rejected).
    pub regret_ms: f64,
    /// Predicted Eq. 1 cost of the chosen candidates.
    pub predicted_ms: f64,
    /// FNV digest of the ordered result cells.
    pub digest: u64,
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

/// Output of [`run_replay`].
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

impl ReplayReport {
    pub fn flips(&self) -> usize {
        self.rows.iter().filter(|r| r.flipped()).count()
    }

    /// Every flip kept the result rows bit-identical.
    pub fn results_identical(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.static_arm.digest == r.learned_arm.digest)
    }
}

fn digest_relation(rel: &xdb_engine::relation::Relation) -> u64 {
    let mut cells = String::new();
    for i in 0..rel.len() {
        for c in 0..rel.width() {
            let _ = write!(cells, "{:?}|", rel.value(i, c));
        }
        cells.push('\n');
    }
    let mut h = 0xcbf29ce484222325u64;
    for b in cells.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Per-query outcomes labelled by query name, plus the arm's total wall
/// time (ms) and its mean absolute wire-prediction error (percent).
type ArmOutcome = (Vec<(String, ReplayArm)>, f64, f64);

/// Run the workload once under one cost-model arm. `profiles` is the
/// frozen store the learned arm prices against (`None` → static model).
fn run_arm(td: TableDist, sf: f64, profiles: Option<&CostProfiles>) -> Result<ArmOutcome> {
    let telemetry = Telemetry::new_handle();
    telemetry.history.enable_memory();
    let mut e = env(
        td,
        sf,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )?;
    e.catalog.set_telemetry(Arc::clone(&telemetry));
    e.cluster.set_telemetry(Arc::clone(&telemetry));
    if let Some(p) = profiles {
        e.catalog.set_profiles(p.clone());
    }
    let mut arms = Vec::new();
    for q in TpchQuery::ALL {
        telemetry.history.set_label(q.name());
        e.cluster.ledger.clear();
        let xdb = Xdb::new(&e.cluster, &e.catalog)
            .with_client_node(CLOUD)
            .with_options(XdbOptions {
                // Both arms pin the cost mode explicitly so ambient
                // XDB_STATIC_COSTS cannot skew the comparison; the
                // learned arm never absorbs (frozen snapshot).
                learned_costs: profiles.is_some(),
                freeze_profiles: true,
                ..Default::default()
            });
        let outcome = xdb.submit(q.sql())?;
        let encoded_bytes = e
            .cluster
            .ledger
            .snapshot()
            .iter()
            .map(|t| t.encoded_bytes)
            .sum();
        arms.push((
            q.name().to_string(),
            ReplayArm {
                fingerprint: xdb_core::annotate::plan_fingerprint(&outcome.delegation),
                total_ms: outcome.breakdown.total_ms(),
                encoded_bytes,
                regret_ms: outcome.cost.regret_ms(),
                predicted_ms: outcome.cost.decisions.iter().map(|d| d.predicted_ms).sum(),
                digest: digest_relation(&outcome.relation),
            },
        ));
    }
    telemetry.history.set_label("");
    let records = telemetry.history.records();
    let summary = summarize(&records);
    let wire_abs = summary
        .wire_by_shape
        .values()
        .fold((0.0f64, 0u64), |(s, n), e| {
            (s + e.mean_abs_pct() * e.count as f64, n + e.count)
        });
    let wire_abs_err = if wire_abs.1 > 0 {
        wire_abs.0 / wire_abs.1 as f64
    } else {
        0.0
    };
    Ok((arms, wire_abs_err, summary.net_regret_ms))
}

/// Replay the workload under static and learned pricing and join the two
/// arms per query.
pub fn run_replay(
    td: TableDist,
    sf: f64,
    profiles: Option<&CostProfiles>,
    profile_source: &str,
) -> Result<ReplayReport> {
    let (static_rows, static_err, static_net) = run_arm(td, sf, None)?;
    let (learned_rows, learned_err, learned_net) = run_arm(td, sf, profiles)?;
    let rows = static_rows
        .into_iter()
        .zip(learned_rows)
        .map(|((query, s), (_, l))| ReplayRow {
            query,
            static_arm: s,
            learned_arm: l,
        })
        .collect();
    Ok(ReplayReport {
        sf,
        td,
        profile_source: profile_source.to_string(),
        rows,
        static_wire_abs_err_pct: static_err,
        learned_wire_abs_err_pct: learned_err,
        static_net_regret_ms: static_net,
        learned_net_regret_ms: learned_net,
    })
}

impl ReplayReport {
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
                "bit-identical across arms"
            } else {
                "DIFFER — learned plans changed answers"
            }
        );
        out
    }
}

/// Learn a profile store by running the workload once with live feedback
/// (the in-process equivalent of seeding from a `--history` directory).
pub fn learn_profiles(td: TableDist, sf: f64) -> Result<CostProfiles> {
    let telemetry = Telemetry::new_handle();
    let mut e = env(
        td,
        sf,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )?;
    e.catalog.set_telemetry(Arc::clone(&telemetry));
    e.cluster.set_telemetry(Arc::clone(&telemetry));
    for q in TpchQuery::ALL {
        let xdb = Xdb::new(&e.cluster, &e.catalog)
            .with_client_node(CLOUD)
            .with_options(XdbOptions {
                learned_costs: true,
                freeze_profiles: false,
                ..Default::default()
            });
        xdb.submit(q.sql())?;
    }
    Ok(e.catalog.profiles_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SF: f64 = 0.002;

    #[test]
    fn self_compare_reports_zero_flips() {
        // No profiles: the learned arm prices with an empty store, which
        // must fall back to the static model bit-exactly.
        let report = run_replay(TableDist::Td1, TEST_SF, None, "(none)").unwrap();
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
        let profiles = learn_profiles(TableDist::Td1, TEST_SF).unwrap();
        assert!(!profiles.is_empty());
        let report = run_replay(TableDist::Td1, TEST_SF, Some(&profiles), "(test)").unwrap();
        assert!(report.results_identical(), "{}", report.render());
        // Deterministic: a second replay renders bit-identically.
        let again = run_replay(TableDist::Td1, TEST_SF, Some(&profiles), "(test)").unwrap();
        assert_eq!(report.render(), again.render());
    }
}
