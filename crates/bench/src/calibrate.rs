//! `repro calibrate` — the cost-model observatory report.
//!
//! Runs the six-query TPC-H workload against a TDx on-premise federation
//! with an in-memory history store, then projects the records
//! ([`CalibrateReport::project`]): every run's predicted-vs-observed cost
//! observation (see `xdb_core::observatory`) folds into calibration-error
//! distributions — wire-time error per consuming engine, byte error per
//! wire codec, wire-time error per edge shape, compute-unit calibration
//! per engine — plus a per-query placement-regret table (observed cost of
//! the chosen plan vs the model's best rejected candidate).
//!
//! Everything is taken off the simulated clock and the deterministic
//! ledger, so the whole report is bit-identical across invocations and
//! executor modes.

use crate::experiments::{onprem, xdb_workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use xdb_core::XdbOptions;
use xdb_engine::error::Result;
use xdb_obs::costmodel::ErrorStats;
use xdb_obs::{summarize, CalibrationSummary, HistoryRecord, Telemetry};
use xdb_tpch::TableDist;

/// Per-query regret/error aggregation (means per run).
#[derive(Debug, Clone)]
pub struct QueryCalibration {
    pub query: String,
    pub runs: u64,
    /// Cross-database placement decisions per run.
    pub decisions: f64,
    /// Mean predicted cost of the chosen candidates (Eq. 1 ms) per run.
    pub predicted_ms: f64,
    /// Mean observed cost (compute terms + re-priced movements) per run.
    pub observed_ms: f64,
    /// Mean positive placement regret per run.
    pub regret_ms: f64,
    /// Mean |wire-time prediction error| in percent across matched edges.
    pub wire_abs_err_pct: f64,
}

/// Output of [`run_calibrate`]: a projection of the workload's records.
pub struct CalibrateReport {
    pub sf: f64,
    pub runs: usize,
    pub td: TableDist,
    pub summary: CalibrationSummary,
    /// Workload order (Q1..), one row per TPC-H query.
    pub per_query: Vec<QueryCalibration>,
}

/// Run the six-query workload `runs` times on `td`, its records appended to
/// `telemetry`'s history, and project the cost-model observatory bundles
/// they carry.
pub fn run_calibrate(
    td: TableDist,
    sf: f64,
    runs: usize,
    telemetry: &Arc<Telemetry>,
) -> Result<CalibrateReport> {
    let e = onprem(td, sf, telemetry)?;
    let records = xdb_workload(&e, &XdbOptions::default(), runs, true)?;
    Ok(CalibrateReport::project(td, sf, runs, &records))
}

impl CalibrateReport {
    /// The report of `records`: labelled XDB runs, each query `runs` times
    /// in a row, in workload order — what [`run_calibrate`] submits, and
    /// with `runs` = 1 what `repro --history dir/ profile` writes.
    pub fn project(td: TableDist, sf: f64, runs: usize, records: &[HistoryRecord]) -> Self {
        let per_query = records
            .chunks(runs.max(1))
            .map(|rs| {
                let mean = |f: fn(&HistoryRecord) -> f64| {
                    rs.iter().fold(0.0, |sum, r| sum + f(r)) / rs.len() as f64
                };
                QueryCalibration {
                    query: rs[0].label.clone(),
                    runs: rs.len() as u64,
                    decisions: mean(|r| r.cost.decisions.len() as f64),
                    predicted_ms: mean(|r| r.cost.decisions.iter().map(|d| d.predicted_ms).sum()),
                    observed_ms: mean(|r| r.cost.decisions.iter().map(|d| d.observed_ms).sum()),
                    regret_ms: mean(|r| r.cost.regret_ms()),
                    wire_abs_err_pct: mean(|r| r.cost.wire_abs_err_pct()),
                }
            })
            .collect();
        CalibrateReport {
            sf,
            runs,
            td,
            summary: summarize(records),
            per_query,
        }
    }
}

fn stats_table(out: &mut String, header: &str, rows: &BTreeMap<String, ErrorStats>) {
    let _ = writeln!(out, "{header}");
    let _ = writeln!(
        out,
        "  {:<28} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "key", "n", "mean%", "mean|%|", "min%", "max%"
    );
    for (key, s) in rows {
        let _ = writeln!(
            out,
            "  {:<28} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            key,
            s.count,
            s.mean_pct(),
            s.mean_abs_pct(),
            s.min_pct,
            s.max_pct
        );
    }
}

impl CalibrateReport {
    /// The text report `repro calibrate` prints.
    pub fn render(&self) -> String {
        let s = &self.summary;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== cost-model observatory: {} calibration (sf {}, {} run(s) per query) ==",
            self.td.name(),
            self.sf,
            self.runs
        );
        let _ = writeln!(
            out,
            "decisions {}, matched edges {}, unmatched edges {}",
            s.decisions, s.matched_edges, s.unmatched_edges
        );
        let _ = writeln!(
            out,
            "placement regret: {:.3} ms positive, {:+.3} ms net",
            s.regret_ms, s.net_regret_ms
        );
        stats_table(
            &mut out,
            "wire-time prediction error by engine:",
            &s.wire_by_engine,
        );
        stats_table(
            &mut out,
            "byte prediction error by codec (estimated raw vs wire encoded):",
            &s.bytes_by_codec,
        );
        stats_table(
            &mut out,
            "wire-time prediction error by edge shape:",
            &s.wire_by_shape,
        );
        let _ = writeln!(out, "compute calibration by engine (reference units):");
        let _ = writeln!(
            out,
            "  {:<28} {:>12} {:>12} {:>7}",
            "engine", "pred ms", "obs ms", "ratio"
        );
        for (engine, (pred, obs)) in &s.compute_by_engine {
            let ratio = if *obs > 0.0 { pred / obs } else { 0.0 };
            let _ = writeln!(
                out,
                "  {:<28} {:>12.3} {:>12.3} {:>6.2}x",
                engine, pred, obs, ratio
            );
        }
        let _ = writeln!(out, "per-query placement regret:");
        let _ = writeln!(
            out,
            "  {:<6} {:>5} {:>5} {:>12} {:>12} {:>10} {:>10}",
            "query", "runs", "dec", "pred ms", "obs ms", "regret ms", "wire|%|"
        );
        for q in &self.per_query {
            let _ = writeln!(
                out,
                "  {:<6} {:>5} {:>5.0} {:>12.3} {:>12.3} {:>10.3} {:>10.1}",
                q.query,
                q.runs,
                q.decisions,
                q.predicted_ms,
                q.observed_ms,
                q.regret_ms,
                q.wire_abs_err_pct
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_tpch::TpchQuery;

    const TEST_SF: f64 = 0.002;

    #[test]
    fn calibrate_covers_workload_and_renders() {
        let report = run_calibrate(TableDist::Td1, TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        let s = &report.summary;
        assert!(s.decisions > 0, "no placement decisions recorded");
        assert!(s.matched_edges > 0, "no ledger edges joined");
        assert!(!s.wire_by_engine.is_empty());
        assert!(!s.bytes_by_codec.is_empty());
        assert!(!s.wire_by_shape.is_empty());
        assert!(!s.compute_by_engine.is_empty());
        // All six queries run and the label survives into the table.
        assert_eq!(report.per_query.len(), TpchQuery::ALL.len());
        for q in &report.per_query {
            assert_eq!(q.runs, 1);
            assert!(q.predicted_ms >= 0.0);
        }
        // At least one query makes a real cross-database decision.
        assert!(report.per_query.iter().any(|q| q.decisions > 0.0));
        let text = report.render();
        assert!(text.contains("cost-model observatory"), "{text}");
        assert!(text.contains("placement regret"), "{text}");
        assert!(text.contains("prediction error by engine"), "{text}");
        assert!(text.contains("by codec"), "{text}");
        assert!(text.contains("by edge shape"), "{text}");
        for q in TpchQuery::ALL {
            assert!(text.contains(q.name()), "{text}");
        }
    }

    #[test]
    fn calibrate_is_deterministic_across_invocations() {
        let a = run_calibrate(TableDist::Td1, TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        let b = run_calibrate(TableDist::Td1, TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        assert_eq!(a.render(), b.render());
    }
}
