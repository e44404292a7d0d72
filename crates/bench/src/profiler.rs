//! The `repro profile` runner: critical-path bottleneck attribution for
//! the TD1 workload.
//!
//! Runs all six TPC-H queries on the TD1 on-premise federation and renders
//! the critical path each history record carries as a top-bottleneck table
//! — which query is slowest, how many spans its critical path has, and how
//! its end-to-end simulated latency splits into compute / transfer /
//! consult / DDL. The runner labels each record with the TPC-H query
//! name and appends it to the history sink of the telemetry handle it is
//! given, so with `repro --history dir/` every run is also recorded there.

use crate::experiments::{onprem, xdb_workload};
use std::sync::Arc;
use xdb_core::XdbOptions;
use xdb_engine::error::Result;
use xdb_obs::{HistoryRecord, Telemetry};
use xdb_tpch::TableDist;

/// Run the six TD1 queries once on a federation reporting into
/// `telemetry`; one history record per query.
pub fn profile_workload(sf: f64, telemetry: &Arc<Telemetry>) -> Result<Vec<HistoryRecord>> {
    let env = onprem(TableDist::Td1, sf, telemetry)?;
    xdb_workload(&env, &XdbOptions::default(), 1, true)
}

/// Render the top-bottleneck table, slowest query first.
pub fn render_table(sf: f64, records: &[HistoryRecord]) -> String {
    let mut sorted: Vec<&HistoryRecord> = records.iter().collect();
    sorted.sort_by(|a, b| {
        b.total_ms
            .total_cmp(&a.total_ms)
            .then(a.label.cmp(&b.label))
    });
    let mut out = format!("TD1 critical-path profile (sf {sf})\n");
    out.push_str(&format!(
        "{:<6} {:>10} {:>6} {:>10} {:>10} {:>10} {:>10}  {}\n",
        "query", "total_ms", "spans", "compute", "transfer", "consult", "ddl", "dominant"
    ));
    for r in sorted {
        let cats = r.critical_by_category();
        let cat = |name: &str| {
            cats.iter()
                .find(|(c, _)| c == name)
                .map_or(0.0, |(_, ms)| *ms)
        };
        let crit_ms: f64 = r.critical.iter().map(|(_, _, ms)| ms).sum();
        let dominant = match r.critical.first() {
            Some((category, location, ms)) => {
                format!("{:.0}% {category} on {location}", 100.0 * ms / crit_ms)
            }
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<6} {:>10.3} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3}  {}\n",
            r.label,
            r.total_ms,
            r.crit_spans,
            cat("compute"),
            cat("transfer"),
            cat("consult"),
            cat("ddl"),
            dominant
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_tpch::TpchQuery;

    #[test]
    fn profile_covers_workload_and_attributes_latency() {
        let env = onprem(TableDist::Td1, 0.002, &Telemetry::new_handle()).unwrap();
        let records = xdb_workload(&env, &XdbOptions::default(), 1, true).unwrap();
        assert_eq!(records.len(), TpchQuery::ALL.len());
        for r in &records {
            // Attribution tiles the whole end-to-end window.
            let crit_ms: f64 = r.critical.iter().map(|(_, _, ms)| ms).sum();
            assert!((crit_ms - r.total_ms).abs() < 1e-6, "{}", r.label);
            assert!(r.crit_spans >= 2, "{}", r.label);
        }
        let table = render_table(0.002, &records);
        assert!(table.contains("dominant"), "{table}");
        for q in TpchQuery::ALL {
            assert!(table.contains(q.name()), "{table}");
        }
    }
}
