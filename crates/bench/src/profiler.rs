//! The `repro profile` runner: critical-path bottleneck attribution for
//! the TD1 workload.
//!
//! Runs all six TPC-H queries on the TD1 on-premise federation, computes
//! each query's critical path (see `xdb_obs::critical`), and renders a
//! top-bottleneck table — which query is slowest, how many spans its
//! critical path has, and how its end-to-end simulated latency splits
//! into compute / transfer / consult / DDL. When the history sink is
//! enabled (`repro --history dir/`) every run is also recorded there,
//! labeled with the TPC-H query name.

use crate::experiments::{env, CLOUD};
use xdb_core::Xdb;
use xdb_engine::error::{EngineError, Result};
use xdb_engine::profile::EngineProfile;
use xdb_net::Scenario;
use xdb_obs::critical::{critical_path, ms, CriticalPath};
use xdb_tpch::{ProfileAssignment, TableDist, TpchQuery};

/// Critical-path profile of one workload query.
pub struct QueryProfile {
    pub name: String,
    pub total_ms: f64,
    pub crit: CriticalPath,
}

/// Run the six TD1 queries and profile each one's critical path.
pub fn profile_workload(sf: f64) -> Result<Vec<QueryProfile>> {
    let env = env(
        TableDist::Td1,
        sf,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )?;
    let mut out = Vec::new();
    for q in TpchQuery::ALL {
        env.cluster.ledger.clear();
        let telemetry = env.cluster.telemetry();
        telemetry.history.set_label(q.name());
        let xdb = Xdb::new(&env.cluster, &env.catalog).with_client_node(CLOUD);
        let outcome = xdb.submit(q.sql())?;
        telemetry.history.set_label("");
        let crit = critical_path(&outcome.trace).ok_or_else(|| {
            EngineError::Execution(format!("{} produced a trace without a root span", q.name()))
        })?;
        out.push(QueryProfile {
            name: q.name().to_string(),
            total_ms: outcome.breakdown.total_ms(),
            crit,
        });
    }
    Ok(out)
}

/// Render the top-bottleneck table, slowest query first.
pub fn render_table(sf: f64, profiles: &[QueryProfile]) -> String {
    let mut sorted: Vec<&QueryProfile> = profiles.iter().collect();
    sorted.sort_by(|a, b| {
        b.total_ms
            .partial_cmp(&a.total_ms)
            .unwrap()
            .then(a.name.cmp(&b.name))
    });
    let mut out = format!("TD1 critical-path profile (sf {sf})\n");
    out.push_str(&format!(
        "{:<6} {:>10} {:>6} {:>10} {:>10} {:>10} {:>10}  {}\n",
        "query", "total_ms", "spans", "compute", "transfer", "consult", "ddl", "dominant"
    ));
    for p in &sorted {
        let cats = p.crit.category_ns();
        let cat = |name: &str| ms(cats.get(name).copied().unwrap_or(0));
        let dominant = match p.crit.dominant() {
            Some(top) => format!(
                "{:.0}% {} on {}",
                p.crit.share_pct(top.ns),
                top.category.label(),
                top.location
            ),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<6} {:>10.3} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3}  {}\n",
            p.name,
            p.total_ms,
            p.crit.steps.len(),
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

    #[test]
    fn profile_covers_workload_and_attributes_latency() {
        let profiles = profile_workload(0.002).unwrap();
        assert_eq!(profiles.len(), TpchQuery::ALL.len());
        for p in &profiles {
            // Attribution tiles the whole end-to-end window exactly.
            assert_eq!(p.crit.attributed_ns(), p.crit.total_ns, "{}", p.name);
            assert!(p.crit.steps.len() >= 2, "{}", p.name);
            assert!(
                (ms(p.crit.total_ns) - p.total_ms).abs() < 1e-6,
                "{}",
                p.name
            );
        }
        let table = render_table(0.002, &profiles);
        assert!(table.contains("dominant"), "{table}");
        for q in TpchQuery::ALL {
            assert!(table.contains(q.name()), "{table}");
        }
    }
}
