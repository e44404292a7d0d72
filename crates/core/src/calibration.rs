//! Cost-unit calibration across heterogeneous engines (footnote 6 of the
//! paper, after refs 45–47).
//!
//! EXPLAIN cost estimates from different vendors are expressed in
//! vendor-specific units (PostgreSQL page fetches, MariaDB cost units,
//! Hive's planner numbers). Before the annotation cost model can compare
//! `cost(o, a)` across candidate DBMSes, XDB probes every engine with the
//! same synthetic workload and derives a per-engine scale factor to a
//! common unit — the *query sampling* approach of Zhu & Larson.

use std::collections::HashMap;
use xdb_engine::cluster::Cluster;
use xdb_engine::error::Result;
use xdb_sql::value::{DataType, Value};

/// Rows in the synthetic calibration table.
const PROBE_ROWS: usize = 1000;

/// Per-node multiplicative factors aligning EXPLAIN costs to the
/// reference unit (the first node probed is the reference).
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    factors: HashMap<String, f64>,
    reference: Option<String>,
}

impl Calibration {
    /// Probe every engine in the cluster: create a temporary table with
    /// identical content everywhere, `EXPLAIN` an identical scan+filter
    /// query, and compare the reported costs.
    pub fn probe(cluster: &Cluster) -> Result<Calibration> {
        let mut factors = HashMap::new();
        let mut reference: Option<(String, f64)> = None;
        for node in cluster.node_names() {
            let engine = cluster.engine(&node)?;
            let probe_table = format!("xdb_calib_{node}");
            let rel = xdb_engine::relation::Relation::new(
                vec![
                    ("k".to_string(), DataType::Int),
                    ("v".to_string(), DataType::Float),
                ],
                (0..PROBE_ROWS)
                    .map(|i| vec![Value::Int(i as i64), Value::Float(i as f64 * 0.5)])
                    .collect(),
            );
            engine.load_table(&probe_table, rel)?;
            let stmt =
                xdb_sql::parse_select(&format!("SELECT k FROM {probe_table} WHERE v > 100"))?;
            let info = engine.explain_select(&stmt)?;
            engine.execute_sql(&format!("DROP TABLE {probe_table}"), &xdb_engine::NoRemote)?;
            let cost = info.est_cost.max(1e-9);
            match &reference {
                None => {
                    factors.insert(node.clone(), 1.0);
                    reference = Some((node.clone(), cost));
                }
                Some((_, ref_cost)) => {
                    factors.insert(node.clone(), ref_cost / cost);
                }
            }
        }
        Ok(Calibration {
            factors,
            reference: reference.map(|(n, _)| n),
        })
    }

    /// Derive the same per-engine factors as [`Calibration::probe`]
    /// without touching any catalog. The probe ships one identical plan
    /// to every engine, so each EXPLAIN reports `C × cpu_tuple_cost_ms ×
    /// olap_factor` with the same plan-shape constant `C` — the factor
    /// reduces to the profile-unit ratio. Side-effect-free, so the
    /// cost-model observatory can scale compute costs mid-query (a real
    /// probe would create/drop tables, bumping DDL generations and
    /// invalidating consult caches — visibly perturbing the run).
    pub fn analytic(cluster: &Cluster) -> Calibration {
        let mut factors = HashMap::new();
        let mut reference: Option<(String, f64)> = None;
        for node in cluster.node_names() {
            let Ok(engine) = cluster.engine(&node) else {
                continue;
            };
            let unit = (engine.profile.cpu_tuple_cost_ms * engine.profile.olap_factor).max(1e-12);
            match &reference {
                None => {
                    factors.insert(node.clone(), 1.0);
                    reference = Some((node.clone(), unit));
                }
                Some((_, ref_unit)) => {
                    factors.insert(node.clone(), ref_unit / unit);
                }
            }
        }
        Calibration {
            factors,
            reference: reference.map(|(n, _)| n),
        }
    }

    pub fn factor(&self, node: &str) -> Option<f64> {
        self.factors.get(node).copied()
    }

    pub fn reference_node(&self) -> Option<&str> {
        self.reference.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_engine::profile::EngineProfile;
    use xdb_net::Topology;

    #[test]
    fn homogeneous_cluster_calibrates_to_unity() {
        let cluster = Cluster::lan(&["a", "b"], EngineProfile::postgres());
        let cal = Calibration::probe(&cluster).unwrap();
        assert_eq!(cal.factor("a"), Some(1.0));
        let fb = cal.factor("b").unwrap();
        assert!((fb - 1.0).abs() < 1e-9, "{fb}");
    }

    #[test]
    fn heterogeneous_cluster_gets_nontrivial_factors() {
        let mut cluster = Cluster::new(Topology::lan(&[]));
        cluster.add_engine("pg", EngineProfile::postgres());
        cluster.add_engine("maria", EngineProfile::mariadb());
        let cal = Calibration::probe(&cluster).unwrap();
        let f = cal.factor("pg").unwrap();
        // MariaDB reports higher vendor costs for the same probe, so its
        // factor to the reference unit is below the reference's.
        let fm = cal.factor("maria").unwrap();
        assert!(fm < f, "maria {fm} vs pg {f}");
        // Calibrated costs agree on the identical probe workload.
        let pg_cost = 100.0;
        let maria_cost = pg_cost * (f / fm);
        let a = pg_cost * f;
        let b = maria_cost * fm;
        assert!((a - b).abs() / a < 1e-6);
    }

    #[test]
    fn analytic_matches_probe_factors() {
        // The observatory's side-effect-free derivation must agree with
        // the real probe on both homogeneous and heterogeneous clusters.
        let mut cluster = Cluster::new(Topology::lan(&[]));
        cluster.add_engine("pg", EngineProfile::postgres());
        cluster.add_engine("maria", EngineProfile::mariadb());
        cluster.add_engine("hive", EngineProfile::hive());
        let probed = Calibration::probe(&cluster).unwrap();
        let analytic = Calibration::analytic(&cluster);
        assert_eq!(probed.reference_node(), analytic.reference_node());
        for node in ["pg", "maria", "hive"] {
            let p = probed.factor(node).unwrap();
            let a = analytic.factor(node).unwrap();
            assert!((p - a).abs() / p < 1e-9, "{node}: probe {p} analytic {a}");
        }
    }

    #[test]
    fn unknown_node_passes_through() {
        let cal = Calibration::default();
        assert_eq!(cal.factor("ghost"), None);
        assert_eq!(cal.reference_node(), None);
    }

    #[test]
    fn probe_cleans_up_after_itself() {
        let cluster = Cluster::lan(&["a"], EngineProfile::postgres());
        Calibration::probe(&cluster).unwrap();
        let names = cluster.engine("a").unwrap().with_catalog(|c| c.names());
        assert!(names.is_empty(), "{names:?}");
    }
}
