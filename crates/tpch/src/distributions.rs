//! Table distributions over the seven-DBMS testbed (Table III of the
//! paper) and cluster loading.

use crate::dbgen::TpchGen;
use crate::schema::TpchTable;
use xdb_engine::cluster::Cluster;
use xdb_engine::error::Result;
use xdb_engine::profile::EngineProfile;
use xdb_net::{Scenario, Topology};

/// The seven DBMS nodes of the paper's testbed.
pub const NODES: [&str; 7] = ["db1", "db2", "db3", "db4", "db5", "db6", "db7"];

/// Table distributions of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableDist {
    Td1,
    Td2,
    Td3,
}

impl TableDist {
    pub const ALL: [TableDist; 3] = [TableDist::Td1, TableDist::Td2, TableDist::Td3];

    pub fn name(self) -> &'static str {
        match self {
            TableDist::Td1 => "TD1",
            TableDist::Td2 => "TD2",
            TableDist::Td3 => "TD3",
        }
    }

    /// `(node, tables-by-abbreviation)` rows, verbatim from Table III.
    pub(crate) fn placement(self) -> &'static [(&'static str, &'static [&'static str])] {
        match self {
            TableDist::Td1 => &[
                ("db1", &["l"]),
                ("db2", &["c", "o"]),
                ("db3", &["s", "n", "r"]),
                ("db4", &["p", "ps"]),
            ],
            TableDist::Td2 => &[
                ("db1", &["l", "s"]),
                ("db2", &["o", "n", "r"]),
                ("db3", &["c"]),
                ("db4", &["p", "ps"]),
            ],
            TableDist::Td3 => &[
                ("db1", &["l"]),
                ("db2", &["o"]),
                ("db3", &["s"]),
                ("db4", &["ps"]),
                ("db5", &["c"]),
                ("db6", &["p"]),
                ("db7", &["n", "r"]),
            ],
        }
    }

    /// Node a given table lives on.
    pub fn node_of(self, table: TpchTable) -> &'static str {
        for (node, abbrevs) in self.placement() {
            if abbrevs.contains(&table.abbrev()) {
                return node;
            }
        }
        unreachable!("every table is placed")
    }
}

/// Per-node engine profiles; defaults to PostgreSQL everywhere (the
/// paper's main setup). The heterogeneous setup of Fig 10 uses MariaDB for
/// db2 and Hive for db3.
#[derive(Debug, Clone)]
pub struct ProfileAssignment {
    pub default: EngineProfile,
    pub overrides: Vec<(&'static str, EngineProfile)>,
}

impl ProfileAssignment {
    pub fn uniform(profile: EngineProfile) -> ProfileAssignment {
        ProfileAssignment {
            default: profile,
            overrides: Vec::new(),
        }
    }

    /// The Fig 10 heterogeneous assignment: "MariaDB for db2, Hive for
    /// db3, and PostgreSQL for all other dbs".
    pub fn heterogeneous() -> ProfileAssignment {
        ProfileAssignment {
            default: EngineProfile::postgres(),
            overrides: vec![
                ("db2", EngineProfile::mariadb()),
                ("db3", EngineProfile::hive()),
            ],
        }
    }

    fn for_node(&self, node: &str) -> EngineProfile {
        self.overrides
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, p)| p.clone())
            .unwrap_or_else(|| self.default.clone())
    }
}

/// Build the seven-node cluster, generate TPC-H data at `scale`, and load
/// each table onto its TD node.
pub fn build_cluster(
    dist: TableDist,
    scale: f64,
    scenario: Scenario,
    profiles: &ProfileAssignment,
) -> Result<Cluster> {
    let topology = match scenario {
        Scenario::OnPremise => Topology::lan(&NODES),
        Scenario::GeoDistributed => Topology::geo(&NODES),
    };
    let mut cluster = Cluster::new(topology);
    for node in NODES {
        cluster.add_engine(node, profiles.for_node(node));
    }
    load_tables(&cluster, dist, scale)?;
    Ok(cluster)
}

/// Generate and load all eight tables into an existing cluster.
pub(crate) fn load_tables(cluster: &Cluster, dist: TableDist, scale: f64) -> Result<()> {
    let gen = TpchGen::new(scale);
    for table in TpchTable::ALL {
        let node = dist.node_of(table);
        cluster
            .engine(node)?
            .load_table(table.name(), gen.table(table))?;
    }
    Ok(())
}

/// Load every table onto a single node (the "localized tables" oracle and
/// mediator-side baselines).
pub fn load_all_on(cluster: &Cluster, node: &str, scale: f64) -> Result<()> {
    let gen = TpchGen::new(scale);
    for table in TpchTable::ALL {
        cluster
            .engine(node)?
            .load_table(table.name(), gen.table(table))?;
    }
    Ok(())
}

/// Render Table III as text (for the repro binary).
pub fn render_table3() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<6}", ""));
    for node in NODES {
        out.push_str(&format!("{node:>8}"));
    }
    out.push('\n');
    for dist in TableDist::ALL {
        out.push_str(&format!("{:<6}", dist.name()));
        for node in NODES {
            let tables: Vec<&str> = dist
                .placement()
                .iter()
                .filter(|(n, _)| *n == node)
                .flat_map(|(_, ts)| ts.iter().copied())
                .collect();
            let cell = if tables.is_empty() {
                "-".to_string()
            } else {
                tables.join(",")
            };
            out.push_str(&format!("{cell:>8}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_placed_once_per_dist() {
        for dist in TableDist::ALL {
            for t in TpchTable::ALL {
                let homes: Vec<&str> = dist
                    .placement()
                    .iter()
                    .filter(|(_, ts)| ts.contains(&t.abbrev()))
                    .map(|(n, _)| *n)
                    .collect();
                assert_eq!(homes.len(), 1, "{dist:?} {t:?} -> {homes:?}");
            }
        }
    }

    #[test]
    fn td3_spreads_over_seven_nodes() {
        assert_eq!(TableDist::Td3.placement().len(), 7);
        assert_eq!(TableDist::Td1.placement().len(), 4);
    }

    #[test]
    fn build_and_query_cluster() {
        let cluster = build_cluster(
            TableDist::Td1,
            0.001,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap();
        // lineitem lives on db1 under TD1.
        let (rel, _) = cluster
            .query("db1", "SELECT count(*) AS n FROM lineitem")
            .unwrap();
        assert!(rel.value(0, 0).as_int().unwrap() > 0);
        // customer lives on db2, not db1.
        assert!(cluster
            .query("db1", "SELECT count(*) FROM customer")
            .is_err());
        assert!(cluster
            .query("db2", "SELECT count(*) FROM customer")
            .is_ok());
    }

    #[test]
    fn heterogeneous_profiles_assign() {
        let p = ProfileAssignment::heterogeneous();
        assert_eq!(p.for_node("db2").vendor, "mariadb");
        assert_eq!(p.for_node("db3").vendor, "hive");
        assert_eq!(p.for_node("db1").vendor, "postgres");
    }

    #[test]
    fn table3_renders() {
        let t = render_table3();
        assert!(t.contains("TD1"));
        assert!(t.contains("c,o"));
        assert!(t.contains("n,r"));
    }
}
