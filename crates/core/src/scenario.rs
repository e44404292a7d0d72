//! The paper's motivating scenario (Section II-A, Table I): the Municipal
//! Office of Credo with three departmental DBMSes —
//!
//! - `cdb`: the citizens' department (`citizen`);
//! - `vdb`: the vaccination center (`vaccines`, `vaccination`);
//! - `hdb`: the health department (`measurements`).
//!
//! Data is generated deterministically (tiny embedded xorshift PRNG, no
//! external dependency) so tests and examples are reproducible.

use crate::global::GlobalCatalog;
use xdb_engine::cluster::Cluster;
use xdb_engine::error::Result;
use xdb_engine::profile::EngineProfile;
use xdb_engine::relation::Relation;
use xdb_sql::value::{date, DataType, Value};

/// The example cross-database query of Figure 3: antibody levels per
/// vaccine type and age group, for citizens over 20.
pub const EXAMPLE_QUERY: &str = "SELECT v.vtype, avg(m.u_ml) AS avg_u_ml, \
 case when c.age between 20 and 30 then '20-30' \
      when c.age between 30 and 40 then '30-40' \
      when c.age between 40 and 60 then '40-60' \
      else '60+' end AS age_group \
 FROM citizen c, vaccines v, vaccination vn, measurements m \
 WHERE c.id = vn.c_id AND c.id = m.c_id AND v.id = vn.v_id AND c.age > 20 \
 GROUP BY age_group, v.vtype \
 ORDER BY age_group, v.vtype";

/// Scenario sizing.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    pub citizens: usize,
    /// Number of vaccines currently registered in VDB.
    pub vaccines: usize,
    /// Vaccination events. Their `v_id` ranges over `2 × vaccines`
    /// historical vaccine ids (retired vaccines no longer in the
    /// `vaccines` table) — which is also what makes the VDB-local join
    /// reducing, as in the paper's Figure 6a plan.
    pub vaccination_events: usize,
    pub measurements: usize,
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            citizens: 1000,
            vaccines: 4,
            vaccination_events: 2000,
            measurements: 5000,
            seed: 42,
        }
    }
}

/// Minimal deterministic PRNG (xorshift64*), so `xdb-core` needs no rand
/// dependency.
pub struct Xorshift(u64);

impl Xorshift {
    pub(crate) fn new(seed: u64) -> Xorshift {
        Xorshift(seed.max(1))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform integer in `[lo, hi]`.
    pub(crate) fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(hi >= lo);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub(crate) fn float(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const VTYPES: &[&str] = &["mRNA", "vector", "protein", "inactivated"];
const FIRST_NAMES: &[&str] = &[
    "ada", "bo", "cy", "dee", "eli", "fay", "gus", "hana", "ivo", "june",
];

/// Build the three-DBMS federation, load the scenario data, and discover +
/// consult the global catalog.
pub fn build(config: ScenarioConfig) -> Result<(Cluster, GlobalCatalog)> {
    build_with_profiles(
        config,
        EngineProfile::postgres(),
        EngineProfile::postgres(),
        EngineProfile::postgres(),
    )
}

/// Same, with per-department engine profiles (heterogeneity experiments).
pub(crate) fn build_with_profiles(
    config: ScenarioConfig,
    cdb: EngineProfile,
    vdb: EngineProfile,
    hdb: EngineProfile,
) -> Result<(Cluster, GlobalCatalog)> {
    let mut cluster = Cluster::new(xdb_net::Topology::lan(&["cdb", "vdb", "hdb"]));
    cluster.add_engine("cdb", cdb);
    cluster.add_engine("vdb", vdb);
    cluster.add_engine("hdb", hdb);
    load(&cluster, config)?;
    let catalog = GlobalCatalog::discover(&cluster)?;
    for t in catalog.table_names() {
        catalog.consult(&cluster, &t)?;
    }
    Ok((cluster, catalog))
}

/// Load scenario tables into an existing cluster with nodes `cdb`, `vdb`,
/// `hdb`.
pub(crate) fn load(cluster: &Cluster, config: ScenarioConfig) -> Result<()> {
    let mut rng = Xorshift::new(config.seed);

    // citizen(id, name, age, address) on CDB.
    let mut rows = Vec::with_capacity(config.citizens);
    for id in 1..=config.citizens as i64 {
        let name = format!(
            "{} {}",
            FIRST_NAMES[(rng.next_u64() % FIRST_NAMES.len() as u64) as usize],
            id
        );
        rows.push(vec![
            Value::Int(id),
            Value::str(name),
            Value::Int(rng.range(15, 90)),
            Value::str(format!("{} credo street", rng.range(1, 400))),
        ]);
    }
    cluster.engine("cdb")?.load_table(
        "citizen",
        Relation::new(
            vec![
                ("id".into(), DataType::Int),
                ("name".into(), DataType::Str),
                ("age".into(), DataType::Int),
                ("address".into(), DataType::Str),
            ],
            rows,
        ),
    )?;

    // vaccines(id, name, vtype, manufacturer) on VDB.
    let mut rows = Vec::with_capacity(config.vaccines);
    for id in 1..=config.vaccines as i64 {
        rows.push(vec![
            Value::Int(id),
            Value::str(format!("vax-{id}")),
            Value::str(VTYPES[(id as usize - 1) % VTYPES.len()]),
            Value::str(format!("maker-{}", (id - 1) % 3 + 1)),
        ]);
    }
    cluster.engine("vdb")?.load_table(
        "vaccines",
        Relation::new(
            vec![
                ("id".into(), DataType::Int),
                ("name".into(), DataType::Str),
                ("vtype".into(), DataType::Str),
                ("manufacturer".into(), DataType::Str),
            ],
            rows,
        ),
    )?;

    // vaccination(c_id, v_id, vdate) on VDB. v_id spans retired vaccine
    // ids too (2 × the registered count).
    let base = date::days_from_ymd(2021, 1, 1);
    let mut rows = Vec::with_capacity(config.vaccination_events);
    for _ in 0..config.vaccination_events {
        rows.push(vec![
            Value::Int(rng.range(1, config.citizens as i64)),
            Value::Int(rng.range(1, (config.vaccines * 2) as i64)),
            Value::Date(base + rng.range(0, 330) as i32),
        ]);
    }
    cluster.engine("vdb")?.load_table(
        "vaccination",
        Relation::new(
            vec![
                ("c_id".into(), DataType::Int),
                ("v_id".into(), DataType::Int),
                ("vdate".into(), DataType::Date),
            ],
            rows,
        ),
    )?;

    // measurements(id, c_id, mdate, u_ml) on HDB.
    let mut rows = Vec::with_capacity(config.measurements);
    for id in 1..=config.measurements as i64 {
        rows.push(vec![
            Value::Int(id),
            Value::Int(rng.range(1, config.citizens as i64)),
            Value::Date(base + rng.range(120, 360) as i32),
            Value::Float((rng.float() * 250.0 * 10.0).round() / 10.0),
        ]);
    }
    cluster.engine("hdb")?.load_table(
        "measurements",
        Relation::new(
            vec![
                ("id".into(), DataType::Int),
                ("c_id".into(), DataType::Int),
                ("mdate".into(), DataType::Date),
                ("u_ml".into(), DataType::Float),
            ],
            rows,
        ),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_sql::stats::StatsProvider;

    #[test]
    fn builds_and_discovers() {
        let (cluster, catalog) = build(ScenarioConfig::default()).unwrap();
        assert_eq!(
            catalog.table_names(),
            vec!["citizen", "measurements", "vaccination", "vaccines"]
        );
        assert_eq!(catalog.table_rows("citizen"), Some(1000.0));
        assert_eq!(catalog.table_rows("vaccination"), Some(2000.0));
        // vaccination references retired vaccine ids: more distinct v_ids
        // than registered vaccines.
        let v_id = catalog.column_stats("vaccination", "v_id").unwrap();
        assert!(v_id.n_distinct > 4.0);
        let (rel, _) = cluster
            .query("cdb", "SELECT count(*) AS n FROM citizen WHERE age > 20")
            .unwrap();
        match rel.value(0, 0) {
            Value::Int(n) => assert!(n > 800, "{n}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let (c1, _) = build(ScenarioConfig::default()).unwrap();
        let (c2, _) = build(ScenarioConfig::default()).unwrap();
        let (r1, _) = c1
            .query("hdb", "SELECT sum(u_ml) AS s FROM measurements")
            .unwrap();
        let (r2, _) = c2
            .query("hdb", "SELECT sum(u_ml) AS s FROM measurements")
            .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn xorshift_is_uniformish() {
        let mut rng = Xorshift::new(7);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.range(0, 9) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "{counts:?}");
        }
    }
}
