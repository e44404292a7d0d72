//! Global catalog: the Global-as-View union of the local schemas
//! (Section III), plus the statistics XDB gathers by *consulting* the
//! underlying DBMSes during query preparation.

use crate::consult_cache::{ConsultCache, Probe};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xdb_engine::cluster::Cluster;
use xdb_engine::error::{EngineError, Result};
use xdb_net::NodeId;
use xdb_sql::algebra::LogicalPlan;
use xdb_sql::ast::lower_name;
use xdb_sql::bind::{RelationFields, ResolvedRelation, SchemaProvider};
use xdb_sql::optimize::OptimizeOptions;
use xdb_sql::stats::{ColumnStats, StatsProvider};

/// Most (query text, optimizer options) pairs the logical plan cache
/// holds; it is emptied when one more would exceed this.
const PLAN_CACHE_CAPACITY: usize = 128;

/// Location and schema of one global table. The column list is the one
/// the owning engine interned; every bind of the table shares it.
#[derive(Debug, Clone)]
pub struct GlobalTable {
    pub dbms: NodeId,
    pub fields: RelationFields,
}

/// Consulted statistics for one table.
#[derive(Debug, Clone, Default)]
struct ConsultedStats {
    rows: f64,
    columns: HashMap<String, ColumnStats>,
}

/// One query text's optimised logical plan, as the catalog keeps it.
#[derive(Debug)]
pub struct LogicalEntry {
    /// Every table the text reads, each once, in order of first mention:
    /// the tables its preparation consults.
    pub tables: Vec<String>,
    /// Operators of the bound plan, which price its logical optimisation.
    pub node_count: usize,
    /// The optimised plan, handed to annotation.
    pub plan: LogicalPlan,
    /// [`GlobalCatalog::stats_epoch`] as it read before the text was bound:
    /// the plan is current while the epoch still reads this.
    pub epoch: u64,
}

/// The middleware's view of the federation: which table lives where
/// (the global schema is the union of local schemas), and cached statistics
/// obtained through the DBMS connectors.
pub struct GlobalCatalog {
    tables: HashMap<String, GlobalTable>,
    stats: RwLock<HashMap<String, ConsultedStats>>,
    /// Memoized consulting round-trips, validated against each node's DDL
    /// generation: shared by preparation and annotation.
    pub(crate) consult_cache: ConsultCache,
    /// Learned cost profiles (feedback from the cost-model observatory):
    /// empty in a new catalog, installed whole by
    /// [`GlobalCatalog::set_profiles`] and grown by
    /// [`GlobalCatalog::absorb_cost_observation`] after each query. An
    /// annotation run prices against a shared snapshot; an absorb mutates
    /// in place unless a snapshot is still out (`Arc::make_mut`).
    profiles: RwLock<Arc<crate::profiles::CostProfiles>>,
    /// Bumped each time [`GlobalCatalog::consult`] stores fresh statistics,
    /// after the store and under the statistics lock (`Release`, paired
    /// with the `Acquire` of [`GlobalCatalog::stats_epoch`]): whoever reads
    /// an epoch sees every store it counts. A plan tagged with the epoch
    /// read before its bind, and that tag still current, was therefore
    /// built over the statistics the catalog holds.
    stats_epoch: AtomicU64,
    /// The logical plan cache: each query text's optimised plan, per
    /// optimizer options. A repeated text skips parse, bind and logical
    /// optimisation while the statistics epoch is the one it was planned at.
    plans: RwLock<HashMap<OptimizeOptions, HashMap<String, Arc<LogicalEntry>>>>,
}

impl GlobalCatalog {
    pub fn new() -> GlobalCatalog {
        GlobalCatalog {
            tables: HashMap::new(),
            stats: RwLock::new(HashMap::new()),
            consult_cache: ConsultCache::new(),
            profiles: RwLock::new(Arc::default()),
            stats_epoch: AtomicU64::new(0),
            plans: RwLock::new(HashMap::new()),
        }
    }

    /// Register a table of the global schema as residing on `dbms`.
    pub(crate) fn register(&mut self, name: &str, dbms: impl Into<String>, fields: RelationFields) {
        self.tables.insert(
            name.to_ascii_lowercase(),
            GlobalTable {
                dbms: NodeId::new(dbms),
                fields,
            },
        );
    }

    /// Discover every base table of every engine in the cluster — the
    /// union-of-local-schemas bootstrap.
    pub fn discover(cluster: &Cluster) -> Result<GlobalCatalog> {
        let mut catalog = GlobalCatalog::new();
        for node in cluster.node_names() {
            let engine = cluster.engine(&node)?;
            let names = engine.with_catalog(|c| c.names());
            for name in names {
                let fields = engine.relation_fields(&name)?;
                if catalog.tables.contains_key(&name) {
                    return Err(EngineError::Catalog(format!(
                        "global name collision for table {name:?}"
                    )));
                }
                catalog.register(&name, node.clone(), fields);
            }
        }
        Ok(catalog)
    }

    pub(crate) fn table(&self, name: &str) -> Option<&GlobalTable> {
        self.tables.get(&*lower_name(name))
    }

    /// Home DBMS of a table.
    pub fn location(&self, name: &str) -> Option<&NodeId> {
        self.table(name).map(|t| &t.dbms)
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }

    /// Consult the owning engine for metadata and statistics of `table`,
    /// memoizing the round-trip in the consultation cache. Returns whether
    /// the probe was answered from cache, for the caller to count as its
    /// own: a miss is one metadata fetch. Any DDL executed against the
    /// owning node bumps its DDL generation and thereby invalidates the
    /// cached probe, so the next consultation re-fetches fresh statistics.
    /// The probe is counted on the cluster's telemetry (`consult.probes`).
    pub fn consult(&self, cluster: &Cluster, table: &str) -> Result<bool> {
        let key = lower_name(table);
        let Some(gt) = self.table(&key) else {
            return Err(EngineError::Catalog(format!("unknown table {table:?}")));
        };
        let engine = cluster.engine(gt.dbms.as_str())?;
        let generation = engine.ddl_generation();
        let probe = Probe::metadata(&key);
        let metrics = &cluster.telemetry().metrics;
        if self.consult_cache.lookup(&gt.dbms, &probe, generation) {
            metrics.counter_add("consult.probes", &[("result", "hit")], 1.0);
            return Ok(true);
        }
        let consulted = match engine.consult_stats(&key) {
            Some((rows, columns)) => ConsultedStats { rows, columns },
            None => ConsultedStats::default(),
        };
        self.consult_cache.store(&gt.dbms, &probe, generation);
        let mut stats = self.stats.write();
        stats.insert(key.into_owned(), consulted);
        self.stats_epoch.fetch_add(1, Ordering::Release);
        drop(stats);
        metrics.counter_add("consult.probes", &[("result", "miss")], 1.0);
        Ok(false)
    }

    /// Statistics epoch: how many times consultation has stored fresh
    /// statistics. A cached logical plan is current while it reads the
    /// epoch the plan was built at.
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch.load(Ordering::Acquire)
    }

    /// The logical plan cached for `sql` under `options`, at whatever epoch
    /// it was built.
    pub fn logical_plan(&self, sql: &str, options: OptimizeOptions) -> Option<Arc<LogicalEntry>> {
        self.plans.read().get(&options)?.get(sql).cloned()
    }

    /// Cache `entry` as the logical plan of `sql` under `options`, replacing
    /// the one held; a new key that would exceed the capacity empties the
    /// cache first.
    pub(crate) fn keep_logical_plan(
        &self,
        sql: &str,
        options: OptimizeOptions,
        entry: LogicalEntry,
    ) -> Arc<LogicalEntry> {
        let entry = Arc::new(entry);
        let mut plans = self.plans.write();
        let held = plans.get(&options).is_some_and(|p| p.contains_key(sql));
        if !held && plans.values().map(HashMap::len).sum::<usize>() >= PLAN_CACHE_CAPACITY {
            plans.clear();
        }
        plans
            .entry(options)
            .or_default()
            .insert(sql.to_string(), Arc::clone(&entry));
        entry
    }

    /// Copy of the current learned cost profiles.
    pub fn profiles_snapshot(&self) -> crate::profiles::CostProfiles {
        crate::profiles::CostProfiles::clone(&self.profiles.read())
    }

    /// The profiles the annotator should price against, shared: `None`
    /// while nothing has been learned, so candidate costing stays
    /// bit-exactly on the static model until real feedback exists.
    pub fn learned_profiles(&self) -> Option<Arc<crate::profiles::CostProfiles>> {
        let p = self.profiles.read();
        (!p.is_empty()).then(|| Arc::clone(&p))
    }

    /// Replace the learned profiles wholesale (replay/calibration arms).
    pub fn set_profiles(&self, profiles: crate::profiles::CostProfiles) {
        *self.profiles.write() = Arc::new(profiles);
    }

    /// Fold one executed query's cost observation (plus per-engine
    /// statement work) into the learned profiles.
    pub fn absorb_cost_observation(
        &self,
        cost: &xdb_obs::costmodel::CostObservation,
        statements: &[(String, f64)],
    ) {
        Arc::make_mut(&mut self.profiles.write()).absorb(cost, statements);
    }

    /// Does nothing: the catalog holds no placeholder estimates, each
    /// annotation answers its own tasks' rows. Kept, and deprecated, only
    /// because the out-of-workspace `benchmark/` package still calls it.
    #[deprecated(note = "the annotator keeps its own placeholder estimates")]
    pub fn clear_placeholders(&self) {}
}

impl Default for GlobalCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl SchemaProvider for GlobalCatalog {
    fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
        self.table(name).map(|t| ResolvedRelation::Base {
            fields: Arc::clone(&t.fields),
        })
    }
}

impl StatsProvider for GlobalCatalog {
    fn table_rows(&self, relation: &str) -> Option<f64> {
        self.stats
            .read()
            .get(&*lower_name(relation))
            .map(|s| s.rows)
    }

    fn column_stats(&self, relation: &str, column: &str) -> Option<ColumnStats> {
        self.stats
            .read()
            .get(&*lower_name(relation))?
            .columns
            .get(&*lower_name(column))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_engine::profile::EngineProfile;

    fn cluster() -> Cluster {
        let c = Cluster::lan(&["db1", "db2"], EngineProfile::postgres());
        c.execute_script(
            "db1",
            "CREATE TABLE citizen (id BIGINT, age BIGINT);
             INSERT INTO citizen VALUES (1, 30), (2, 40);",
        )
        .unwrap();
        c.execute_script(
            "db2",
            "CREATE TABLE vaccines (id BIGINT, vtype VARCHAR);
             INSERT INTO vaccines VALUES (1, 'mRNA');",
        )
        .unwrap();
        c
    }

    #[test]
    fn discover_unions_schemas() {
        let c = cluster();
        let g = GlobalCatalog::discover(&c).unwrap();
        assert_eq!(g.table_names(), vec!["citizen", "vaccines"]);
        assert_eq!(g.location("citizen").unwrap().as_str(), "db1");
        assert_eq!(g.location("VACCINES").unwrap().as_str(), "db2");
        assert!(matches!(
            g.resolve_relation("citizen"),
            Some(ResolvedRelation::Base { .. })
        ));
    }

    #[test]
    fn name_collision_detected() {
        let c = cluster();
        c.execute("db2", "CREATE TABLE citizen (id BIGINT)")
            .unwrap();
        assert!(GlobalCatalog::discover(&c).is_err());
    }

    /// The `consult.probes` series, `(hits, misses)`.
    fn probes(c: &Cluster) -> (f64, f64) {
        let count = |result| {
            let metrics = &c.telemetry().metrics;
            metrics.value("consult.probes", &[("result", result)])
        };
        (count("hit"), count("miss"))
    }

    #[test]
    fn consultation_caches_and_counts() {
        let c = cluster();
        let g = GlobalCatalog::discover(&c).unwrap();
        assert_eq!(g.table_rows("citizen"), None);
        assert!(!g.consult(&c, "citizen").unwrap());
        assert_eq!(g.table_rows("citizen"), Some(2.0));
        assert_eq!(probes(&c), (0.0, 1.0));
        // Cached: no second fetch.
        assert!(g.consult(&c, "citizen").unwrap());
        assert_eq!(probes(&c), (1.0, 1.0));
        let stats = g.column_stats("citizen", "age").unwrap();
        assert_eq!(stats.n_distinct, 2.0);
    }

    #[test]
    fn consultation_cache_invalidated_by_ddl() {
        let c = cluster();
        let g = GlobalCatalog::discover(&c).unwrap();
        assert!(!g.consult(&c, "citizen").unwrap());
        assert!(g.consult(&c, "citizen").unwrap());
        // A DDL executed against the owning node (here a CREATE TABLE AS)
        // bumps its generation: the cached probe is dropped and the next
        // consultation re-fetches, observing the fresh catalog.
        c.execute("db1", "CREATE TABLE citizen_copy AS SELECT * FROM citizen")
            .unwrap();
        assert!(!g.consult(&c, "citizen").unwrap());
        // DDL on an unrelated node leaves db1's entries valid.
        c.execute("db2", "CREATE TABLE other (x BIGINT)").unwrap();
        assert!(g.consult(&c, "citizen").unwrap());
        assert_eq!(probes(&c), (2.0, 2.0));
    }

    #[test]
    fn a_fresh_consult_bumps_the_statistics_epoch() {
        let c = cluster();
        let g = GlobalCatalog::discover(&c).unwrap();
        assert_eq!(g.stats_epoch(), 0);
        g.consult(&c, "citizen").unwrap();
        assert_eq!(g.stats_epoch(), 1);
        // A hit stores nothing.
        g.consult(&c, "citizen").unwrap();
        assert_eq!(g.stats_epoch(), 1);
        c.execute("db1", "INSERT INTO citizen VALUES (3, 50)")
            .unwrap();
        g.consult(&c, "citizen").unwrap();
        assert_eq!(g.stats_epoch(), 2);
    }

    /// One more text than the capacity empties the cache before it is
    /// kept; replacing a held text's plan does not.
    #[test]
    fn the_plan_cache_holds_at_most_its_capacity() {
        let g = GlobalCatalog::new();
        let options = OptimizeOptions::default();
        let entry = || LogicalEntry {
            tables: Vec::new(),
            node_count: 1,
            plan: LogicalPlan::OneRow,
            epoch: 0,
        };
        let held = |g: &GlobalCatalog| g.plans.read().values().map(HashMap::len).sum::<usize>();
        for i in 0..PLAN_CACHE_CAPACITY {
            g.keep_logical_plan(&format!("SELECT {i}"), options, entry());
        }
        assert_eq!(held(&g), PLAN_CACHE_CAPACITY);
        g.keep_logical_plan("SELECT 0", options, entry());
        assert_eq!(held(&g), PLAN_CACHE_CAPACITY);
        let other = OptimizeOptions {
            reorder_joins: false,
            ..options
        };
        g.keep_logical_plan("SELECT 0", other, entry());
        assert!(held(&g) <= PLAN_CACHE_CAPACITY, "{}", held(&g));
        assert!(g.logical_plan("SELECT 0", other).is_some());
        assert!(g.logical_plan("SELECT 1", options).is_none());
    }

    /// Planning leaves no estimate of its own in the catalog: Q8 on TD3
    /// cuts tasks, and the catalog knows no `__task_0` afterwards.
    #[test]
    fn placeholder_estimates() {
        use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};
        let profiles = ProfileAssignment::uniform(EngineProfile::postgres());
        let scenario = xdb_net::Scenario::OnPremise;
        let cluster = build_cluster(TableDist::Td3, 0.001, scenario, &profiles).unwrap();
        let catalog = GlobalCatalog::discover(&cluster).unwrap();
        let xdb = crate::client::Xdb::new(&cluster, &catalog);
        let (plan, ..) = xdb.plan(TpchQuery::Q8.sql()).unwrap();
        assert!(plan.tasks.len() > 1, "{}", plan.describe());
        assert_eq!(catalog.table_rows("__task_0"), None);
    }
}
