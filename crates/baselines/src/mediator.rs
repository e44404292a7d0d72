//! The Mediator-Wrapper execution strategy (Section II-B, Figure 4a):
//! decompose a cross-database query into per-DBMS *local* sub-queries plus
//! a *global* fragment, push the sub-queries to the DBMSes through
//! wrappers, fetch all intermediate results into the mediator, and finish
//! the cross-database operations centrally.
//!
//! Decomposition reuses XDB's annotator with
//! [`PlacementPolicy::Mediator`]: every cross-database operator is
//! annotated with the mediator node, so the finalized "delegation plan"
//! degenerates into exactly the MW shape — leaf tasks are the pushed-down
//! sub-queries and the root task is the mediator's residual plan.

use xdb_core::annotate::{AnnotateOptions, PlacementPolicy};
use xdb_core::global::GlobalCatalog;
use xdb_core::plan::{placeholder_name, DelegationPlan, Task};
use xdb_engine::cluster::Cluster;
use xdb_engine::error::Result;
use xdb_engine::exec::{Execution, MapResolver};
use xdb_engine::profile::EngineProfile;
use xdb_engine::relation::Relation;
use xdb_engine::DEFAULT_STREAM_CHUNK_ROWS;
use xdb_net::{mediator_finish, params, wire, NodeId, Purpose, Transfer};
use xdb_obs::HistoryRecord;
use xdb_sql::algebra::plan_to_select;
use xdb_sql::display::render_select_string;
use xdb_sql::optimize::OptimizeOptions;

/// Configuration of one MW system.
#[derive(Debug, Clone)]
pub struct MediatorConfig {
    /// System label for reports.
    pub name: &'static str,
    /// Node the mediator runs on (accounted for all fetches).
    pub node: NodeId,
    /// Execution profile of the mediator engine.
    pub profile: EngineProfile,
    /// Worker nodes executing the mediator's residual plan (Presto
    /// scale-out; 1 = single-node Garlic).
    pub workers: usize,
    /// Whether wrappers can push co-located joins down to the DBMSes
    /// (Garlic can, Presto-style connectors cannot).
    pub pushdown_joins: bool,
    /// Per-byte multiplier of the wrapper fetch protocol (binary vs JDBC).
    pub protocol_overhead: f64,
}

impl MediatorConfig {
    /// Our implementation of the well-known Garlic approach: a single
    /// PostgreSQL-like mediator using binary transfer protocols that
    /// pushes selections, projections, and co-located joins.
    pub fn garlic(node: impl Into<String>) -> MediatorConfig {
        MediatorConfig {
            name: "garlic",
            node: NodeId::new(node),
            profile: EngineProfile::postgres(),
            workers: 1,
            pushdown_joins: true,
            protocol_overhead: params::BINARY_PROTOCOL_OVERHEAD,
        }
    }

    /// Presto/Trino-like scaled-out mediator: JDBC connectors (scan /
    /// filter / projection pushdown only) and `workers` parallel workers.
    pub fn presto(node: impl Into<String>, workers: usize) -> MediatorConfig {
        MediatorConfig {
            name: "presto",
            node: NodeId::new(node),
            profile: EngineProfile::postgres(),
            workers: workers.max(1),
            pushdown_joins: false,
            protocol_overhead: params::JDBC_PROTOCOL_OVERHEAD,
        }
    }

    /// The deployment its history records carry: the system name, with
    /// Presto's worker count (`presto4`) so that scale-outs stay apart.
    pub fn deployment(&self) -> String {
        match self.name {
            "presto" => format!("presto{}", self.workers),
            name => name.to_string(),
        }
    }
}

/// Parallel-speedup model for the mediator's residual work: near-linear
/// with a coordination tax (the paper's Fig 11 shows the *processing* part
/// shrinking with workers while the fetch bottleneck stays).
fn parallel_work_ms(raw_ms: f64, workers: usize) -> f64 {
    raw_ms / (workers as f64).powf(0.85)
}

/// Report of one MW query execution.
#[derive(Debug, Clone)]
pub struct MwReport {
    pub relation: Relation,
    /// Mediator-side residual execution time.
    pub mediator_work_ms: f64,
    pub subqueries: usize,
    /// The run's history record: its end-to-end simulated time
    /// (`total_ms`), the share of it attributable to moving intermediate
    /// data to the mediator (`phase_ms("transfer")`, the μ of Fig 1/9,
    /// measured exactly by re-composing with free transfers), and the raw
    /// and encoded bytes fetched into the mediator (`moved_bytes()`).
    pub record: HistoryRecord,
}

/// What one MW run produced, before its record is built.
struct Ran {
    relation: Relation,
    total_ms: f64,
    transfer_ms: f64,
    mediator_work_ms: f64,
    subqueries: usize,
}

/// A mediator-wrapper federation frontend.
pub struct Mediator<'a> {
    cluster: &'a Cluster,
    catalog: &'a GlobalCatalog,
    config: MediatorConfig,
}

impl<'a> Mediator<'a> {
    pub fn new(
        cluster: &'a Cluster,
        catalog: &'a GlobalCatalog,
        config: MediatorConfig,
    ) -> Mediator<'a> {
        Mediator {
            cluster,
            catalog,
            config,
        }
    }

    /// Decompose a query into the MW plan: sub-query tasks + mediator
    /// residual.
    fn decompose(&self, sql: &str) -> Result<crate::Planned> {
        crate::plan_query(
            self.cluster,
            self.catalog,
            "mediator",
            sql,
            OptimizeOptions::default(),
            AnnotateOptions {
                placement: PlacementPolicy::Mediator(self.config.node.clone()),
                no_colocated_fusion: !self.config.pushdown_joins,
                ..Default::default()
            },
        )
    }

    /// Run one task's sub-query on its DBMS and fetch the result into the
    /// mediator: the relation, the sub-query's finish time and the
    /// transfer time, adding its record to `moved` (the sub-query reads
    /// local tables only, and moves nothing).
    fn fetch(&self, task: &Task, moved: &mut Vec<Transfer>) -> Result<(Relation, f64, f64)> {
        let engine = self.cluster.engine(task.dbms.as_str())?;
        let stmt = plan_to_select(&task.plan)?;
        let sql = render_select_string(&stmt, engine.profile.dialect);
        let (rel, report) = self.cluster.query(task.dbms.as_str(), &sql)?;
        // Fragment fetches ride the same wire codec as XDB's streamed
        // edges: the transfer is charged for encoded bytes. The mediator
        // keeps the relation it already holds (`decode(encode(x))` is
        // exactly `x`), so a sizing-only pass prices the edge without
        // materializing the payload.
        let stats = wire::measure(rel.columns(), rel.len()).stats(DEFAULT_STREAM_CHUNK_ROWS);
        let transfer = self.cluster.topology.transfer_ms(
            &task.dbms,
            &self.config.node,
            stats.encoded_bytes,
            self.config.protocol_overhead,
        );
        moved.extend(self.cluster.ledger.record_wire(
            &task.dbms,
            &self.config.node,
            rel.wire_bytes(),
            rel.len() as u64,
            Purpose::SubqueryResult,
            stats,
        ));
        Ok((rel, report.finish_ms, transfer))
    }

    /// Execute a query MW-style.
    pub fn submit(&self, sql: &str) -> Result<MwReport> {
        let planned = self.decompose(sql)?;
        let mut moved = Vec::new();
        let ran = self.run(&planned.plan, &mut moved)?;
        let record = crate::record(
            (sql, &ran.relation),
            &planned,
            &moved,
            &self.config.deployment(),
            (ran.total_ms, ran.transfer_ms),
        );
        let bytes = record.moved_bytes().0.to_string();
        let subs = ran.subqueries.to_string();
        crate::note_submit(
            self.cluster,
            self.config.name,
            &record,
            (
                "baselines.mediator",
                "mediator query completed",
                &[
                    ("system", self.config.name),
                    ("fetch_bytes", &bytes),
                    ("subqueries", &subs),
                ],
            ),
        );
        Ok(MwReport {
            relation: ran.relation,
            mediator_work_ms: ran.mediator_work_ms,
            subqueries: ran.subqueries,
            record,
        })
    }

    /// Push the sub-queries of `plan` down, fetch their results, and finish
    /// the residual plan in the mediator; what moved is added to `moved`.
    fn run(&self, plan: &DelegationPlan, moved: &mut Vec<Transfer>) -> Result<Ran> {
        let root = plan.task(plan.root);

        // 1. Push the sub-queries down and fetch their results, one
        // wrapper call after the other in topological order.
        let mut fetched = MapResolver::new();
        let mut fetches: Vec<(f64, f64)> = Vec::new();
        let mut fetch_bytes = 0u64;
        let mut subqueries = 0usize;
        for id in plan.topo_order() {
            if id == plan.root {
                continue;
            }
            let task = plan.task(id);
            let (rel, finish_ms, transfer) = self.fetch(task, moved)?;
            fetches.push((finish_ms, transfer));
            fetch_bytes += rel.wire_bytes();
            subqueries += 1;
            fetched.insert(placeholder_name(id), rel);
        }

        // 2. Single-DBMS query: the "residual" runs remotely; the mediator
        // only relays the final result.
        if root.dbms != self.config.node {
            debug_assert!(plan.tasks.len() == 1);
            let (relation, finish_ms, transfer) = self.fetch(root, moved)?;
            return Ok(Ran {
                relation,
                total_ms: params::DDL_ROUNDTRIP_MS + finish_ms + transfer,
                transfer_ms: transfer,
                mediator_work_ms: 0.0,
                subqueries: 1,
            });
        }

        // 3. The mediator executes the residual plan over the fetched
        // intermediates.
        let mut exec = Execution::new(&fetched);
        let relation = exec.run(&root.plan)?;
        let raw_work = self
            .config
            .profile
            .work_ms(exec.scan_units, exec.olap_units);
        let mut mediator_work_ms = parallel_work_ms(raw_work, self.config.workers);
        // Scale-out exchange: repartitioning the fetched data across
        // workers costs wire time and shows up in the ledger.
        if self.config.workers > 1 {
            let exchange_bytes = (fetch_bytes as f64 * (self.config.workers as f64 - 1.0)
                / self.config.workers as f64) as u64;
            for w in 1..self.config.workers {
                moved.extend(self.cluster.ledger.record(
                    &self.config.node,
                    &NodeId::new(format!("{}-w{w}", self.config.node)),
                    exchange_bytes / (self.config.workers as u64 - 1).max(1),
                    0,
                    Purpose::WorkerExchange,
                ));
            }
            mediator_work_ms += exchange_bytes as f64 / params::LAN_BANDWIDTH_BYTES_PER_MS;
        }
        let startup =
            self.config.profile.startup_ms * (1.0 + 0.2 * (self.config.workers as f64 - 1.0));
        // Each sub-query submission is one wrapper round-trip, like XDB's
        // DDL round-trips.
        let submission_ms = (subqueries as f64 + 1.0) * params::DDL_ROUNDTRIP_MS;
        let total_ms = submission_ms + mediator_finish(startup, mediator_work_ms, &fetches);
        // μ: re-compose with free transfers — the "localized tables"
        // methodology of Section VI-A.
        let free: Vec<(f64, f64)> = fetches.iter().map(|(f, _)| (*f, 0.0)).collect();
        let transfer_ms = total_ms - mediator_finish(startup, mediator_work_ms, &free);
        Ok(Ran {
            relation,
            total_ms,
            transfer_ms,
            mediator_work_ms,
            subqueries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_core::scenario::{self, ScenarioConfig};

    fn setup() -> (Cluster, GlobalCatalog) {
        scenario::build(ScenarioConfig::default()).unwrap()
    }

    #[test]
    fn garlic_decomposition_pushes_colocated_joins() {
        let (cluster, catalog) = setup();
        let m = Mediator::new(&cluster, &catalog, MediatorConfig::garlic("mediator"));
        let plan = m.decompose(scenario::EXAMPLE_QUERY).unwrap().plan;
        // Every edge feeds the mediator root: no sub-query reads another.
        assert!(plan.edges.iter().all(|e| e.to == plan.root));
        // Root is the mediator; sub-queries are one per DBMS (vaccines +
        // vaccination fused on vdb).
        assert_eq!(plan.task(plan.root).dbms.as_str(), "mediator");
        assert_eq!(plan.tasks.len(), 4, "{}", plan.describe());
    }

    #[test]
    fn presto_decomposition_does_not_fuse_joins() {
        let (cluster, catalog) = setup();
        let m = Mediator::new(&cluster, &catalog, MediatorConfig::presto("mediator", 4));
        let plan = m.decompose(scenario::EXAMPLE_QUERY).unwrap().plan;
        // Every edge feeds the mediator root: no sub-query reads another.
        assert!(plan.edges.iter().all(|e| e.to == plan.root));
        // One sub-query per base table + the mediator root.
        assert_eq!(plan.tasks.len(), 5, "{}", plan.describe());
    }

    #[test]
    fn mediator_matches_xdb_results() {
        let (cluster, catalog) = setup();
        let xdb = xdb_core::Xdb::new(&cluster, &catalog);
        let expected = xdb.submit(scenario::EXAMPLE_QUERY).unwrap().relation;
        for config in [
            MediatorConfig::garlic("mediator"),
            MediatorConfig::presto("mediator", 4),
        ] {
            let name = config.name;
            let m = Mediator::new(&cluster, &catalog, config);
            let report = m.submit(scenario::EXAMPLE_QUERY).unwrap();
            assert!(
                report.relation.same_bag(&expected),
                "{name} diverged from XDB"
            );
        }
    }

    #[test]
    fn submit_records_what_it_reports() {
        let (cluster, catalog) = setup();
        let single = "SELECT count(*) AS n FROM citizen WHERE age > 50";
        for (config, deployment) in [
            (MediatorConfig::garlic("mediator"), "garlic"),
            (MediatorConfig::presto("mediator", 4), "presto4"),
            (MediatorConfig::presto("mediator", 10), "presto10"),
        ] {
            let m = Mediator::new(&cluster, &catalog, config);
            for sql in [scenario::EXAMPLE_QUERY, single] {
                let report = m.submit(sql).unwrap();
                let r = &report.record;
                assert_eq!(r.deployment, deployment);
                assert_eq!(
                    r.sql_fnv,
                    xdb_core::annotate::stable_hash_hex(sql.as_bytes())
                );
                let plan = m.decompose(sql).unwrap().plan;
                assert_eq!(r.fingerprint, xdb_core::annotate::plan_fingerprint(&plan));
                assert_eq!(r.tasks, plan.tasks.len() as u64);
                let digest = xdb_core::annotate::result_digest(&report.relation);
                assert_eq!(r.result_digest, digest);
                assert!(r.consult_roundtrips <= r.consult_misses);
                assert_eq!(r.query_id, 0);
            }
        }
    }

    #[test]
    fn mediator_fetches_more_than_xdb_moves() {
        let (cluster, catalog) = setup();
        let m = Mediator::new(&cluster, &catalog, MediatorConfig::garlic("mediator"));
        let report = m.submit(scenario::EXAMPLE_QUERY).unwrap();
        let mw_bytes = report.record.moved_bytes().0;
        cluster.ledger.clear();
        let xdb = xdb_core::Xdb::new(&cluster, &catalog);
        xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
        let xdb_bytes = cluster.ledger.bytes_for(Purpose::InterDbmsPipeline)
            + cluster.ledger.bytes_for(Purpose::Materialization);
        assert!(
            mw_bytes > xdb_bytes,
            "MW should move more: {mw_bytes} vs {xdb_bytes}"
        );
    }

    #[test]
    fn transfer_dominates_mw_total() {
        // The Fig 1 observation: most of the MW total is data movement.
        // Needs realistic data volume for the wire to matter.
        let (cluster, catalog) = scenario::build(ScenarioConfig {
            citizens: 20_000,
            vaccination_events: 40_000,
            measurements: 120_000,
            ..Default::default()
        })
        .unwrap();
        let m = Mediator::new(&cluster, &catalog, MediatorConfig::presto("mediator", 4));
        let report = m.submit(scenario::EXAMPLE_QUERY).unwrap();
        let (transfer, total) = (report.record.phase_ms("transfer"), report.record.total_ms);
        assert!(
            transfer > 0.3 * total,
            "transfer {transfer} of total {total}"
        );
    }

    #[test]
    fn workers_speed_up_processing_not_fetching() {
        let (cluster, catalog) = setup();
        let few = Mediator::new(&cluster, &catalog, MediatorConfig::presto("mediator", 2))
            .submit(scenario::EXAMPLE_QUERY)
            .unwrap();
        let many = Mediator::new(&cluster, &catalog, MediatorConfig::presto("mediator", 10))
            .submit(scenario::EXAMPLE_QUERY)
            .unwrap();
        assert!(many.mediator_work_ms < few.mediator_work_ms);
        // Fetch volume identical regardless of worker count.
        assert_eq!(many.record.moved_bytes(), few.record.moved_bytes());
    }

    #[test]
    fn single_dbms_query_runs_remotely() {
        let (cluster, catalog) = setup();
        let m = Mediator::new(&cluster, &catalog, MediatorConfig::garlic("mediator"));
        let report = m
            .submit("SELECT count(*) AS n FROM citizen WHERE age > 50")
            .unwrap();
        assert_eq!(report.subqueries, 1);
        assert_eq!(report.mediator_work_ms, 0.0);
        assert_eq!(report.relation.len(), 1);
    }
}
