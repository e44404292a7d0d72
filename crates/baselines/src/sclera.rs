//! A ScleraDB-like baseline (Section VI-B): "in-situ" in the sense that
//! joins run inside DBMSes, but *naive* in the sense of Section V's
//! strawman — every intermediate relation is exported to the mediator and
//! re-imported into the target DBMS (explicitly materialized), with a
//! heuristic (left-input) choice of join placement and strictly serial
//! task execution. The paper measures this approach at up to 30× slower
//! than XDB.

use std::collections::HashMap;
use xdb_core::annotate::{AnnotateOptions, PlacementPolicy};
use xdb_core::global::GlobalCatalog;
use xdb_core::plan::placeholder_name;
use xdb_engine::cluster::Cluster;
use xdb_engine::error::{EngineError, Result};
use xdb_engine::relation::Relation;
use xdb_engine::DEFAULT_STREAM_CHUNK_ROWS;
use xdb_net::{wire, Movement, NodeId, Purpose, Transfer};
use xdb_obs::HistoryRecord;
use xdb_sql::algebra::plan_to_select;
use xdb_sql::display::render_select_string;
use xdb_sql::optimize::OptimizeOptions;

/// Report of one Sclera-style execution.
#[derive(Debug, Clone)]
pub struct ScleraReport {
    pub relation: Relation,
    /// The run's history record: its simulated total (`total_ms`), the
    /// time spent exporting and importing intermediates through the
    /// mediator (`phase_ms("transfer")`), the raw and encoded bytes moved
    /// through it, each intermediate counted on both hops
    /// (`moved_bytes()`), and the plan's `tasks`.
    pub record: HistoryRecord,
}

/// The Sclera-like frontend.
pub struct Sclera<'a> {
    cluster: &'a Cluster,
    catalog: &'a GlobalCatalog,
    mediator: NodeId,
}

impl<'a> Sclera<'a> {
    pub fn new(
        cluster: &'a Cluster,
        catalog: &'a GlobalCatalog,
        mediator: impl Into<String>,
    ) -> Sclera<'a> {
        Sclera {
            cluster,
            catalog,
            mediator: NodeId::new(mediator),
        }
    }

    pub fn submit(&self, sql: &str) -> Result<ScleraReport> {
        let planned = crate::plan_query(
            self.cluster,
            self.catalog,
            "sclera",
            sql,
            // ScleraDB-style rule-based optimization: joins are ordered but
            // intermediate relations keep their full width (no projection
            // pushdown across the federation) — every exported table
            // carries all columns through the mediator.
            OptimizeOptions {
                reorder_joins: true,
                prune_columns: false,
                ..Default::default()
            },
            AnnotateOptions {
                placement: PlacementPolicy::LeftInput,
                force_movement: Some(Movement::Explicit),
                ..Default::default()
            },
        )?;
        let plan = &planned.plan;

        // Strictly serial task execution; every inter-task relation takes
        // two hops (producer → mediator → consumer) and is materialized at
        // the consumer.
        let mut total_ms = 0.0f64;
        let mut transfer_ms = 0.0f64;
        let mut temp_tables: Vec<(NodeId, String)> = Vec::new();
        let mut moved: Vec<Transfer> = Vec::new();
        let mut run_tasks = || -> Result<Relation> {
            let mut outputs: HashMap<usize, Relation> = HashMap::new();
            let mut result = None;
            for id in plan.topo_order() {
                let task = plan.task(id);
                let engine = self.cluster.engine(task.dbms.as_str())?;
                // Import dependencies.
                for edge in plan.in_edges(id) {
                    let rel = outputs
                        .get(&edge.from)
                        .cloned()
                        .ok_or_else(|| EngineError::Execution("missing task output".into()))?;
                    let bytes = rel.wire_bytes();
                    let producer = &plan.task(edge.from).dbms;
                    // Both hops ride the shared wire codec; the exported
                    // relation is re-encoded for each hop (Sclera's mediator
                    // decodes and re-encodes, it does not relay frames). Both
                    // hops carry the same relation, so one sizing pass prices
                    // them both — and since `decode(encode(x))` rebuilds `x`
                    // exactly, the consumer loads the relation this process
                    // already holds instead of round-tripping the codec.
                    let stats =
                        wire::measure(rel.columns(), rel.len()).stats(DEFAULT_STREAM_CHUNK_ROWS);
                    let encoded = stats.encoded_bytes;
                    let hop1 = self.cluster.topology.transfer_ms(
                        producer,
                        &self.mediator,
                        encoded,
                        xdb_net::params::BINARY_PROTOCOL_OVERHEAD,
                    );
                    let hop2 = self.cluster.topology.transfer_ms(
                        &self.mediator,
                        &task.dbms,
                        encoded,
                        xdb_net::params::BINARY_PROTOCOL_OVERHEAD,
                    );
                    moved.extend(self.cluster.ledger.record_wire(
                        producer,
                        &self.mediator,
                        bytes,
                        rel.len() as u64,
                        Purpose::Materialization,
                        stats.clone(),
                    ));
                    moved.extend(self.cluster.ledger.record_wire(
                        &self.mediator,
                        &task.dbms,
                        bytes,
                        rel.len() as u64,
                        Purpose::Materialization,
                        stats,
                    ));
                    let import = rel.len() as f64 * engine.profile.write_cost_ms;
                    // Two serial hops through the mediator, then the
                    // client-driven re-import at the consumer.
                    transfer_ms += hop1 + hop2;
                    // Export + import are separate client-driven statements.
                    total_ms += hop1 + hop2 + import + 2.0 * xdb_net::params::DDL_ROUNDTRIP_MS;
                    let temp = placeholder_name(edge.from);
                    engine.load_table(&temp, rel)?;
                    temp_tables.push((task.dbms.clone(), temp));
                }
                // The task body references `__task_k` placeholders by exactly
                // the temp-table names just loaded.
                let stmt = plan_to_select(&task.plan)?;
                let task_sql = render_select_string(&stmt, engine.profile.dialect);
                let (rel, report) = self.cluster.query(task.dbms.as_str(), &task_sql)?;
                total_ms += report.finish_ms + xdb_net::params::DDL_ROUNDTRIP_MS;
                if id == plan.root {
                    result = Some(rel);
                } else {
                    outputs.insert(id, rel);
                }
            }
            result.ok_or_else(|| EngineError::Execution("no root output".into()))
        };
        let result = run_tasks();
        // Drop all temp tables, also when a task failed: only the ones
        // this query loaded are listed.
        let drops = temp_tables.iter();
        self.cluster.teardown(
            drops.map(|(node, name)| (node.as_str(), format!("DROP TABLE IF EXISTS {name}"))),
        );
        let relation = result?;
        let record = crate::record(
            (sql, &relation),
            &planned,
            &moved,
            "sclera",
            (total_ms, transfer_ms),
        );
        let bytes = record.moved_bytes().0.to_string();
        let tasks = record.tasks.to_string();
        crate::note_submit(
            self.cluster,
            "sclera",
            &record,
            (
                "baselines.sclera",
                "sclera query completed",
                &[("moved_bytes", &bytes), ("tasks", &tasks)],
            ),
        );
        Ok(ScleraReport { relation, record })
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
    fn sclera_matches_xdb_results() {
        let (cluster, catalog) = setup();
        let expected = xdb_core::Xdb::new(&cluster, &catalog)
            .submit(scenario::EXAMPLE_QUERY)
            .unwrap()
            .relation;
        let sclera = Sclera::new(&cluster, &catalog, "mediator");
        let report = sclera.submit(scenario::EXAMPLE_QUERY).unwrap();
        assert!(report.relation.same_bag(&expected));
    }

    #[test]
    fn sclera_is_slower_than_xdb() {
        // Needs realistic volume: at toy scale fixed round-trips dominate.
        let (cluster, catalog) = scenario::build(ScenarioConfig {
            citizens: 20_000,
            vaccination_events: 40_000,
            measurements: 120_000,
            ..Default::default()
        })
        .unwrap();
        let xdb_exec = xdb_core::Xdb::new(&cluster, &catalog)
            .submit(scenario::EXAMPLE_QUERY)
            .unwrap()
            .breakdown
            .exec_ms;
        let report = Sclera::new(&cluster, &catalog, "mediator")
            .submit(scenario::EXAMPLE_QUERY)
            .unwrap();
        let total = report.record.total_ms;
        assert!(total > xdb_exec, "sclera {total} vs xdb {xdb_exec}");
    }

    #[test]
    fn submit_records_what_it_reports() {
        let (cluster, catalog) = setup();
        let sclera = Sclera::new(&cluster, &catalog, "mediator");
        sclera.submit(scenario::EXAMPLE_QUERY).unwrap();
        let report = sclera.submit(scenario::EXAMPLE_QUERY).unwrap();
        let r = &report.record;
        assert_eq!(r.deployment, "sclera");
        let sql_fnv = xdb_core::annotate::stable_hash_hex(scenario::EXAMPLE_QUERY.as_bytes());
        assert_eq!(r.sql_fnv, sql_fnv);
        let digest = xdb_core::annotate::result_digest(&report.relation);
        assert_eq!(r.result_digest, digest);
        assert!(r.consult_hits > 0, "the second submit's consults hit");
        assert!(r.critical.is_empty() && r.statements.is_empty() && !r.learned_costs);
    }

    #[test]
    fn intermediates_double_hop() {
        let (cluster, catalog) = setup();
        cluster.ledger.clear();
        let report = Sclera::new(&cluster, &catalog, "mediator")
            .submit(scenario::EXAMPLE_QUERY)
            .unwrap();
        // Every byte into the mediator leaves it again.
        let into_med = cluster.ledger.bytes_into(&NodeId::new("mediator"));
        assert_eq!(report.record.moved_bytes().0, 2 * into_med);
        assert!(report.record.phase_ms("transfer") > 0.0);
    }

    #[test]
    fn double_hop_encodes_and_charges_each_hop_exactly_once() {
        // Reactor-era audit: chunk handoff across threads owns the codec
        // state, so the double-hop path must still price each hop with
        // exactly one encoding pass. Every intermediate takes two ledger
        // records (producer -> mediator, mediator -> consumer) carrying
        // the same relation, hence the same encoded size; the
        // `net.encoded_bytes` series must equal the per-hop ledger sum —
        // no hop double-charged, none coalesced.
        let (cluster, catalog) = setup();
        let telemetry = cluster.telemetry();
        cluster.ledger.clear();
        let report = Sclera::new(&cluster, &catalog, "mediator")
            .submit(scenario::EXAMPLE_QUERY)
            .unwrap();

        let mediator = NodeId::new("mediator");
        let hops: Vec<_> = cluster
            .ledger
            .snapshot()
            .into_iter()
            .filter(|t| t.purpose == Purpose::Materialization)
            .collect();
        assert!(!hops.is_empty(), "no materialization hops recorded");
        assert_eq!(hops.len() % 2, 0, "unpaired hop: {hops:?}");
        let mut per_hop_encoded = 0u64;
        for pair in hops.chunks(2) {
            let (into, out) = (&pair[0], &pair[1]);
            // Hops are recorded in order: into the mediator, then out.
            assert_eq!(into.to, mediator, "{into:?}");
            assert_eq!(out.from, mediator, "{out:?}");
            // Same relation on both hops: same raw and encoded size, and
            // the codec actually ran (0 < encoded <= raw).
            assert_eq!(into.bytes, out.bytes);
            assert_eq!(into.encoded_bytes, out.encoded_bytes);
            assert!(into.encoded_bytes > 0 && into.encoded_bytes <= into.bytes);
            per_hop_encoded += into.encoded_bytes + out.encoded_bytes;
        }
        // The report and the telemetry series both equal the per-hop sum:
        // each hop charged exactly once.
        assert_eq!(report.record.moved_bytes().1, per_hop_encoded);
        assert_eq!(
            telemetry.metrics.value(
                "net.encoded_bytes",
                &[("purpose", Purpose::Materialization.label())]
            ),
            per_hop_encoded as f64
        );
    }

    /// A task that fails (here: a squatter already holds the name of the
    /// second temp table) must not strand the temp tables loaded before it.
    #[test]
    fn failed_task_drops_its_temp_tables() {
        let (cluster, catalog) = setup();
        let squatter = Relation::new(vec![("x".into(), xdb_sql::DataType::Int)], vec![]);
        cluster
            .engine("vdb")
            .unwrap()
            .load_table("__task_1", squatter)
            .unwrap();
        let err = Sclera::new(&cluster, &catalog, "mediator").submit(scenario::EXAMPLE_QUERY);
        assert!(err.is_err(), "the squatted temp table must fail the query");
        for node in ["cdb", "vdb", "hdb"] {
            let names = cluster.engine(node).unwrap().with_catalog(|c| c.names());
            let leaked: Vec<&String> = names
                .iter()
                .filter(|n| n.starts_with("__task_") && !(node == "vdb" && *n == "__task_1"))
                .collect();
            assert!(leaked.is_empty(), "{node} leaked {leaked:?}");
        }
        let vdb = cluster.engine("vdb").unwrap();
        assert!(vdb
            .with_catalog(|c| c.names())
            .contains(&"__task_1".to_string()));
    }

    #[test]
    fn temp_tables_are_dropped() {
        let (cluster, catalog) = setup();
        Sclera::new(&cluster, &catalog, "mediator")
            .submit(scenario::EXAMPLE_QUERY)
            .unwrap();
        for node in ["cdb", "vdb", "hdb"] {
            let names = cluster.engine(node).unwrap().with_catalog(|c| c.names());
            assert!(
                names.iter().all(|n| !n.starts_with("__task_")),
                "{node} leaked {names:?}"
            );
        }
    }
}
