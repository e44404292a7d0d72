//! A federation of engines connected by the simulated network.
//!
//! The cluster is the "physical testbed": one engine per node, a topology
//! between them, and the transfer ledger. It implements [`Remote`] so that
//! an engine scanning a foreign table transparently triggers `SELECT * FROM
//! <relation>` on the owning engine — the SQL/MED wrapper mechanics of
//! Section V, including the recursive trickle-down execution of Figure 8.

use crate::engine::{
    Engine, ExecReport, FetchReply, FetchRequest, Remote, StatementOptions, StatementOutcome,
    DEFAULT_STREAM_CHUNK_ROWS, MAX_FETCH_DEPTH,
};
use crate::error::{DropFailure, EngineError, Result};
use crate::exec::{MorselSink, ReadShape, Stored};
use crate::profile::EngineProfile;
use crate::relation::Relation;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use xdb_net::{wire, Ledger, NodeId, Topology};
use xdb_obs::{Level::Warn, Telemetry};

/// Where a fault armed by [`Cluster::fail_once`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A statement sent to the node fails before it runs (`Execution`).
    Statement,
    /// An edge the node produces fails (`Remote`), unrecorded, once `after`
    /// morsels reached its consumer, or at its end if it has fewer.
    Edge { after: usize },
}

/// A set of named engines plus network fabric and transfer accounting.
pub struct Cluster {
    engines: HashMap<String, Arc<Engine>>,
    pub topology: Topology,
    pub ledger: Ledger,
    /// Fleet telemetry shared by this cluster's engines and its ledger.
    /// Every cluster makes its own; federations that report together share
    /// one through [`Cluster::set_telemetry`].
    telemetry: Arc<Telemetry>,
    /// Source of [`Cluster::next_query_id`].
    next_query_id: AtomicU64,
    /// What [`Cluster::fail_once`] armed: node, events to let pass, site.
    /// `armed` says whether it is set (stored with `Release` after the
    /// fault, loaded with `Acquire` before the lock), so a fault-free
    /// statement reads one atomic and takes no lock.
    fault: Mutex<Option<(String, usize, FaultSite)>>,
    armed: AtomicBool,
}

impl Cluster {
    pub fn new(topology: Topology) -> Cluster {
        let telemetry = Telemetry::new_handle();
        Cluster {
            engines: HashMap::new(),
            topology,
            ledger: Ledger::new().with_telemetry(Arc::clone(&telemetry)),
            telemetry,
            next_query_id: AtomicU64::new(1),
            fault: Mutex::new(None),
            armed: AtomicBool::new(false),
        }
    }

    /// This cluster's telemetry handle.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Report into `telemetry` from now on, typically a handle several
    /// federations share: repoints the ledger and every engine,
    /// re-publishing their gauges under it.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.ledger = self.ledger.clone().with_telemetry(Arc::clone(&telemetry));
        for engine in self.engines.values() {
            engine.set_telemetry(Arc::clone(&telemetry));
        }
        self.telemetry = telemetry;
    }

    /// Build a LAN cluster with the given nodes, all with the same profile.
    pub fn lan(nodes: &[&str], profile: EngineProfile) -> Cluster {
        let mut c = Cluster::new(Topology::lan(nodes));
        for n in nodes {
            c.add_engine(n, profile.clone());
        }
        c
    }

    /// A fresh query id, unique on this federation: it names the query's
    /// short-lived `xdb_q<id>_*` objects on the engines and correlates its
    /// telemetry. A new cluster numbers its queries from 1.
    pub fn next_query_id(&self) -> u64 {
        self.next_query_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn add_engine(&mut self, node: &str, profile: EngineProfile) -> Arc<Engine> {
        self.topology.add_node(NodeId::new(node));
        let engine = Arc::new(Engine::new(node, profile));
        engine.set_telemetry(Arc::clone(&self.telemetry));
        self.engines.insert(node.to_string(), Arc::clone(&engine));
        engine
    }

    pub fn engine(&self, node: &str) -> Result<&Arc<Engine>> {
        self.engines
            .get(node)
            .ok_or_else(|| EngineError::Remote(format!("unknown server {node:?}")))
    }

    pub fn node_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.engines.keys().cloned().collect();
        v.sort();
        v
    }

    /// Execute one SQL statement on a node under the default options.
    pub fn execute(&self, node: &str, sql: &str) -> Result<StatementOutcome> {
        self.execute_with(node, sql, StatementOptions::default())
    }

    /// Execute one SQL statement on a node under `opts`, which every
    /// producer behind its foreign tables runs under too: with
    /// `opts.trace_ops` the report carries all their operator profiles.
    pub fn execute_with(
        &self,
        node: &str,
        sql: &str,
        opts: StatementOptions,
    ) -> Result<StatementOutcome> {
        if self.fault(node, false).is_some() {
            return Err(EngineError::Execution(format!("injected fault on {node}")));
        }
        self.engine(node)?.execute_sql_at(sql, self, 0, opts)
    }

    /// The one teardown of short-lived objects (a query's, a folding
    /// window's, a baseline's temp tables): run each `(node, sql)` DROP in
    /// order and return the ones that failed. Every failure is also
    /// reported here, whatever the caller does with it: the object leaks,
    /// so `ddl.drop_failures{engine}` counts it and one Warn event names
    /// the node and the DROP.
    pub fn teardown<N: AsRef<str>, S: AsRef<str>>(
        &self,
        drops: impl IntoIterator<Item = (N, S)>,
    ) -> Vec<DropFailure> {
        let mut failed = Vec::new();
        for (node, sql) in drops {
            let (node, sql) = (node.as_ref(), sql.as_ref());
            if let Err(error) = self.execute(node, sql) {
                let labels = [("engine", node)];
                let t = &self.telemetry;
                t.metrics.counter_add("ddl.drop_failures", &labels, 1.0);
                let cause = error.to_string();
                let fields = [("node", node), ("sql", sql), ("error", cause.as_str())];
                t.events
                    .log(Warn, "engine.teardown", None, 0.0, "drop failed", &fields);
                let (node, sql) = (node.to_string(), sql.to_string());
                failed.push(DropFailure { node, sql, error });
            }
        }
        failed
    }

    /// Fail once, to test the failure path: the `nth` (from 0) event of
    /// `site` on `node` from now on. Replaces a fault not yet fired.
    pub fn fail_once(&self, node: &str, nth: usize, site: FaultSite) {
        *self.fault.lock() = Some((node.to_string(), nth, site));
        self.armed.store(true, Ordering::Release);
    }

    /// The armed fault's site if it fires on this event on `node` (a
    /// statement, or with `edge` a fetch), logging one Warn event; else
    /// counts a matching event down towards it.
    fn fault(&self, node: &str, edge: bool) -> Option<FaultSite> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        let mut fault = self.fault.lock();
        let (on, left, site) = fault.as_mut()?;
        if on != node || matches!(site, FaultSite::Edge { .. }) != edge {
            return None;
        }
        if let Some(fewer) = left.checked_sub(1) {
            *left = fewer;
            return None;
        }
        self.armed.store(false, Ordering::Release);
        let fields = [("node", node)];
        let events = &self.telemetry.events;
        events.log(Warn, "engine.fault", None, 0.0, "injected fault", &fields);
        fault.take().map(|(_, _, site)| site)
    }

    /// Execute a SELECT and return its rows + report.
    pub fn query(&self, node: &str, sql: &str) -> Result<(Relation, ExecReport)> {
        self.execute(node, sql)?.into_rows()
    }

    /// Execute a script of `;`-separated statements on a node, returning
    /// the last statement's outcome.
    pub fn execute_script(&self, node: &str, sql: &str) -> Result<Option<StatementOutcome>> {
        let stmts = xdb_sql::parse_script(sql)
            .map_err(|e| crate::engine::log_parse_error(&self.telemetry, sql, e))?;
        let engine = self.engine(node)?;
        let mut last = None;
        for stmt in &stmts {
            last = Some(engine.execute_statement(stmt, self, 0, StatementOptions::default())?);
        }
        Ok(last)
    }

    /// Sets nothing. The transport chunk travels with each statement
    /// ([`StatementOptions::chunk_rows`]), every edge is decoded on its
    /// consuming thread and no encoded frame outlives its edge. Kept, and
    /// deprecated, only because the out-of-workspace `benchmark/` package
    /// still calls them. A value other than the one every fetch now uses
    /// panics, so a caller that relies on it fails instead of silently
    /// running at the default.
    #[deprecated(note = "chunk rows travel with each statement: StatementOptions::chunk_rows")]
    pub fn set_stream_chunk_rows(&self, rows: usize) {
        assert_eq!(
            rows, DEFAULT_STREAM_CHUNK_ROWS,
            "a cluster holds no chunk size: pass StatementOptions::chunk_rows"
        );
    }

    /// See [`Cluster::set_stream_chunk_rows`]; 0 (decode inline) is the
    /// only value.
    #[deprecated(note = "every edge is decoded on its consuming thread")]
    pub fn set_reactor_threads(&self, threads: usize) {
        assert_eq!(threads, 0, "a cluster starts no decode thread");
    }

    /// See [`Cluster::set_stream_chunk_rows`].
    #[deprecated(note = "no encoded frame outlives its edge")]
    pub fn clear_codec_cache(&self) {}
}

impl Remote for Cluster {
    /// The one read of an edge: execute the producer-side scan (nested
    /// foreign-table scans recurse through this cluster), decode the edge
    /// into `sink` in the shape the consumer asked for, and record the
    /// transfer once the morsels are delivered.
    ///
    /// A one-morsel read drives the decoder sized for the whole edge and
    /// takes a single morsel; a chunked read takes one per transport chunk
    /// of `request.opts.chunk_rows`. Either way the morsels are decoded on
    /// the consuming thread, fused with their consumption.
    fn fetch(&self, request: FetchRequest<'_>, sink: &mut MorselSink<'_>) -> Result<FetchReply> {
        if request.depth > MAX_FETCH_DEPTH {
            return Err(EngineError::Remote(
                "maximum cross-engine recursion depth exceeded".into(),
            ));
        }
        let cut = self.fault(request.server, true);
        let producer = self.engine(request.server)?;
        let sql = format!(
            "SELECT * FROM {}",
            producer.profile.dialect.ident(request.relation)
        );
        let outcome = producer.execute_sql_at(&sql, self, request.depth, request.opts)?;
        let mut relation = outcome
            .relation
            .ok_or_else(|| EngineError::Remote("fetch produced no relation".into()))?;
        // Every edge really goes through the wire codec: encode once at
        // the producer (codec state spans the whole edge, so the encoded
        // size is chunk-invariant), then stream-decode at transport
        // granularity on the consumer side. The decoded rows — not the
        // producer's — are what flow on, so codec correctness is
        // load-bearing for every query result.
        let encoded = wire::encode(relation.columns(), relation.len());
        let (bytes, nrows) = (relation.wire_bytes(), relation.len());
        let fields = std::mem::take(&mut relation.fields);
        // Only the encoded edge flows on: the producer's rows are freed
        // before the consumer decodes its own.
        drop(relation);
        let chunk_rows = request.opts.chunk_rows;
        let stats = encoded.stats(chunk_rows);
        let step = match request.read {
            ReadShape::Chunks if chunk_rows > 0 => chunk_rows,
            _ => nrows,
        };
        // A chunked read of a zero-row edge ships no morsels; the consumer
        // builds its empty relation from the declared fields. A one-morsel
        // read takes exactly one, also of a zero-row edge, so that its
        // relation has the decoder's column layouts.
        if request.read == ReadShape::OneMorsel || nrows > 0 {
            let mut dec = wire::StreamDecoder::with_morsel_capacity(&encoded, step);
            for delivered in 0.. {
                if cut == Some(FaultSite::Edge { after: delivered }) {
                    break;
                }
                let k = step.min(dec.remaining());
                let cols = dec.take_columns(step);
                sink(Stored::Owned(Relation::from_columns(
                    fields.clone(),
                    cols,
                    k,
                )))?;
                if dec.remaining() == 0 {
                    break;
                }
            }
        }
        if cut.is_some() {
            let fault = format!("injected fault on {}", request.server);
            return Err(EngineError::Remote(fault));
        }
        // The simulated transfer pays for encoded bytes — compression is
        // what the streaming plane buys.
        let transfer_ms = self.topology.transfer_ms(
            &producer.node,
            &request.consumer,
            stats.encoded_bytes,
            request.protocol_overhead,
        );
        let mut transfers = outcome.transfers;
        transfers.extend(self.ledger.record_wire(
            &producer.node,
            &request.consumer,
            bytes,
            nrows as u64,
            request.purpose,
            stats,
        ));
        Ok(FetchReply {
            nrows,
            producer_finish_ms: outcome.report.finish_ms,
            transfer_ms,
            producer_profile: outcome.report.profile,
            transfers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_net::Purpose;
    use xdb_sql::value::Value;

    /// Two-engine federation: R on db_r, S on db_s, joined in-situ on db_s
    /// through a foreign table — the paper's running example from
    /// Section V-A ("Leveraging SQL/MED").
    fn two_node() -> Cluster {
        let c = Cluster::lan(&["db_r", "db_s"], EngineProfile::postgres());
        c.execute_script(
            "db_r",
            "CREATE TABLE r (x BIGINT, y VARCHAR);
             INSERT INTO r VALUES (1, 'a'), (2, 'b'), (3, 'c');",
        )
        .unwrap();
        c.execute_script(
            "db_s",
            "CREATE TABLE s (x BIGINT, z VARCHAR);
             INSERT INTO s VALUES (2, 'beta'), (3, 'gamma'), (4, 'delta');",
        )
        .unwrap();
        c
    }

    #[test]
    fn foreign_table_join_in_situ() {
        let c = two_node();
        c.execute(
            "db_s",
            "CREATE FOREIGN TABLE r_ft (x BIGINT, y VARCHAR) SERVER db_r OPTIONS (remote 'r')",
        )
        .unwrap();
        let (rel, report) = c
            .query(
                "db_s",
                "SELECT r_ft.y, s.z FROM r_ft, s WHERE r_ft.x = s.x ORDER BY r_ft.y",
            )
            .unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.value(0, 0), Value::str("b"));
        assert_eq!(rel.value(0, 1), Value::str("beta"));
        // The fetch crossed the wire and was recorded.
        assert!(c.ledger.total_bytes() > 0);
        assert_eq!(c.ledger.total_rows(), 3); // all of r moved
                                              // Composed timing includes the remote producer.
        assert!(report.finish_ms > report.work_ms);
    }

    #[test]
    fn virtual_relation_preserves_semantics() {
        // The paper's "Preventing Undesirable Executions": create a view
        // (virtual relation) on the producer so filters/projections are
        // evaluated there, then a foreign table pointing at the view.
        let c = two_node();
        c.execute("db_r", "CREATE VIEW r_v AS SELECT x, y FROM r WHERE x >= 2")
            .unwrap();
        c.execute(
            "db_s",
            "CREATE FOREIGN TABLE r_vft (x BIGINT, y VARCHAR) SERVER db_r OPTIONS (remote 'r_v')",
        )
        .unwrap();
        c.ledger.clear();
        let (rel, _) = c
            .query("db_s", "SELECT s.z FROM r_vft, s WHERE r_vft.x = s.x")
            .unwrap();
        assert_eq!(rel.len(), 2);
        // Only the filtered rows crossed the network.
        assert_eq!(c.ledger.total_rows(), 2);
    }

    #[test]
    fn cascaded_views_across_three_engines() {
        // db_a -> db_b -> db_c pipeline, Figure 8 style.
        let mut c = two_node();
        c.add_engine("db_t", EngineProfile::postgres());
        c.execute(
            "db_s",
            "CREATE FOREIGN TABLE r_ft (x BIGINT, y VARCHAR) SERVER db_r OPTIONS (remote 'r')",
        )
        .unwrap();
        c.execute(
            "db_s",
            "CREATE VIEW rs AS SELECT r_ft.y, s.z FROM r_ft, s WHERE r_ft.x = s.x",
        )
        .unwrap();
        c.execute(
            "db_t",
            "CREATE FOREIGN TABLE rs_ft (y VARCHAR, z VARCHAR) SERVER db_s OPTIONS (remote 'rs')",
        )
        .unwrap();
        let outcome = c
            .execute("db_t", "SELECT count(*) AS n FROM rs_ft")
            .unwrap();
        let hops = |transfers: &[xdb_net::Transfer]| -> Vec<String> {
            let hop = |t: &xdb_net::Transfer| format!("{}->{} {}", t.from, t.to, t.rows);
            transfers.iter().map(hop).collect()
        };
        // Two hops recorded, the producer's first: db_r→db_s and db_s→db_t.
        // The statement owns both, in the order the ledger received them.
        assert_eq!(hops(&outcome.transfers), ["db_r->db_s 3", "db_s->db_t 2"]);
        assert_eq!(hops(&c.ledger.snapshot()), hops(&outcome.transfers));
        let (rel, report) = outcome.into_rows().unwrap();
        assert_eq!(rel.value(0, 0), Value::Int(2));
        assert!(report.finish_ms > 0.0);
    }

    #[test]
    fn materialization_via_ctas_over_foreign_table() {
        let c = two_node();
        c.execute(
            "db_s",
            "CREATE FOREIGN TABLE r_ft (x BIGINT, y VARCHAR) SERVER db_r OPTIONS (remote 'r')",
        )
        .unwrap();
        let ctas = c
            .execute("db_s", "CREATE TABLE r_mat AS SELECT * FROM r_ft")
            .unwrap();
        let [moved] = &ctas.transfers[..] else {
            panic!("{:?}", ctas.transfers);
        };
        assert_eq!((moved.purpose, moved.rows), (Purpose::Materialization, 3));
        assert_eq!(
            c.ledger.bytes_for(Purpose::Materialization),
            c.ledger.total_bytes()
        );
        // Materialized copy is now local: querying it moves nothing.
        c.ledger.clear();
        let (rel, _) = c.query("db_s", "SELECT count(*) AS n FROM r_mat").unwrap();
        assert_eq!(rel.value(0, 0), Value::Int(3));
        assert!(c.ledger.is_empty());
    }

    /// The morsels a fetch hands its sink follow the request's shape and
    /// chunk size: a chunked read of three rows at chunk 2 takes two, a
    /// one-morsel read one, and a chunked read of an empty edge none.
    #[test]
    #[allow(deprecated)]
    #[should_panic(expected = "a cluster holds no chunk size")]
    fn a_cluster_wide_chunk_size_is_refused() {
        let c = two_node();
        c.set_stream_chunk_rows(DEFAULT_STREAM_CHUNK_ROWS);
        c.set_reactor_threads(0);
        c.set_stream_chunk_rows(16);
    }

    #[test]
    fn a_fetch_takes_the_requests_chunks() {
        let c = two_node();
        c.execute("db_r", "CREATE TABLE e (x BIGINT, y VARCHAR)")
            .unwrap();
        let morsels = |relation: &str, read: ReadShape| {
            let request = FetchRequest {
                server: "db_r",
                relation,
                consumer: NodeId::new("db_s"),
                protocol_overhead: 1.0,
                purpose: Purpose::InterDbmsPipeline,
                depth: 1,
                opts: StatementOptions {
                    trace_ops: false,
                    chunk_rows: 2,
                },
                read,
            };
            let mut sizes = Vec::new();
            c.fetch(request, &mut |m| {
                sizes.push(m.as_ref().len());
                Ok(())
            })
            .unwrap();
            sizes
        };
        assert_eq!(morsels("r", ReadShape::Chunks), [2, 1]);
        assert_eq!(morsels("r", ReadShape::OneMorsel), [3]);
        assert_eq!(morsels("e", ReadShape::Chunks), [0usize; 0]);
        assert_eq!(morsels("e", ReadShape::OneMorsel), [0]);
    }

    /// A statement's chunk size reaches every edge behind it: both hops of
    /// a cascade are cut into one-row chunks at chunk 1, and into one
    /// chunk each under the default.
    #[test]
    fn chunk_rows_reach_nested_edges() {
        let mut c = two_node();
        c.add_engine("db_t", EngineProfile::postgres());
        c.execute(
            "db_s",
            "CREATE FOREIGN TABLE r_ft (x BIGINT, y VARCHAR) SERVER db_r OPTIONS (remote 'r')",
        )
        .unwrap();
        c.execute("db_s", "CREATE VIEW rs AS SELECT r_ft.y FROM r_ft")
            .unwrap();
        c.execute(
            "db_t",
            "CREATE FOREIGN TABLE rs_ft (y VARCHAR) SERVER db_s OPTIONS (remote 'rs')",
        )
        .unwrap();
        let chunks = || -> f64 {
            let snapshot = c.telemetry().metrics.snapshot();
            let chunks = snapshot
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("net.chunks"));
            chunks.map(|(_, v)| v).sum()
        };
        let one_row = StatementOptions {
            chunk_rows: 1,
            ..Default::default()
        };
        for (opts, want) in [(one_row, 6.0), (StatementOptions::default(), 2.0)] {
            let before = chunks();
            c.execute_with("db_t", "SELECT * FROM rs_ft", opts).unwrap();
            assert_eq!(chunks() - before, want, "{opts:?}");
        }
    }

    #[test]
    fn unknown_server_errors() {
        let c = two_node();
        c.execute(
            "db_s",
            "CREATE FOREIGN TABLE bad (x BIGINT) SERVER nowhere OPTIONS (remote 'r')",
        )
        .unwrap();
        let err = c.query("db_s", "SELECT * FROM bad").unwrap_err();
        assert!(matches!(err, EngineError::Remote(_)));
    }

    #[test]
    fn view_cycle_detected() {
        let c = two_node();
        // a (db_r) reads b (db_s); b reads a — a cross-engine cycle.
        c.execute(
            "db_r",
            "CREATE FOREIGN TABLE b_ft (x BIGINT) SERVER db_s OPTIONS (remote 'b')",
        )
        .unwrap();
        c.execute("db_r", "CREATE VIEW a AS SELECT x FROM b_ft")
            .unwrap();
        c.execute(
            "db_s",
            "CREATE FOREIGN TABLE a_ft (x BIGINT) SERVER db_r OPTIONS (remote 'a')",
        )
        .unwrap();
        c.execute("db_s", "CREATE VIEW b AS SELECT x FROM a_ft")
            .unwrap();
        let err = c.query("db_r", "SELECT * FROM a").unwrap_err();
        assert!(
            matches!(&err, EngineError::Remote(m) if m.contains("depth")),
            "{err}"
        );
    }

    #[test]
    fn heterogeneous_profiles_affect_timing() {
        let mut c = Cluster::new(Topology::lan(&[]));
        c.add_engine("pg", EngineProfile::postgres());
        c.add_engine("hv", EngineProfile::hive());
        for node in ["pg", "hv"] {
            c.execute_script(
                node,
                "CREATE TABLE t (x BIGINT); INSERT INTO t VALUES (1), (2), (3);",
            )
            .unwrap();
        }
        let (_, pg) = c.query("pg", "SELECT count(*) AS n FROM t").unwrap();
        let (_, hv) = c.query("hv", "SELECT count(*) AS n FROM t").unwrap();
        // Hive's start-up dominates.
        let gap = EngineProfile::hive().startup_ms - EngineProfile::postgres().startup_ms;
        assert!(hv.finish_ms > pg.finish_ms + 0.9 * gap);
    }
}
