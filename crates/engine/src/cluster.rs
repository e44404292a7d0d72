//! A federation of engines connected by the simulated network.
//!
//! The cluster is the "physical testbed": one engine per node, a topology
//! between them, and the transfer ledger. It implements [`Remote`] so that
//! an engine scanning a foreign table transparently triggers `SELECT * FROM
//! <relation>` on the owning engine — the SQL/MED wrapper mechanics of
//! Section V, including the recursive trickle-down execution of Figure 8.

use crate::engine::{
    Engine, ExecReport, FetchReply, FetchRequest, Remote, StatementOutcome, MAX_FETCH_DEPTH,
};
use crate::error::{EngineError, Result};
use crate::exec::{ExecRel, MorselSink, ReadShape};
use crate::profile::EngineProfile;
use crate::relation::Relation;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xdb_net::{reactor, wire, Ledger, NodeId, Topology};
use xdb_obs::Telemetry;

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
    /// Per-query wire-codec state cache: when one query streams the same
    /// relation over multiple edges, the producer-side encode (including
    /// the string-dictionary build) is derived once and reused. Keyed by
    /// relation identity — producer node, relation name, the producer's
    /// DDL generation at encode time, and the row count — so any catalog
    /// mutation invalidates stale entries. Cleared at the start of every
    /// submission ([`Cluster::clear_codec_cache`]).
    codec_cache: Mutex<HashMap<CodecCacheKey, Arc<wire::Encoded>>>,
}

/// Codec-cache identity: (producer node, relation name, producer DDL
/// generation at encode time, row count).
type CodecCacheKey = (String, String, u64, usize);

impl Cluster {
    pub fn new(topology: Topology) -> Cluster {
        let telemetry = Telemetry::new_handle();
        Cluster {
            engines: HashMap::new(),
            topology,
            ledger: Ledger::new().with_telemetry(Arc::clone(&telemetry)),
            telemetry,
            next_query_id: AtomicU64::new(1),
            codec_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Drop all memoized per-query wire-codec state. Called by the client
    /// at the start of every submission: dictionary reuse is scoped to one
    /// query's edges, never across queries.
    pub fn clear_codec_cache(&self) {
        self.codec_cache.lock().clear();
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

    /// Execute one SQL statement on a node, untraced.
    pub fn execute(&self, node: &str, sql: &str) -> Result<StatementOutcome> {
        self.execute_traced(node, sql, false)
    }

    /// Execute one SQL statement on a node; with `trace_ops` its report
    /// carries the operator profiles of the statement and of every producer
    /// behind its foreign tables.
    pub fn execute_traced(
        &self,
        node: &str,
        sql: &str,
        trace_ops: bool,
    ) -> Result<StatementOutcome> {
        self.engine(node)?.execute_sql_at(sql, self, 0, trace_ops)
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
            last = Some(engine.execute_statement(stmt, self, 0, false)?);
        }
        Ok(last)
    }

    /// Set the streamed-edge transport morsel size on every engine
    /// (0 = unbounded). Results, ledgers and simulated timings are
    /// bit-identical at any setting.
    pub fn set_stream_chunk_rows(&self, rows: usize) {
        for engine in self.engines.values() {
            engine.set_stream_chunk_rows(rows);
        }
    }

    /// Set the edge-reactor worker budget on every engine (0 = off,
    /// morsels decode inline). Results, ledgers and simulated timings are
    /// bit-identical at any setting.
    pub fn set_reactor_threads(&self, n: usize) {
        for engine in self.engines.values() {
            engine.set_reactor_threads(n);
        }
    }
}

impl Remote for Cluster {
    /// The one read of an edge: execute the producer-side scan (nested
    /// foreign-table scans recurse through this cluster), decode the edge
    /// into `sink` in the shape the consumer asked for, and record the
    /// transfer once the morsels are delivered.
    ///
    /// A one-morsel read drives the decoder sized for the whole edge and
    /// takes a single morsel. A chunked read takes one per transport chunk:
    /// with reactor workers available and more than one chunk, the decode
    /// runs ahead on the pool behind a bounded channel, overlapping with
    /// the consumer's compute; otherwise it runs inline. Both paths deliver
    /// the exact same morsel sequence.
    fn fetch(&self, request: FetchRequest<'_>, sink: &mut MorselSink<'_>) -> Result<FetchReply> {
        if request.depth > MAX_FETCH_DEPTH {
            return Err(EngineError::Remote(
                "maximum cross-engine recursion depth exceeded".into(),
            ));
        }
        let producer = self.engine(request.server)?;
        let sql = format!(
            "SELECT * FROM {}",
            producer.profile.dialect.ident(request.relation)
        );
        let outcome = producer.execute_sql_at(&sql, self, request.depth, request.trace_ops)?;
        let mut relation = outcome
            .relation
            .ok_or_else(|| EngineError::Remote("fetch produced no relation".into()))?;
        // Every edge really goes through the wire codec: encode once at
        // the producer (codec state spans the whole edge, so the encoded
        // size is chunk-invariant), then stream-decode at transport
        // granularity on the consumer side. The decoded rows — not the
        // producer's — are what flow on, so codec correctness is
        // load-bearing for every query result.
        //
        // Within one query the same relation often feeds several edges
        // (fan-out consumers, repeated foreign scans). The encoded frame —
        // string dictionaries included — is a pure function of the
        // relation's content, so reuse it instead of re-deriving per edge.
        // The DDL generation in the key invalidates entries the moment the
        // producer's catalog changes. Clients submitting concurrently
        // to one federation share (and clear) this cache, so the hit
        // *count* depends on how they interleave and
        // `net.codec.dict_reuse` lives in the quarantined `net.codec`
        // metric namespace; the encoded bytes themselves are deterministic
        // either way.
        let cache_key = (
            producer.node.as_str().to_string(),
            request.relation.to_string(),
            producer.ddl_generation(),
            relation.len(),
        );
        let cached = self.codec_cache.lock().get(&cache_key).cloned();
        let encoded = match cached {
            Some(enc) => {
                self.telemetry
                    .metrics
                    .counter_add("net.codec.dict_reuse", &[], 1.0);
                enc
            }
            None => {
                let enc = Arc::new(wire::encode(relation.columns(), relation.len()));
                self.codec_cache.lock().insert(cache_key, Arc::clone(&enc));
                enc
            }
        };
        let (bytes, nrows) = (relation.wire_bytes(), relation.len());
        let fields = std::mem::take(&mut relation.fields);
        // Only the encoded edge flows on: the producer's rows are freed
        // before the consumer decodes its own.
        drop(relation);
        let chunk_rows = producer.stream_chunk_rows();
        let stats = encoded.stats(chunk_rows);
        let step = match request.read {
            ReadShape::Chunks if chunk_rows > 0 => chunk_rows,
            _ => nrows,
        };
        let threads = producer.reactor_threads();
        if request.read == ReadShape::Chunks && nrows == 0 {
            // A chunked read of a zero-row edge ships no morsels; the
            // consumer builds its empty relation from the declared fields.
        } else if threads > 0 && nrows > step {
            // Reactor path: a pool worker decodes morsels ahead of the
            // consumer through a bounded channel. Wall-clock only — the
            // morsel sequence is the inline one by construction.
            self.telemetry
                .metrics
                .counter_add("sched.reactor_edges", &[], 1.0);
            let chan = Arc::new(reactor::EdgeChannel::<Relation>::new(
                reactor::EDGE_CHANNEL_CAPACITY,
            ));
            let tx = Arc::clone(&chan);
            let enc = Arc::clone(&encoded);
            let fields = fields.clone();
            reactor::spawn(threads, move || {
                let guard = reactor::PoisonGuard::new(Arc::clone(&tx));
                let mut dec = wire::StreamDecoder::with_morsel_capacity(&enc, step);
                while dec.remaining() > 0 {
                    let k = step.min(dec.remaining());
                    let cols = dec.take_columns(step);
                    if tx
                        .send(Relation::from_columns(fields.clone(), cols, k))
                        .is_err()
                    {
                        // The consumer bailed out (its guard poisoned the
                        // channel): abandon the stream, nothing to clean.
                        guard.defuse();
                        return;
                    }
                }
                tx.close();
                guard.defuse();
            });
            let guard = reactor::PoisonGuard::new(Arc::clone(&chan));
            let mut morsels = 0u64;
            loop {
                match chan.recv() {
                    // A `sink` error returns here with the guard still
                    // armed, poisoning the channel so the decode worker
                    // unblocks instead of waiting on a full ring.
                    Ok(Some(rel)) => {
                        morsels += 1;
                        sink(ExecRel::Owned(rel))?;
                    }
                    Ok(None) => break,
                    Err(reactor::Poisoned) => {
                        guard.defuse();
                        return Err(EngineError::Execution(
                            "edge reactor worker panicked mid-stream".into(),
                        ));
                    }
                }
            }
            guard.defuse();
            self.telemetry
                .metrics
                .counter_add("sched.reactor_morsels", &[], morsels as f64);
        } else {
            // Inline path: decode each morsel on the consuming thread,
            // fused with consumption. A one-morsel read takes exactly one,
            // also of a zero-row edge, so that its relation has the
            // decoder's column layouts.
            let mut dec = wire::StreamDecoder::with_morsel_capacity(&encoded, step);
            loop {
                let k = step.min(dec.remaining());
                let cols = dec.take_columns(step);
                sink(ExecRel::Owned(Relation::from_columns(
                    fields.clone(),
                    cols,
                    k,
                )))?;
                if dec.remaining() == 0 {
                    break;
                }
            }
        }
        self.ledger.record_wire(
            &producer.node,
            &request.consumer,
            bytes,
            nrows as u64,
            request.purpose,
            &stats,
        );
        // The simulated transfer pays for encoded bytes — compression is
        // what the streaming plane buys.
        let transfer_ms = self.topology.transfer_ms(
            &producer.node,
            &request.consumer,
            stats.encoded_bytes,
            request.protocol_overhead,
        );
        Ok(FetchReply {
            nrows,
            producer_finish_ms: outcome.report.finish_ms,
            transfer_ms,
            producer_profile: outcome.report.profile,
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
        let (rel, report) = c.query("db_t", "SELECT count(*) AS n FROM rs_ft").unwrap();
        assert_eq!(rel.value(0, 0), Value::Int(2));
        // Two hops recorded: db_r→db_s and db_s→db_t.
        assert_eq!(c.ledger.len(), 2);
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
        c.execute("db_s", "CREATE TABLE r_mat AS SELECT * FROM r_ft")
            .unwrap();
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

    #[test]
    fn codec_state_reused_across_repeated_edges() {
        // Same relation pulled over two edges: the second fetch must reuse
        // the memoized encode (dictionaries included) and say so on the
        // `net.codec.dict_reuse` counter; a producer-side catalog change
        // or an explicit cache clear must invalidate the entry.
        let c = two_node();
        let telemetry = Arc::clone(c.telemetry());
        c.execute(
            "db_s",
            "CREATE FOREIGN TABLE r_ft (x BIGINT, y VARCHAR) SERVER db_r OPTIONS (remote 'r')",
        )
        .unwrap();
        let reuse = || telemetry.metrics.value("net.codec.dict_reuse", &[]);

        let (a, _) = c.query("db_s", "SELECT r_ft.y FROM r_ft").unwrap();
        assert_eq!(reuse(), 0.0, "first edge must pay the encode");
        let (b, _) = c.query("db_s", "SELECT r_ft.y FROM r_ft").unwrap();
        assert_eq!(reuse(), 1.0, "repeated edge must hit the codec cache");
        assert!(a.same_bag(&b), "cached frames must decode identically");

        // A base-table catalog mutation on the producer bumps its DDL
        // generation, so the memoized frame no longer matches.
        c.execute(
            "db_r",
            "CREATE VIEW r_recent AS SELECT x, y FROM r WHERE x >= 2",
        )
        .unwrap();
        c.query("db_s", "SELECT r_ft.y FROM r_ft").unwrap();
        assert_eq!(reuse(), 1.0, "stale codec state must not be reused");

        c.query("db_s", "SELECT r_ft.y FROM r_ft").unwrap();
        assert_eq!(reuse(), 2.0);
        c.clear_codec_cache();
        c.query("db_s", "SELECT r_ft.y FROM r_ft").unwrap();
        assert_eq!(reuse(), 2.0, "cleared cache must re-encode");
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
