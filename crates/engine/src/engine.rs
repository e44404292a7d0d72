//! The embedded DBMS engine: SQL in, relations out.
//!
//! Each engine stands in for one underlying DBMS of the federation
//! (PostgreSQL/MariaDB/Hive per its [`EngineProfile`]). It owns a catalog,
//! binds and locally optimizes incoming SQL (the engine is free to reorder
//! operations *within* a task — exactly the autonomy the paper grants
//! underlying DBMSes), executes plans over real tuples, and reports both
//! measured cardinalities and simulated timing.
//!
//! A foreign table reaches the executor through one read at each layer:
//! [`Remote::fetch`] delivers an edge's morsels to a sink, and the engine's
//! resolver projects each one on the way to the operator. A materializing
//! read (a CTAS, a hash join's build side) is the one-morsel case of that
//! read, a streamed leaf the chunked one ([`ReadShape`]).

use crate::catalog::{Catalog, CatalogEntry};
use crate::error::{EngineError, Result};
use crate::exec::{
    project_columns, Execution, MorselSink, ReadShape, ScanOutput, ScanResolver, Scratch, Stored,
};
use crate::profile::EngineProfile;
use crate::relation::Relation;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xdb_net::{compose_finish, EdgeTiming, Movement, NodeId, Purpose, Transfer};
use xdb_obs::{ExecProfile, Level, Telemetry};
use xdb_sql::algebra::{Field, LogicalPlan};
use xdb_sql::ast::Statement;
use xdb_sql::bind::{bind_select, RelationFields, ResolvedRelation, SchemaProvider};
use xdb_sql::optimize::{optimize, OptimizeOptions};
use xdb_sql::stats::{ColumnStats, Estimator};
use xdb_sql::value::{DataType, Value};
use xdb_sql::ParseError;

/// Maximum depth of cross-engine recursion (cycle guard for view chains).
pub const MAX_FETCH_DEPTH: usize = 32;

/// Execution report of one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    pub rows: u64,
    /// Local work on this engine, simulated ms.
    pub work_ms: f64,
    /// Finish time including upstream (remote) dependencies, simulated ms
    /// from query start.
    pub finish_ms: f64,
    /// Per-operator execution profile, present only when the statement ran
    /// with operator tracing ([`StatementOptions::trace_ops`]).
    pub profile: Option<Box<ExecProfile>>,
}

/// Result of executing one statement; a DDL statement's is the default.
#[derive(Debug, Clone, Default)]
pub struct StatementOutcome {
    /// Present for SELECT and EXPLAIN.
    pub relation: Option<Relation>,
    pub report: ExecReport,
    /// Every transfer the statement caused, in the order the shared ledger
    /// received them ([`FetchReply::transfers`]).
    pub transfers: Vec<Transfer>,
}

impl StatementOutcome {
    /// The rows of a query and its report; an error for a statement that
    /// returned no rows.
    pub fn into_rows(self) -> Result<(Relation, ExecReport)> {
        let rel = self
            .relation
            .ok_or_else(|| EngineError::Execution("statement returned no rows".into()))?;
        Ok((rel, self.report))
    }
}

/// EXPLAIN-style estimate, the engine's answer to a "consulting" probe
/// (Section IV-B2).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainInfo {
    pub est_rows: f64,
    pub est_bytes: f64,
    /// Estimated execution cost in this engine's (calibratable) cost units.
    pub est_cost: f64,
}

/// What a statement carries besides its text, down to every producer it
/// reads through a foreign table. Nothing here lives in a shared engine, so
/// clients sharing a federation choose their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatementOptions {
    /// Collect per-operator profiles; without, the executor skips all
    /// per-operator bookkeeping.
    pub trace_ops: bool,
    /// Transport morsel size (rows) of the streamed edges the statement
    /// reads; 0 means unbounded (one chunk per edge). Codec state is
    /// computed per edge, never per chunk, so any value yields
    /// bit-identical results, ledgers and simulated timings: only the
    /// quarantined `net.chunks` series moves.
    pub chunk_rows: usize,
}

impl Default for StatementOptions {
    fn default() -> StatementOptions {
        StatementOptions {
            trace_ops: false,
            chunk_rows: DEFAULT_STREAM_CHUNK_ROWS,
        }
    }
}

/// A request to fetch `SELECT * FROM relation` from another engine.
pub struct FetchRequest<'a> {
    pub server: &'a str,
    pub relation: &'a str,
    pub consumer: NodeId,
    /// Per-byte protocol multiplier of the *consumer's* wrapper.
    pub protocol_overhead: f64,
    pub purpose: Purpose,
    pub depth: usize,
    /// The consumer statement's options: the producer's statement runs
    /// under them too, and the edge is chunked by their `chunk_rows`.
    pub opts: StatementOptions,
    /// How the consumer reads the edge, as its plan decided.
    pub read: ReadShape,
}

/// What a fetch reports besides the rows it delivered: their count, the
/// timing of producer and wire, and what moved.
pub struct FetchReply {
    pub nrows: usize,
    pub producer_finish_ms: f64,
    pub transfer_ms: f64,
    /// Execution profile of the producer side, when operator tracing is on.
    pub producer_profile: Option<Box<ExecProfile>>,
    /// The producer statement's transfers, then this edge's own record, in
    /// ledger order.
    pub transfers: Vec<Transfer>,
}

/// Something that can execute remote fetches on behalf of an engine — in
/// practice the [`crate::cluster::Cluster`]. Kept as a trait so engines can
/// run standalone and so tests can inject failures.
///
/// A foreign-table read is this one method. `sink` sees the edge's rows as
/// morsels, in edge order and shaped as `request.read` asks: the whole
/// edge as one morsel (even when it has no rows), or its transport chunks
/// (none for an edge without rows). Byte accounting and simulated timings
/// do not depend on the shape. An error from `sink` cancels the edge.
pub trait Remote {
    fn fetch(&self, request: FetchRequest<'_>, sink: &mut MorselSink<'_>) -> Result<FetchReply>;
}

/// A `Remote` that refuses all fetches (standalone engines).
pub struct NoRemote;

impl Remote for NoRemote {
    fn fetch(&self, request: FetchRequest<'_>, _sink: &mut MorselSink<'_>) -> Result<FetchReply> {
        Err(EngineError::Remote(format!(
            "no remote connectivity (fetch of {:?} from {:?})",
            request.relation, request.server
        )))
    }
}

/// One embedded DBMS instance.
pub struct Engine {
    pub node: NodeId,
    pub profile: EngineProfile,
    /// Statements run against a snapshot (`Arc::clone`); DDL and inserts
    /// mutate through `Arc::make_mut`, which copies the entry map only
    /// while a snapshot is still out.
    catalog: RwLock<Arc<Catalog>>,
    /// Bumped on every catalog mutation except those against transient
    /// per-query objects (see [`is_transient_object`]); consultation caches
    /// key their entries to the generation they observed and treat a
    /// mismatch as a stale entry (any DDL against base objects invalidates
    /// all cached probes for this node).
    ddl_generation: AtomicU64,
    /// Reusable per-query executor scratch (hash tables, chain buffers).
    /// Executions pop one on entry and push it back after the run, so
    /// steady-state queries stop reallocating their largest structures.
    scratch_pool: Mutex<Vec<Scratch>>,
    /// Fleet telemetry sink: the engine's own until its cluster hands it
    /// the federation's ([`crate::cluster::Cluster::add_engine`]).
    /// Per-engine gauges (`ddl.objects_live`,
    /// `catalog.rows`) are published while holding the catalog write lock,
    /// so their value sequence is exactly the catalog mutation order;
    /// scheduling-dependent counts (scratch-pool reuse) go under the
    /// `sched.` prefix and are excluded from determinism comparisons.
    telemetry: RwLock<Arc<Telemetry>>,
}

/// Short-lived, per-query namespaced objects: delegation views / foreign
/// tables / materializations (`xdb_q…`) and mediator scratch tables
/// (`__task_…`). They are created and dropped around every submission and
/// are never the target of a consultation probe.
pub(crate) fn is_transient_object(name: &str) -> bool {
    let n = name.trim_start_matches('"');
    n.starts_with("xdb_q") || n.starts_with("__task_")
}

impl Engine {
    pub fn new(node: impl Into<String>, profile: EngineProfile) -> Engine {
        Engine {
            node: NodeId::new(node),
            profile,
            catalog: RwLock::new(Arc::new(Catalog::new())),
            ddl_generation: AtomicU64::new(0),
            scratch_pool: Mutex::new(Vec::new()),
            telemetry: RwLock::new(Telemetry::new_handle()),
        }
    }

    /// Current telemetry handle.
    pub(crate) fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry.read())
    }

    /// Swap the telemetry sink (for the handle of the cluster the engine
    /// joins, or one several federations share) and re-publish this
    /// engine's gauges under it.
    pub(crate) fn set_telemetry(&self, telemetry: Arc<Telemetry>) {
        *self.telemetry.write() = telemetry;
        let catalog = self.catalog.read();
        self.publish_catalog_gauges(&catalog);
    }

    /// Publish `ddl.objects_live` / `catalog.rows` for this engine. Called
    /// with the catalog (write) lock held so the gauge value sequence
    /// mirrors catalog mutation order; during execution both quantities
    /// only grow (drops happen in the sequential cleanup phase), so the
    /// high-water marks are deterministic too.
    fn publish_catalog_gauges(&self, catalog: &Catalog) {
        let t = self.telemetry();
        let labels = [("engine", self.node.as_str())];
        t.metrics
            .gauge_set("ddl.objects_live", &labels, catalog.len() as f64);
        t.metrics
            .gauge_set("catalog.rows", &labels, catalog.total_rows() as f64);
    }

    /// Run read-only catalog access.
    pub fn with_catalog<T>(&self, f: impl FnOnce(&Catalog) -> T) -> T {
        f(&self.catalog.read())
    }

    /// The catalog as it is now, for one statement to bind and run against.
    fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.read())
    }

    /// Mutate the catalog under the write lock and publish its gauges.
    fn mutate_catalog<T>(&self, f: impl FnOnce(&mut Catalog) -> T) -> T {
        let mut guard = self.catalog.write();
        let catalog = Arc::make_mut(&mut guard);
        let out = f(catalog);
        self.publish_catalog_gauges(catalog);
        out
    }

    /// Run catalog mutation.
    pub fn with_catalog_mut<T>(&self, f: impl FnOnce(&mut Catalog) -> T) -> T {
        let out = self.mutate_catalog(f);
        self.ddl_generation.fetch_add(1, Ordering::Release);
        out
    }

    /// Catalog mutation on behalf of a named object. Per-query transient
    /// objects (delegation views / foreign tables / materializations,
    /// mediator scratch tables) are namespaced and never the target of a
    /// consultation probe, so creating or dropping them leaves cached
    /// probes against this node's base tables valid.
    pub(crate) fn with_catalog_mut_for<T>(
        &self,
        object: &str,
        f: impl FnOnce(&mut Catalog) -> T,
    ) -> T {
        if is_transient_object(object) {
            self.mutate_catalog(f)
        } else {
            self.with_catalog_mut(f)
        }
    }

    /// Current catalog generation; changes whenever the catalog is mutated.
    pub fn ddl_generation(&self) -> u64 {
        self.ddl_generation.load(Ordering::Acquire)
    }

    /// Count one executed DDL statement of `kind` (commutative, so the
    /// totals are identical under any executor interleaving).
    fn note_ddl(&self, kind: &'static str) {
        self.telemetry().metrics.counter_add(
            "ddl.statements",
            &[("engine", self.node.as_str()), ("kind", kind)],
            1.0,
        );
    }

    /// Bulk-load a table (generator path); replaces nothing, errors on
    /// duplicates.
    pub fn load_table(&self, name: &str, rel: Relation) -> Result<()> {
        self.with_catalog_mut(|c| c.create_table_from(name, rel))
    }

    /// Parse and execute one statement under the default options.
    pub fn execute_sql(&self, sql: &str, remote: &dyn Remote) -> Result<StatementOutcome> {
        self.execute_sql_at(sql, remote, 0, StatementOptions::default())
    }

    pub(crate) fn execute_sql_at(
        &self,
        sql: &str,
        remote: &dyn Remote,
        depth: usize,
        opts: StatementOptions,
    ) -> Result<StatementOutcome> {
        let stmt = xdb_sql::parse_statement(sql)
            .map_err(|e| log_parse_error(&self.telemetry(), sql, e))?;
        self.execute_statement(&stmt, remote, depth, opts)
    }

    /// Execute a parsed statement. With `opts.trace_ops` its report carries
    /// a per-operator [`ExecProfile`]; every producer it reads through a
    /// foreign table runs under the same `opts`.
    pub(crate) fn execute_statement(
        &self,
        stmt: &Statement,
        remote: &dyn Remote,
        depth: usize,
        opts: StatementOptions,
    ) -> Result<StatementOutcome> {
        if depth > MAX_FETCH_DEPTH {
            return Err(EngineError::Remote(
                "maximum cross-engine recursion depth exceeded (view cycle?)".into(),
            ));
        }
        match stmt {
            Statement::Select(s) => {
                self.run_select(s, remote, depth, opts, Purpose::InterDbmsPipeline)
            }
            Statement::Explain(s) => {
                let info = self.explain_select(s)?;
                let rel = Relation::new(
                    vec![
                        ("est_rows".to_string(), DataType::Float),
                        ("est_bytes".to_string(), DataType::Float),
                        ("est_cost".to_string(), DataType::Float),
                    ],
                    vec![vec![
                        Value::Float(info.est_rows),
                        Value::Float(info.est_bytes),
                        Value::Float(info.est_cost),
                    ]],
                );
                Ok(StatementOutcome {
                    relation: Some(rel),
                    ..StatementOutcome::default()
                })
            }
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let result = self.with_catalog_mut_for(name, |c| c.create_table(name, columns));
                match result {
                    Err(EngineError::Catalog(_)) if *if_not_exists => {}
                    other => {
                        other?;
                        self.note_ddl("create_table");
                    }
                }
                Ok(StatementOutcome::default())
            }
            Statement::CreateView {
                name,
                query,
                or_replace,
            } => {
                // Validate the view binds against the current catalog.
                bind_select(query, &*self.snapshot())?;
                self.with_catalog_mut_for(name, |c| {
                    c.create_view(name, (**query).clone(), *or_replace)
                })?;
                self.note_ddl("create_view");
                Ok(StatementOutcome::default())
            }
            Statement::CreateForeignTable {
                name,
                columns,
                server,
                remote_name,
            } => {
                self.with_catalog_mut_for(name, |c| {
                    c.create_foreign_table(name, columns, server, remote_name.as_deref())
                })?;
                self.note_ddl("create_foreign_table");
                Ok(StatementOutcome::default())
            }
            Statement::CreateTableAs { name, query } => {
                // Execute (pulling remote data through the wrapper), then
                // materialize locally: the paper's explicit data movement.
                let mut outcome =
                    self.run_select(query, remote, depth, opts, Purpose::Materialization)?;
                let rel = outcome.relation.take().unwrap_or_default();
                let import_ms = rel.len() as f64 * self.profile.write_cost_ms;
                outcome.report.work_ms += import_ms;
                outcome.report.finish_ms += import_ms;
                // The result already arrived morsel-wise over the streamed
                // edge; store it as-is.
                self.with_catalog_mut_for(name, |c| c.create_table_from(name, rel))?;
                self.note_ddl("create_table_as");
                Ok(outcome)
            }
            Statement::Insert { table, rows } => {
                let empty = xdb_sql::algebra::PlanSchema::default();
                let mut evaluated = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut out = Vec::with_capacity(row.len());
                    for e in row {
                        let c = crate::expr::compile(e, &empty)?;
                        out.push(c.eval(&[])?);
                    }
                    evaluated.push(out);
                }
                self.with_catalog_mut_for(table, |c| c.insert_rows(table, evaluated))?;
                Ok(StatementOutcome::default())
            }
            Statement::Drop {
                kind,
                name,
                if_exists,
            } => {
                self.with_catalog_mut_for(name, |c| c.drop(*kind, name, *if_exists))?;
                self.note_ddl("drop");
                Ok(StatementOutcome::default())
            }
        }
    }

    /// Bind, locally optimize, and execute a SELECT.
    fn run_select(
        &self,
        stmt: &xdb_sql::SelectStmt,
        remote: &dyn Remote,
        depth: usize,
        opts: StatementOptions,
        purpose: Purpose,
    ) -> Result<StatementOutcome> {
        let snapshot = self.snapshot();
        let plan = bind_select(stmt, &*snapshot)?;
        let plan = optimize(plan, &*snapshot, OptimizeOptions::default());
        self.run_plan(&plan, &snapshot, remote, depth, opts, purpose)
    }

    /// Execute an already-optimized plan against a catalog snapshot.
    fn run_plan(
        &self,
        plan: &LogicalPlan,
        snapshot: &Catalog,
        remote: &dyn Remote,
        depth: usize,
        opts: StatementOptions,
        purpose: Purpose,
    ) -> Result<StatementOutcome> {
        let resolver = EngineResolver {
            engine: self,
            snapshot,
            remote,
            depth,
            opts,
            purpose,
            foreign_rows: std::cell::Cell::new(0),
            transfers: std::cell::RefCell::new(Vec::new()),
        };
        let telemetry = self.telemetry();
        let engine_label = [("engine", self.node.as_str())];
        let mut exec = Execution::new(&resolver);
        // Scratch reuse depends on how concurrent executions interleave on
        // the shared pool, so these counters live under the reserved
        // `sched.` prefix (excluded from determinism comparisons).
        if let Some(s) = self.scratch_pool.lock().pop() {
            exec.scratch = s;
            telemetry
                .metrics
                .counter_add("sched.scratch_reuse", &engine_label, 1.0);
        } else {
            telemetry
                .metrics
                .counter_add("sched.scratch_alloc", &engine_label, 1.0);
        }
        if opts.trace_ops {
            exec.collect_ops();
        }
        let rel = exec.run(plan)?;
        self.scratch_pool
            .lock()
            .push(std::mem::take(&mut exec.scratch));
        let foreign_rows = resolver.foreign_rows.get();
        let work_ms = self.profile.work_ms(exec.scan_units, exec.olap_units)
            + foreign_rows as f64 * self.profile.foreign_row_cost_ms;
        let finish_ms = compose_finish(self.profile.startup_ms, work_ms, &exec.edges);
        let profile = exec.ops.take().map(|ops| {
            Box::new(ExecProfile {
                node: self.node.as_str().to_string(),
                rows: rel.len() as u64,
                bytes: rel.wire_bytes(),
                work_ms,
                finish_ms,
                ops,
                remotes: std::mem::take(&mut exec.remotes),
            })
        });
        // Simulated-clock work per executed statement: histogram observes
        // are order-independent, so this is safe from concurrent fetches.
        telemetry
            .metrics
            .observe("engine.statement_ms", &engine_label, work_ms);
        let report = ExecReport {
            rows: rel.len() as u64,
            work_ms,
            finish_ms,
            profile,
        };
        Ok(StatementOutcome {
            relation: Some(rel),
            report,
            transfers: resolver.transfers.into_inner(),
        })
    }

    /// Answer an EXPLAIN probe without executing: estimated rows, bytes,
    /// and cost in this engine's units.
    pub fn explain_select(&self, stmt: &xdb_sql::SelectStmt) -> Result<ExplainInfo> {
        let snapshot = self.snapshot();
        let plan = bind_select(stmt, &*snapshot)?;
        let plan = optimize(plan, &*snapshot, OptimizeOptions::default());
        Ok(self.explain_plan(&plan, &snapshot))
    }

    /// Cost a plan with this engine's estimator and profile.
    pub(crate) fn explain_plan(&self, plan: &LogicalPlan, snapshot: &Catalog) -> ExplainInfo {
        let est = Estimator::new(snapshot);
        let rows = est.rows(plan);
        let bytes = est.bytes(plan);
        // Rough cost: every operator touches its input once.
        let mut cost = 0.0;
        fn walk(plan: &LogicalPlan, est: &Estimator, cost: &mut f64) {
            for c in plan.children() {
                walk(c, est, cost);
                *cost += est.rows(c);
            }
            *cost += est.rows(plan);
        }
        walk(plan, &est, &mut cost);
        ExplainInfo {
            est_rows: rows,
            est_bytes: bytes,
            est_cost: cost * self.profile.cpu_tuple_cost_ms * self.profile.olap_factor,
        }
    }

    /// Metadata consultation: fields of a relation (expanding views by
    /// binding their queries).
    pub fn relation_fields(&self, name: &str) -> Result<RelationFields> {
        let snapshot = self.snapshot();
        match snapshot.resolve_relation(name) {
            Some(ResolvedRelation::View { query }) => {
                let plan = bind_select(&query, &*snapshot)?;
                Ok(plan
                    .schema()
                    .fields
                    .iter()
                    .map(|f| (f.name.clone(), f.data_type))
                    .collect())
            }
            Some(ResolvedRelation::Base { fields }) => Ok(fields),
            None => Err(EngineError::Catalog(format!("unknown relation {name:?}"))),
        }
    }

    /// Statistics consultation for the cross-database optimizer: the row
    /// count and every column's statistics. Columns nobody read yet are
    /// computed here, on a snapshot, outside the catalog lock.
    pub fn consult_stats(&self, relation: &str) -> Option<(f64, HashMap<String, ColumnStats>)> {
        match self.snapshot().get(relation) {
            Some(CatalogEntry::Table(t)) => Some((t.stats.row_count, t.all_column_stats())),
            _ => None,
        }
    }
}

/// Default transport morsel size for streamed edges (`0` = unbounded, one
/// chunk per edge). Any size is unobservable: `crates/core/tests/streaming.rs`
/// and `props_chunking.rs` hold results, ledgers and traces identical at 1,
/// 4096 and 0.
pub const DEFAULT_STREAM_CHUNK_ROWS: usize = 4096;

/// Log a failure to parse caller text as one `sql.parse` Warn event on the
/// federation's `telemetry`, and hand the error back. Every entry point that
/// parses text it was given logs through here; generated DDL always parses,
/// so the events only fire on malformed input.
pub fn log_parse_error(telemetry: &Telemetry, sql: &str, e: ParseError) -> EngineError {
    let (message, offset) = (format!("parse error: {}", e.message), e.offset.to_string());
    let fields = [("offset", offset.as_str()), ("sql", sql)];
    telemetry
        .events
        .log(Level::Warn, "sql.parse", None, 0.0, message, &fields);
    EngineError::Parse(e)
}

/// Scan resolver over a catalog snapshot: a local table is its one shared
/// morsel, projected in place; a foreign table is read through the
/// wrapper's one [`Remote::fetch`], in the shape the executor asked for.
struct EngineResolver<'a> {
    engine: &'a Engine,
    snapshot: &'a Catalog,
    remote: &'a dyn Remote,
    depth: usize,
    opts: StatementOptions,
    purpose: Purpose,
    foreign_rows: std::cell::Cell<u64>,
    /// What the reads moved, in ledger order: no read starts inside
    /// another's sink (a join reads its build side before its probe side).
    transfers: std::cell::RefCell<Vec<Transfer>>,
}

impl ScanResolver for EngineResolver<'_> {
    /// Only foreign tables stream: their rows arrive over a decoded wire
    /// edge with natural chunk boundaries. The executor uses this to commit
    /// to a streamed pipeline before running anything.
    fn streams(&self, relation: &str) -> bool {
        matches!(
            self.snapshot.get(relation),
            Some(CatalogEntry::ForeignTable { .. })
        )
    }

    fn scan(
        &self,
        relation: &str,
        wanted: &[Field],
        read: ReadShape,
        sink: &mut MorselSink<'_>,
    ) -> Result<ScanOutput> {
        match self.snapshot.get(relation) {
            Some(CatalogEntry::Table(t)) => {
                sink(project_columns(
                    Stored::Shared(Arc::clone(&t.data)),
                    wanted,
                )?)?;
                Ok(ScanOutput {
                    nrows: t.data.len(),
                    edge: None,
                    remote: None,
                })
            }
            Some(CatalogEntry::ForeignTable {
                server,
                remote_name,
                ..
            }) => {
                let request = FetchRequest {
                    server,
                    relation: remote_name,
                    consumer: self.engine.node.clone(),
                    protocol_overhead: self.engine.profile.protocol_overhead,
                    purpose: self.purpose,
                    depth: self.depth + 1,
                    opts: self.opts,
                    read,
                };
                let reply = self
                    .remote
                    .fetch(request, &mut |m| sink(project_columns(m, wanted)?))?;
                self.foreign_rows
                    .set(self.foreign_rows.get() + reply.nrows as u64);
                self.transfers.borrow_mut().extend(reply.transfers);
                Ok(ScanOutput {
                    nrows: reply.nrows,
                    edge: Some(EdgeTiming {
                        producer_finish_ms: reply.producer_finish_ms,
                        transfer_ms: reply.transfer_ms,
                        import_ms: 0.0,
                        movement: Movement::Implicit,
                    }),
                    remote: reply.producer_profile,
                })
            }
            Some(CatalogEntry::View { .. }) => Err(EngineError::Execution(format!(
                "view {relation:?} reached the executor unexpanded"
            ))),
            None => Err(EngineError::Catalog(format!(
                "unknown relation {relation:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let e = Engine::new("db1", EngineProfile::postgres());
        for sql in [
            "CREATE TABLE emp (id BIGINT, name VARCHAR, dept VARCHAR, salary DOUBLE)",
            "INSERT INTO emp VALUES (1, 'ann', 'eng', 100.0), (2, 'bob', 'eng', 80.0), (3, 'cat', 'ops', 90.0)",
            "CREATE TABLE dept (dname VARCHAR, budget BIGINT)",
            "INSERT INTO dept VALUES ('eng', 1000), ('ops', 500)",
        ] {
            e.execute_sql(sql, &NoRemote).unwrap();
        }
        e
    }

    fn rows(e: &Engine, sql: &str) -> Relation {
        e.execute_sql(sql, &NoRemote).unwrap().relation.unwrap()
    }

    #[test]
    fn end_to_end_select() {
        let e = engine();
        let r = rows(
            &e,
            "SELECT e.name, d.budget FROM emp e, dept d WHERE e.dept = d.dname AND e.salary >= 90 ORDER BY e.name",
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, 0), Value::str("ann"));
        assert_eq!(r.value(0, 1), Value::Int(1000));
    }

    #[test]
    fn views_expand() {
        let e = engine();
        e.execute_sql(
            "CREATE VIEW rich AS SELECT name, salary FROM emp WHERE salary > 85",
            &NoRemote,
        )
        .unwrap();
        let r = rows(&e, "SELECT count(*) AS n FROM rich");
        assert_eq!(r.value(0, 0), Value::Int(2));
        // Views of views.
        e.execute_sql(
            "CREATE VIEW richer AS SELECT name FROM rich WHERE salary > 95",
            &NoRemote,
        )
        .unwrap();
        let r = rows(&e, "SELECT * FROM richer");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn view_validation_fails_on_bad_column() {
        let e = engine();
        let err = e
            .execute_sql("CREATE VIEW bad AS SELECT nothere FROM emp", &NoRemote)
            .unwrap_err();
        assert!(matches!(err, EngineError::Bind(_)));
    }

    #[test]
    fn create_table_as_materializes() {
        let e = engine();
        let out = e
            .execute_sql(
                "CREATE TABLE eng_only AS SELECT name, salary FROM emp WHERE dept = 'eng'",
                &NoRemote,
            )
            .unwrap();
        assert!(out.report.work_ms > 0.0);
        let r = rows(&e, "SELECT count(*) AS n FROM eng_only");
        assert_eq!(r.value(0, 0), Value::Int(2));
    }

    #[test]
    fn foreign_table_without_remote_errors() {
        let e = engine();
        e.execute_sql(
            "CREATE FOREIGN TABLE ft (x BIGINT) SERVER other OPTIONS (remote 'r')",
            &NoRemote,
        )
        .unwrap();
        let err = e.execute_sql("SELECT * FROM ft", &NoRemote).unwrap_err();
        assert!(matches!(err, EngineError::Remote(_)));
    }

    #[test]
    fn explain_returns_estimates() {
        let e = engine();
        let r = rows(&e, "EXPLAIN SELECT * FROM emp WHERE salary > 90");
        assert_eq!(r.len(), 1);
        let info = e
            .explain_select(&xdb_sql::parse_select("SELECT * FROM emp").unwrap())
            .unwrap();
        assert_eq!(info.est_rows, 3.0);
        assert!(info.est_cost > 0.0);
    }

    #[test]
    fn reports_include_timing() {
        let e = engine();
        let out = e.execute_sql("SELECT * FROM emp", &NoRemote).unwrap();
        let report = out.report;
        assert_eq!(report.rows, 3);
        assert!(report.finish_ms >= e.profile.startup_ms);
    }

    #[test]
    fn drop_and_if_exists() {
        let e = engine();
        e.execute_sql("DROP TABLE dept", &NoRemote).unwrap();
        assert!(e.execute_sql("SELECT * FROM dept", &NoRemote).is_err());
        e.execute_sql("DROP TABLE IF EXISTS dept", &NoRemote)
            .unwrap();
    }

    #[test]
    fn consult_stats_reports_distincts() {
        let e = engine();
        let (rows, cols) = e.consult_stats("emp").unwrap();
        assert_eq!(rows, 3.0);
        assert_eq!(cols.get("dept").unwrap().n_distinct, 2.0);
        assert!(e.consult_stats("nope").is_none());
    }

    #[test]
    fn transient_ddl_leaves_generation_alone() {
        let e = engine();
        let before = e.ddl_generation();
        // Per-query delegation objects and mediator scratch tables come and
        // go around every submission; they must not invalidate cached
        // consultation probes against base tables.
        e.execute_sql("CREATE VIEW xdb_q1_t0 AS SELECT name FROM emp", &NoRemote)
            .unwrap();
        e.execute_sql("CREATE TABLE __task_0 AS SELECT name FROM emp", &NoRemote)
            .unwrap();
        e.execute_sql("DROP VIEW xdb_q1_t0", &NoRemote).unwrap();
        e.execute_sql("DROP TABLE __task_0", &NoRemote).unwrap();
        assert_eq!(e.ddl_generation(), before);
        // DDL against a base object still invalidates.
        e.execute_sql("CREATE TABLE copy_emp AS SELECT name FROM emp", &NoRemote)
            .unwrap();
        assert!(e.ddl_generation() > before);
    }

    #[test]
    fn relation_fields_expands_views() {
        let e = engine();
        e.execute_sql(
            "CREATE VIEW v AS SELECT name, salary * 2 AS double_pay FROM emp",
            &NoRemote,
        )
        .unwrap();
        let fields = e.relation_fields("v").unwrap();
        assert_eq!(fields.len(), 2);
        assert_eq!(&*fields[1].0, "double_pay");
        assert_eq!(fields[1].1, DataType::Float);
    }
}
