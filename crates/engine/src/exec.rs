//! Morsel-driven executor for logical plans, with work accounting.
//!
//! An operator reads a child through [`Execution::feed`]: the chunks of a
//! streamed edge, a join's output per probe morsel (every join, inner,
//! cross, semi or anti, is the one [`Execution::hash_join`]), or — the
//! one-morsel case of the same code — the child's whole relation. What each
//! operator owes besides its rows (work units, op entries, timing edges) is
//! therefore written once, whichever way the rows travel.
//!
//! The same rule holds one layer down: a leaf has one read,
//! [`ScanResolver::scan`], which hands morsels to a sink by value. A
//! streamed leaf under a filter, an aggregate or a join's probe side asks
//! it for its edge's chunks, and every other scan for one morsel
//! ([`ReadShape`]); a local table's one morsel is its shared `Arc`, so no
//! row is copied.
//!
//! Every operator really runs over real tuples — cardinalities and byte
//! counts in the experiments are measured, not estimated. The executor also
//! accumulates *work units* (rows × per-operator weight) which the engine
//! profile converts into simulated milliseconds, and collects timing edges
//! for every remote (foreign-table) scan it triggered.
//!
//! The data plane is columnar and materializes late: operators evaluate
//! expressions one column at a time ([`crate::vector`]) and carry row
//! subsets as selection vectors (a predicate, a join's residual included,
//! goes straight to one). A filter's, sort's or join's output is its
//! inputs read through selections ([`ExecRel`]), so a column is gathered
//! once, by the operator that reads it, and the rest only at
//! [`Execution::run`]'s boundary. Every operator runs on the calling
//! thread: this module starts none.
//!
//! What the simulated clock and the reports see is the plan: a hash join
//! is accounted as building on its right child. Which side this process
//! hashes is the smaller one where it can know that
//! ([`Execution::hash_join`]), and is not an observable.

use crate::error::{EngineError, Result};
use crate::expr::{compile, PhysExpr};
use crate::relation::Relation;
use crate::vector;
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::mem::{discriminant, Discriminant};
use std::sync::Arc;
use xdb_net::EdgeTiming;
use xdb_obs::{ExecProfile, OpStat};
use xdb_sql::algebra::{named_columns, AggCall, AggFunc, Field, LogicalPlan, Name, PlanSchema};
use xdb_sql::column::{Column, ColumnBuilder, TypedCol};
use xdb_sql::hash::{FastMap, FastSet};
use xdb_sql::value::{DataType, Value};

/// Per-operator work-unit weights (rows processed × weight). Values are
/// relative; the engine profile's `cpu_tuple_cost_ms` sets the scale.
pub mod weights {
    pub const SCAN: f64 = 0.2;
    pub const FILTER: f64 = 0.4;
    pub const PROJECT: f64 = 0.3;
    pub const JOIN: f64 = 1.0;
    pub const AGGREGATE: f64 = 1.2;
    pub const SORT: f64 = 0.4;
    pub const DISTINCT: f64 = 0.8;
}

/// Chain terminator in the chained hash tables below.
const NO_NEXT: u32 = u32::MAX;

/// Candidate pairs a join with a residual holds at once: [`probe_chain`]
/// stops between probe rows before the next row's candidates would carry
/// it past this many, and the residual runs over each such block. A probe
/// row whose own chain is longer is one block.
const RESIDUAL_BLOCK_PAIRS: usize = 1 << 16;

/// A stored relation: a leaf's morsel, or a relation an operator built.
/// Either uniquely owned (rows can be moved) or shared with the catalog /
/// other readers: pass-through paths (full-table scans, identity
/// projections) hand out the `Arc` instead of deep-copying every row.
#[derive(Debug, Clone)]
pub enum Stored {
    Owned(Relation),
    Shared(Arc<Relation>),
}

impl AsRef<Relation> for Stored {
    fn as_ref(&self) -> &Relation {
        match self {
            Stored::Owned(r) => r,
            Stored::Shared(r) => r,
        }
    }
}

impl Stored {
    /// Extract an owned relation, copying only if the data is still shared.
    fn into_owned(self) -> Relation {
        match self {
            Stored::Owned(r) => r,
            Stored::Shared(r) => Arc::try_unwrap(r).unwrap_or_else(|a| (*a).clone()),
        }
    }

    /// The same rows, cheap to clone.
    fn shared(self) -> Stored {
        match self {
            Stored::Owned(r) => Stored::Shared(Arc::new(r)),
            shared => shared,
        }
    }
}

/// A relation flowing between operators, materialized late: its parts,
/// stored relations side by side, each read through its own row selection.
/// - A filter, sort, limit, DISTINCT or semi/anti join composes a
///   selection onto every part (`ExecRel::select`); no column is copied.
/// - An inner join's output is its left input's parts read through its pairs'
///   left rows, then its right input's through their right rows
///   (`ExecRel::pair`): `sel'[i] = sel[pair[i]]`.
///
/// An operator gathers only the columns it reads (`ExecRel::column`,
/// `ReadExpr`); everything else is gathered once, by
/// `ExecRel::materialize` at [`Execution::run`]'s boundary, or, for a
/// stream that arrived in several chunks, by `Concat`.
#[derive(Debug)]
pub struct ExecRel {
    parts: Parts,
    rows: usize,
}

/// One part inline, so a scan's morsel or an operator's fresh output
/// allocates no list.
#[derive(Debug)]
enum Parts {
    One(Part),
    Many(Vec<Part>),
}

/// A stored relation read through a row selection.
#[derive(Debug)]
struct Part {
    rel: Stored,
    /// The rows of `rel` read, in order; `None`: all of them.
    sel: Option<Vec<u32>>,
}

impl Part {
    /// Column `c` at this part's rows `pick` (all of them when `None`):
    /// the stored column itself where that is every row, else one gather
    /// through the composed selection.
    fn column(&self, c: usize, pick: Option<&[u32]>) -> Column {
        let col = self.rel.as_ref().column(c);
        match (&self.sel, pick) {
            (None, None) => col.clone(),
            (Some(s), None) => col.gather(s),
            (None, Some(p)) => col.gather(p),
            (Some(s), Some(p)) => col.gather(&compose(s, p)),
        }
    }

    /// The rows of the stored relation that this part's rows `pick` read.
    fn read_at(&self, pick: &[u32]) -> Vec<u32> {
        match &self.sel {
            None => pick.to_vec(),
            Some(s) => compose(s, pick),
        }
    }
}

/// `sel[pick[i]]` for every `i`: the rows of a stored relation that rows
/// `pick` of a selection over it read.
fn compose(sel: &[u32], pick: &[u32]) -> Vec<u32> {
    pick.iter().map(|&i| sel[i as usize]).collect()
}

impl From<Stored> for ExecRel {
    /// Every row of a stored relation.
    fn from(rel: Stored) -> ExecRel {
        ExecRel {
            rows: rel.as_ref().len(),
            parts: Parts::One(Part { rel, sel: None }),
        }
    }
}

impl ExecRel {
    fn owned(rel: Relation) -> ExecRel {
        Stored::Owned(rel).into()
    }

    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    fn parts(&self) -> &[Part] {
        match &self.parts {
            Parts::One(s) => std::slice::from_ref(s),
            Parts::Many(v) => v,
        }
    }

    fn parts_mut(&mut self) -> &mut [Part] {
        match &mut self.parts {
            Parts::One(s) => std::slice::from_mut(s),
            Parts::Many(v) => v,
        }
    }

    fn into_parts(self) -> impl Iterator<Item = Part> {
        let (one, many) = match self.parts {
            Parts::One(s) => (Some(s), Vec::new()),
            Parts::Many(v) => (None, v),
        };
        one.into_iter().chain(many)
    }

    fn width(&self) -> usize {
        self.parts().iter().map(|s| s.rel.as_ref().width()).sum()
    }

    /// The stored relation itself when this reads every row of exactly
    /// one: an operator evaluates over it in place.
    fn whole(&self) -> Option<&Relation> {
        match &self.parts {
            Parts::One(Part { rel, sel: None }) => Some(rel.as_ref()),
            _ => None,
        }
    }

    /// The part holding column `j`, and the column's position there.
    fn locate(&self, mut j: usize) -> (&Part, usize) {
        for s in self.parts() {
            let w = s.rel.as_ref().width();
            if j < w {
                return (s, j);
            }
            j -= w;
        }
        panic!("column {j} past the relation's width")
    }

    /// Column `j`'s name and type.
    fn field(&self, j: usize) -> &(String, DataType) {
        let (s, c) = self.locate(j);
        &s.rel.as_ref().fields[c]
    }

    /// Column `j` as this relation's rows read it.
    fn column(&self, j: usize) -> Column {
        let (s, c) = self.locate(j);
        s.column(c, None)
    }

    /// Column `j` at this relation's rows `pick`, in one gather.
    fn column_at(&self, j: usize, pick: &[u32]) -> Column {
        let (s, c) = self.locate(j);
        s.column(c, Some(pick))
    }

    /// Rows `pick` of this relation, in `pick` order: a selection composed
    /// onto every part. The first part keeps `pick`'s own buffer, composed
    /// in place, so a filter over a stored relation allocates nothing more
    /// than its selection.
    fn select(mut self, mut pick: Vec<u32>) -> ExecRel {
        self.rows = pick.len();
        let (first, rest) = self
            .parts_mut()
            .split_first_mut()
            .expect("a relation has a part");
        for s in rest {
            s.sel = Some(s.read_at(&pick));
        }
        if let Some(sel) = &first.sel {
            pick.iter_mut().for_each(|p| *p = sel[*p as usize]);
        }
        first.sel = Some(pick);
        self
    }

    /// The first `n` rows.
    fn head(mut self, n: usize) -> ExecRel {
        self.rows = n;
        for s in self.parts_mut() {
            match &mut s.sel {
                Some(sel) => sel.truncate(n),
                None => s.sel = Some((0..n as u32).collect()),
            }
        }
        self
    }

    /// A join's output: row `lsel[i]` of `l` beside row `rsel[i]` of `r`.
    /// `r`'s parts are cloned, so that one build side serves every probe
    /// morsel: make it [`ExecRel::shared`] first.
    fn pair(l: ExecRel, r: &ExecRel, lsel: &[u32], rsel: &[u32]) -> ExecRel {
        let left = l.into_parts().map(|s| Part {
            sel: Some(s.read_at(lsel)),
            rel: s.rel,
        });
        let right = r.parts().iter().map(|s| Part {
            rel: s.rel.clone(),
            sel: Some(s.read_at(rsel)),
        });
        ExecRel {
            parts: Parts::Many(left.chain(right).collect()),
            rows: lsel.len(),
        }
    }

    /// Every part's stored relation made cheap to clone.
    fn shared(mut self) -> ExecRel {
        for s in self.parts_mut() {
            let rel = std::mem::replace(&mut s.rel, Stored::Owned(Relation::default()));
            s.rel = rel.shared();
        }
        self
    }

    /// The one place every column of a relation is gathered: the boundary
    /// of [`Execution::run`], whose result feeds `CREATE TABLE AS`, the
    /// fetch encoder and the root result. A stored relation read whole is
    /// handed over as it is.
    fn materialize(self) -> Relation {
        if let Parts::One(Part { rel, sel: None }) = self.parts {
            return rel.into_owned();
        }
        let parts = self.parts();
        let fields = parts
            .iter()
            .flat_map(|s| s.rel.as_ref().fields.iter().cloned());
        let cols = parts
            .iter()
            .flat_map(|s| (0..s.rel.as_ref().width()).map(move |c| s.column(c, None)));
        Relation::from_columns(fields.collect(), cols.collect(), self.rows)
    }
}

/// Morsels laid end to end into one relation, for a reader that takes its
/// input whole: a filter over a streamed leaf that [`Execution::run_rel`]
/// reads, and every join's output, one morsel per probe morsel
/// ([`Execution::concat`]). One morsel stays as it arrived. From a second
/// on, each morsel's first `gathered` columns
/// (a filter's every column, a join's probe side's) are gathered as it
/// arrives, so no chunk outlives its arrival and a selective filter keeps
/// only the rows it passed; the parts after them, the one build side every
/// morsel of a join reads, only extend their selections.
struct Concat {
    gathered: usize,
    laid: Laid,
}

enum Laid {
    Nothing,
    One(ExecRel),
    /// The gathered columns, their fields, and the parts after them.
    Many {
        fields: Vec<(String, DataType)>,
        cols: Vec<Column>,
        rest: Vec<Part>,
        rows: usize,
    },
}

impl Concat {
    fn new(gathered: usize) -> Concat {
        Concat {
            gathered,
            laid: Laid::Nothing,
        }
    }

    /// Lay `m` after the morsels before it. An empty morsel is kept only
    /// while no other came.
    fn push(&mut self, m: ExecRel) {
        self.laid = match std::mem::replace(&mut self.laid, Laid::Nothing) {
            Laid::Nothing => Laid::One(m),
            Laid::One(first) if first.len() == 0 => Laid::One(m),
            laid if m.len() == 0 => laid,
            Laid::One(first) => {
                let mut many = Laid::Many {
                    fields: Vec::new(),
                    cols: Vec::new(),
                    rest: Vec::new(),
                    rows: 0,
                };
                self.append(&mut many, first);
                self.append(&mut many, m);
                many
            }
            mut many => {
                self.append(&mut many, m);
                many
            }
        };
    }

    /// The one place morsels are gathered onto each other: `m`'s first
    /// `gathered` columns appended to `many`'s, its other parts' rows to
    /// theirs.
    fn append(&self, many: &mut Laid, m: ExecRel) {
        let Laid::Many {
            fields,
            cols,
            rest,
            rows,
        } = many
        else {
            unreachable!("appended only to gathered morsels")
        };
        let first = cols.is_empty();
        *rows += m.len();
        let (mut width, mut at) = (0, 0);
        for s in m.into_parts() {
            if width == self.gathered {
                match rest.get_mut(at) {
                    Some(dst) => {
                        let sel = dst
                            .sel
                            .as_mut()
                            .expect("a join reads its build side through its pairs");
                        sel.extend_from_slice(s.sel.as_deref().expect("the same in every morsel"));
                    }
                    None => rest.push(s),
                }
                at += 1;
                continue;
            }
            let rel = s.rel.as_ref();
            width += rel.width();
            if first {
                fields.extend(rel.fields.iter().cloned());
                cols.extend((0..rel.width()).map(|c| s.column(c, None)));
                continue;
            }
            let dst = &mut cols[width - rel.width()..width];
            for (dst, src) in dst.iter_mut().zip(rel.columns()) {
                match &s.sel {
                    Some(sel) => dst.append_gather(src, sel),
                    None => dst.append_range(src, 0, src.len()),
                }
            }
        }
    }

    /// The relation laid; `fields` are its declared fields, for a read
    /// that delivered nothing at all.
    fn finish(self, fields: &[Field]) -> ExecRel {
        match self.laid {
            Laid::Nothing => ExecRel::owned(empty_relation(fields)),
            Laid::One(rel) => rel,
            Laid::Many {
                fields,
                cols,
                rest,
                rows,
            } => {
                let gathered = Part {
                    rel: Stored::Owned(Relation::from_columns(fields, cols, rows)),
                    sel: None,
                };
                ExecRel {
                    parts: Parts::Many(std::iter::once(gathered).chain(rest).collect()),
                    rows,
                }
            }
        }
    }
}

/// Where a leaf's morsels go, by value and in order. Returning an error
/// cancels the read.
pub type MorselSink<'a> = dyn FnMut(Stored) -> Result<()> + 'a;

/// Where [`Execution::feed`] hands an operator its child's morsels.
type RelSink<'a> = dyn FnMut(ExecRel) -> Result<()> + 'a;

/// How a reader takes a leaf's rows. The plan decides it, not a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadShape {
    /// The whole relation as exactly one morsel, even when it has no rows:
    /// anything [`Execution::run_rel`] reads.
    OneMorsel,
    /// The edge's transport chunks, none when it has no rows: a streamed
    /// leaf ([`ScanResolver::streams`]).
    Chunks,
}

/// What a leaf scan reports besides the morsels it delivered.
pub struct ScanOutput {
    /// Rows delivered across all morsels.
    pub nrows: usize,
    /// Present when the scan pulled data from another engine (foreign
    /// table): the timing edge to compose into this engine's finish time.
    pub edge: Option<EdgeTiming>,
    /// Execution profile of the remote producer behind a foreign-table
    /// scan, when operator tracing is on.
    pub remote: Option<Box<ExecProfile>>,
}

/// Resolves leaf relations (base tables, foreign tables, placeholders).
/// A leaf has one read, [`ScanResolver::scan`]; a materialized leaf is its
/// one-morsel case.
pub trait ScanResolver {
    /// Whether this relation is read in chunks where an operator can take
    /// a stream. Must be side-effect free: the executor consults it
    /// *before* it runs anything, to decide whether an operator reads this
    /// leaf as a stream and in which order a join runs its children.
    fn streams(&self, _relation: &str) -> bool {
        false
    }

    /// Deliver `relation` projected to `wanted` columns (order significant)
    /// to `sink`, shaped as `read` asks. A leaf that does not stream is one
    /// morsel whatever `read` says.
    fn scan(
        &self,
        relation: &str,
        wanted: &[Field],
        read: ReadShape,
        sink: &mut MorselSink<'_>,
    ) -> Result<ScanOutput>;
}

/// Reusable per-query allocations: key tables, chain buffers, packed keys,
/// dictionaries and join pairs keep their capacity between executions, so
/// workloads that submit many queries through one engine stop re-growing
/// the same buffers from scratch.
#[derive(Default)]
pub struct Scratch {
    /// Joins' and semi joins' chain heads and keys.
    keys: KeyTables,
    /// Group-bys' and DISTINCTs' group ids and keys. A group-by folds a
    /// join's output while the join holds `keys`, so it has its own.
    groups: KeyTables,
    next: Vec<u32>,
    pairs: Pairs,
}

/// The one dispatch over key arms: binds `$k` to one side's keys and
/// `$table` to the arm's table in the [`KeyTables`] place `$t`, then
/// evaluates `$body` (which may also borrow the rest of the [`Scratch`]).
/// One [`KeyNorm`] normalises every side it plans, so all reach the same
/// table.
macro_rules! with_key_arm {
    ($keys:expr, $t:expr, |$k:ident, $table:ident| $body:expr) => {
        match $keys {
            Keys::Direct($k) => {
                let $table = &mut $t.direct;
                $body
            }
            Keys::W64($k) => {
                let $table = &mut $t.w64;
                $body
            }
            Keys::Vals($k) => {
                let $table = &mut $t.vals;
                $body
            }
        }
    };
}

/// One plan execution: collects work units and remote edges.
pub struct Execution<'a> {
    resolver: &'a dyn ScanResolver,
    /// Cheap streaming work (scans, filters, projections).
    pub scan_units: f64,
    /// Join/aggregate/sort work (scaled by the profile's OLAP factor).
    pub olap_units: f64,
    /// Timing edges contributed by remote scans.
    pub edges: Vec<EdgeTiming>,
    /// Per-operator statistics in post-order, when operator tracing is on
    /// (see [`Execution::collect_ops`]); `None` costs nothing per row.
    pub ops: Option<Vec<OpStat>>,
    /// Profiles of remote producers behind foreign-table scans, paired
    /// with the edge's wire time (operator tracing only).
    pub remotes: Vec<(ExecProfile, f64)>,
    /// Reusable hash tables and buffers (see [`Scratch`]).
    pub scratch: Scratch,
}

impl<'a> Execution<'a> {
    pub fn new(resolver: &'a dyn ScanResolver) -> Execution<'a> {
        Execution {
            resolver,
            scan_units: 0.0,
            olap_units: 0.0,
            edges: Vec::new(),
            ops: None,
            remotes: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Turn on per-operator statistics collection for this execution.
    pub fn collect_ops(&mut self) {
        self.ops = Some(Vec::new());
    }

    fn op(&mut self, stat: OpStat) {
        if let Some(ops) = &mut self.ops {
            ops.push(stat);
        }
    }

    /// Execute a plan to a materialized, owned relation: the one boundary
    /// where a relation's every column is gathered.
    pub fn run(&mut self, plan: &LogicalPlan) -> Result<Relation> {
        Ok(self.run_rel(plan)?.materialize())
    }

    /// Execute a plan to a relation read through selections: filters,
    /// sorts, limits, DISTINCTs and joins compose selections, scans and
    /// identity projections share their input, and only the columns an
    /// operator reads are gathered. Simulated work accounting does not
    /// depend on it.
    ///
    /// Each operator is its own method, so that the frame of this
    /// dispatch, which every nesting of a plan (and of a view read across
    /// engines) stacks once more, holds no operator's locals.
    pub(crate) fn run_rel(&mut self, plan: &LogicalPlan) -> Result<ExecRel> {
        match plan {
            LogicalPlan::Scan {
                relation, schema, ..
            }
            | LogicalPlan::Placeholder {
                name: relation,
                schema,
                ..
            } => self.scan(relation, schema),
            LogicalPlan::OneRow => Ok(ExecRel::owned(Relation::new(vec![], vec![vec![]]))),
            LogicalPlan::Filter { input, predicate } => self.filter(plan, input, predicate),
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => self.project(input, exprs, schema),
            LogicalPlan::Join { left, .. } | LogicalPlan::SemiJoin { left, .. } => {
                self.concat(plan, left.schema().fields.len())
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
                schema,
            } => self.aggregate(input, group_by, aggregates, schema),
            LogicalPlan::Sort { input, keys } => self.sort(input, keys),
            LogicalPlan::Limit { input, fetch } => self.limit(input, *fetch as usize),
            LogicalPlan::Distinct { input } => self.distinct(input),
            LogicalPlan::SubqueryAlias { input, .. } => self.run_rel(input),
        }
    }

    /// A leaf read whole, as its one morsel.
    fn scan(&mut self, relation: &str, schema: &PlanSchema) -> Result<ExecRel> {
        let mut one = None;
        let out = self
            .resolver
            .scan(relation, &schema.fields, ReadShape::OneMorsel, &mut |m| {
                one = Some(m);
                Ok(())
            })?;
        self.record_scan(out.nrows, out.edge, out.remote);
        Ok(match one {
            Some(m) => m.into(),
            None => ExecRel::owned(empty_relation(&schema.fields)),
        })
    }

    /// A filter keeps a selection over its input, not a copy. Over a
    /// streamed leaf it filters each chunk as it decodes, and only the rows
    /// it keeps outlive their chunk ([`Concat`]).
    fn filter(
        &mut self,
        plan: &LogicalPlan,
        input: &LogicalPlan,
        predicate: &xdb_sql::Expr,
    ) -> Result<ExecRel> {
        if self.streamed_leaf(plan).is_some() {
            return self.concat(plan, input.schema().fields.len());
        }
        let rel = self.run_rel(input)?;
        let pred = ReadExpr::compile(predicate, input.schema())?;
        let sel = pred.select(&rel)?;
        self.record_filter(rel.len() as u64, sel.len() as u64);
        Ok(if sel.len() == rel.len() {
            rel // nothing dropped — pass the input through
        } else {
            rel.select(sel)
        })
    }

    fn project(
        &mut self,
        input: &LogicalPlan,
        exprs: &[(xdb_sql::Expr, Name)],
        out: &PlanSchema,
    ) -> Result<ExecRel> {
        let rel = self.run_rel(input)?;
        let schema = input.schema();
        let compiled: Vec<ReadExpr> = exprs
            .iter()
            .map(|(e, _)| ReadExpr::compile(e, schema))
            .collect::<Result<_>>()?;
        self.scan_units += rel.len() as f64 * weights::PROJECT;
        self.op(OpStat {
            op: "project",
            rows_in: rel.len() as u64,
            rows_out: rel.len() as u64,
            ..OpStat::default()
        });
        // Identity fast-path: every output is the column in the same
        // position under the same name — hand the input through (the work
        // units above are still charged; the simulated engine would have
        // run the projection).
        let identity = compiled.len() == rel.width()
            && compiled
                .iter()
                .zip(&*out.fields)
                .enumerate()
                .all(|(i, (c, f))| {
                    matches!(c.expr, PhysExpr::Column(j) if j == i) && *rel.field(i).0 == *f.name
                });
        if identity {
            return Ok(rel);
        }
        // Only the columns the projection reads are gathered; computed
        // expressions go through the vectorized kernels.
        let cols = compiled
            .iter()
            .map(|c| c.column(&rel))
            .collect::<Result<_>>()?;
        Ok(ExecRel::owned(Relation::from_columns(
            named_columns(&out.fields),
            cols,
            rel.len(),
        )))
    }

    /// A sort reads its key columns and composes its order onto its input.
    fn sort(&mut self, input: &LogicalPlan, keys: &[(xdb_sql::Expr, bool)]) -> Result<ExecRel> {
        let schema = input.schema();
        let rel = self.run_rel(input)?;
        let compiled: Vec<(ReadExpr, bool)> = keys
            .iter()
            .map(|(e, desc)| Ok((ReadExpr::compile(e, schema)?, *desc)))
            .collect::<Result<_>>()?;
        let n = rel.len() as f64;
        self.olap_units += n * (n.max(2.0)).log2() * weights::SORT;
        self.op(OpStat {
            op: "sort",
            rows_in: rel.len() as u64,
            rows_out: rel.len() as u64,
            ..OpStat::default()
        });
        let key_cols: Vec<(Column, bool)> = compiled
            .iter()
            .map(|(c, desc)| Ok((c.column(&rel)?, *desc)))
            .collect::<Result<_>>()?;
        // Stable index sort over typed key columns reproduces the
        // row-major stable sort exactly (total_cmp per column).
        let mut idx: Vec<u32> = (0..rel.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            for (col, desc) in &key_cols {
                let ord = col.cmp_rows(a as usize, b as usize);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(rel.select(idx))
    }

    fn limit(&mut self, input: &LogicalPlan, fetch: usize) -> Result<ExecRel> {
        let rel = self.run_rel(input)?;
        self.op(OpStat {
            op: "limit",
            rows_in: rel.len() as u64,
            rows_out: rel.len().min(fetch) as u64,
            ..OpStat::default()
        });
        Ok(if rel.len() <= fetch {
            rel // no-op limit: shared stays shared
        } else {
            rel.head(fetch)
        })
    }

    /// DISTINCT reads every column, its key, and keeps each group's first
    /// row as a selection.
    fn distinct(&mut self, input: &LogicalPlan) -> Result<ExecRel> {
        let rel = self.run_rel(input)?;
        self.olap_units += rel.len() as f64 * weights::DISTINCT;
        let rows_in = rel.len() as u64;
        let cols: Vec<Column> = (0..rel.width()).map(|j| rel.column(j)).collect();
        let t = &mut self.scratch.groups;
        // A row is kept when it opens a group of the whole row's key, so
        // first-seen order is preserved (LIMIT without ORDER BY above a
        // DISTINCT observes it).
        let norm = KeyNorm::plan(&cols, &cols, rel.len(), true, t);
        let mut sel: Vec<u32> = Vec::new();
        assign_groups(&norm, &cols, rel.len(), t, true, 0, |i, g| {
            if g as usize == sel.len() {
                sel.push(i as u32);
            }
        });
        self.op(OpStat {
            op: "distinct",
            rows_in,
            rows_out: sel.len() as u64,
            ..OpStat::default()
        });
        Ok(if sel.len() == rel.len() {
            rel
        } else {
            rel.select(sel)
        })
    }

    /// What every leaf scan owes besides its rows, streamed or not: the
    /// remote producer's profile, the timing edge, scan units, the op entry.
    fn record_scan(
        &mut self,
        nrows: usize,
        edge: Option<EdgeTiming>,
        remote: Option<Box<ExecProfile>>,
    ) {
        if let Some(remote) = remote {
            let wire_ms = edge.map_or(0.0, |e| e.transfer_ms);
            self.remotes.push((*remote, wire_ms));
        }
        if let Some(edge) = edge {
            self.edges.push(edge);
        }
        self.scan_units += nrows as f64 * weights::SCAN;
        self.op(OpStat {
            op: "scan",
            rows_out: nrows as u64,
            ..OpStat::default()
        });
    }

    /// What every filter owes, over one relation or summed over a stream.
    fn record_filter(&mut self, rows_in: u64, rows_out: u64) {
        self.scan_units += rows_in as f64 * weights::FILTER;
        self.op(OpStat {
            op: "filter",
            rows_in,
            rows_out,
            ..OpStat::default()
        });
    }

    /// The one shape that streams: a leaf (scan or placeholder) the
    /// resolver streams, optionally under a filter. Returns the leaf's
    /// relation and schema and the filter's predicate. Side-effect free, so
    /// an operator can decide from it in which order to run its children
    /// before anything executes.
    fn streamed_leaf<'p>(
        &self,
        plan: &'p LogicalPlan,
    ) -> Option<(&'p str, &'p PlanSchema, Option<&'p xdb_sql::Expr>)> {
        let (leaf, pred) = match plan {
            LogicalPlan::Filter { input, predicate } => (&**input, Some(predicate)),
            _ => (plan, None),
        };
        let (relation, schema) = match leaf {
            LogicalPlan::Scan {
                relation, schema, ..
            }
            | LogicalPlan::Placeholder {
                name: relation,
                schema,
                ..
            } => (relation, schema),
            _ => return None,
        };
        self.resolver
            .streams(relation)
            .then_some((relation, schema, pred))
    }

    /// How an operator reads a child: `sink` sees the child's rows as
    /// morsels, in order, and `feed` returns how many rows it delivered.
    /// - A [`Execution::streamed_leaf`] delivers the chunks of its edge,
    ///   each with its filter's selection, and is never materialized.
    /// - A join of any kind ([`Execution::hash_join`]) delivers its output
    ///   over each probe morsel.
    /// - Anything else runs to a relation, which is the one morsel.
    ///
    /// Whatever the child owes in work units, op entries and edges is
    /// recorded exactly as [`Execution::run_rel`] would, whichever way the
    /// rows travel.
    fn feed(&mut self, plan: &LogicalPlan, sink: &mut RelSink<'_>) -> Result<u64> {
        if let Some((relation, schema, pred)) = self.streamed_leaf(plan) {
            let pred = pred.map(|p| ReadExpr::compile(p, schema)).transpose()?;
            let mut kept = 0u64;
            let mut filtered = |m: Stored| -> Result<()> {
                let m = ExecRel::from(m);
                let Some(pred) = &pred else { return sink(m) };
                let sel = pred.select(&m)?;
                kept += sel.len() as u64;
                sink(if sel.len() == m.len() {
                    m
                } else {
                    m.select(sel)
                })
            };
            let out =
                self.resolver
                    .scan(relation, &schema.fields, ReadShape::Chunks, &mut filtered)?;
            self.record_scan(out.nrows, out.edge, out.remote);
            if pred.is_none() {
                return Ok(out.nrows as u64);
            }
            self.record_filter(out.nrows as u64, kept);
            return Ok(kept);
        }
        if let Some(join) = JoinNode::of(plan) {
            return self.hash_join(&join, sink);
        }
        let rel = self.run_rel(plan)?;
        let n = rel.len() as u64;
        sink(rel)?;
        Ok(n)
    }

    /// `plan`'s morsels, as [`Execution::feed`] delivers them, laid end to
    /// end ([`Concat`]), gathering their first `gathered` columns from a
    /// second morsel on: a filtered stream's every column, a join's probe
    /// side's.
    fn concat(&mut self, plan: &LogicalPlan, gathered: usize) -> Result<ExecRel> {
        let mut out = Concat::new(gathered);
        self.feed(plan, &mut |m| {
            out.push(m);
            Ok(())
        })?;
        Ok(out.finish(&plan.schema().fields))
    }

    /// The one join, of every kind ([`JoinNode`]): hand `emit` its output
    /// over each probe (left) morsel, and return the rows emitted.
    /// - *Inner*: the morsel's pairs with the right relation, probe-major,
    ///   right rows ascending within a probe row, read through both sides'
    ///   selections ([`ExecRel::pair`]). A join without key pairs (a cross
    ///   join) packs every row to the one empty key, as a global aggregate
    ///   does, so its one chain holds every right row: left-major, right
    ///   rows ascending, the nested loop's order.
    /// - *Semi* / *anti*: the morsel's rows with (without) a surviving
    ///   match, as a selection over it. Without a residual only the first
    ///   right row of every key is chained, so a probe row has at most one
    ///   candidate: a single lookup.
    ///
    /// A residual runs on blocks of candidates: [`probe_chain`] stops
    /// between probe rows before a row would carry a block past
    /// [`RESIDUAL_BLOCK_PAIRS`] (a longer chain is a block alone), and
    /// [`Residual::keep_pairs`] keeps a block's survivors (for a semi or
    /// anti join only a probe row's first), so the candidates held at once
    /// are bounded whatever `l × r` is. A morsel whose candidates fit in one
    /// block is one pass.
    ///
    /// The hash table goes over the right relation, except for an inner
    /// join on at least one key whose probe side is one morsel (a
    /// materialized child, or a stream that ends after its first chunk,
    /// which is therefore held until the second one arrives or the edge
    /// ends) with fewer rows than the right relation: that morsel is chained
    /// itself and probed with the right relation's keys, and a stable
    /// counting sort on the morsel row restores the emission order. Which
    /// side is hashed is not an observable: work units and `OpStat` keep
    /// the plan's sides, build = right and probe = left, per kind (a hash
    /// join `(l + r + out / 2) × JOIN`, a cross join `l × r × JOIN` under
    /// the name "nested loop join", a semi or anti join `(l + r) × JOIN`).
    ///
    /// Child order is an observable (ledger records, op post-order, the
    /// sequence of float additions into the work units): a probe side that
    /// can stream runs *after* the right side; one that cannot is run
    /// *before* it. Only bare-column keys probe a stream, because only
    /// those have the same layout in every morsel ([`KeyNorm::pack`] errors
    /// on drift).
    fn hash_join(&mut self, join: &JoinNode<'_>, emit: &mut RelSink<'_>) -> Result<u64> {
        let &JoinNode {
            left,
            right,
            on,
            residual,
            kind,
            joined,
        } = join;
        let pkeys: Vec<ReadExpr> = on
            .iter()
            .map(|(l, _)| ReadExpr::compile(l, left.schema()))
            .collect::<Result<_>>()?;
        let semi_joined;
        let schema = match joined {
            Some(schema) => schema,
            None => {
                semi_joined = left.schema().join(right.schema());
                &semi_joined
            }
        };
        let residual = residual.map(|r| Residual::new(r, schema)).transpose()?;
        let left_last = self.streamed_leaf(left).is_some()
            && pkeys.iter().all(|k| matches!(k.expr, PhysExpr::Column(_)));
        let lrel = if left_last {
            None
        } else {
            Some(self.run_rel(left)?)
        };
        // The build side serves every probe morsel's output: shared.
        let rrel = self.run_rel(right)?.shared();
        let build = &rrel;
        let bcols = key_columns(on, false, right.schema(), build)?;
        let may_swap = kind == JoinKind::Inner && !on.is_empty();
        let chains = kind == JoinKind::Inner || residual.is_some();
        let block = residual.as_ref().map(|_| RESIDUAL_BLOCK_PAIRS);
        let mut scratch = std::mem::take(&mut self.scratch);
        // The normalisation needs the probe side's layouts, so it is decided,
        // and the right side's table built, when the first morsel is probed.
        let mut norm: Option<KeyNorm> = None;
        let mut out_rows = 0u64;
        // `whole`: `m` is the entire probe side, so the table may go over it.
        let mut probe = |m: ExecRel, whole: bool| -> Result<()> {
            let pcols: Vec<Column> = pkeys.iter().map(|k| k.column(&m)).collect::<Result<_>>()?;
            scratch.pairs.lsel.clear();
            scratch.pairs.rsel.clear();
            // A whole probe side smaller than the right relation gets the
            // table (`KeyNorm` plans over the table side), and the right
            // relation's keys probe it.
            let swap = may_swap && whole && m.len() < build.len();
            let mut swapped = None;
            let (norm, cols, rows) = match &mut norm {
                _ if swap => {
                    let n =
                        swapped.insert(build_table(&pcols, &bcols, m.len(), true, &mut scratch));
                    (&*n, &bcols, build.len())
                }
                Some(n) => (&*n, &pcols, m.len()),
                None => {
                    let n = build_table(&bcols, &pcols, build.len(), chains, &mut scratch);
                    (&*norm.insert(n), &pcols, m.len())
                }
            };
            norm.pack(cols, rows, &mut scratch.keys)
                .ok_or_else(key_drift)?;
            let keys = norm.keys(cols, rows, &scratch.keys.packed);
            let mut at = 0;
            while at < rows {
                let Pairs { lsel, rsel, .. } = &mut scratch.pairs;
                let from = lsel.len();
                let (psel, bsel) = if swap {
                    (&mut *rsel, &mut *lsel)
                } else {
                    (&mut *lsel, &mut *rsel)
                };
                at = with_key_arm!(&keys, scratch.keys, |p, heads| {
                    probe_chain(p, heads, &scratch.next, at, block, psel, bsel)
                });
                if let Some(res) = &residual {
                    res.keep_pairs(&m, build, lsel, rsel, from, kind != JoinKind::Inner)?;
                }
            }
            if swap {
                scratch.pairs.probe_major(m.len());
            }
            let Pairs { lsel, rsel, .. } = &scratch.pairs;
            let out = match kind {
                JoinKind::Inner => ExecRel::pair(m, build, lsel, rsel),
                JoinKind::Semi if lsel.len() == m.len() => m,
                JoinKind::Anti if lsel.is_empty() => m,
                JoinKind::Semi => m.select(lsel.clone()),
                JoinKind::Anti => {
                    let n = m.len();
                    m.select(unmatched(lsel, n))
                }
            };
            out_rows += out.len() as u64;
            emit(out)
        };
        let probed = match lrel {
            Some(l) => {
                let n = l.len() as u64;
                probe(l, true).map(|()| n)
            }
            None => {
                // The first morsel waits for the second, or for the end.
                let mut held: Option<ExecRel> = None;
                let mut morsels = 0usize;
                let fed = self.feed(left, &mut |m| {
                    morsels += 1;
                    if morsels == 1 {
                        held = Some(m);
                        return Ok(());
                    }
                    if let Some(first) = held.take() {
                        probe(first, false)?;
                    }
                    probe(m, false)
                });
                match (fed, held) {
                    (Ok(n), Some(only)) => probe(only, true).map(|()| n),
                    (fed, _) => fed,
                }
            }
        };
        self.scratch = scratch;
        let (probe_rows, build_rows) = (probed?, build.len() as u64);
        let (l, r) = (probe_rows as f64, build_rows as f64);
        let op = match kind {
            JoinKind::Inner if on.is_empty() => "nested loop join",
            JoinKind::Inner => "hash join",
            JoinKind::Semi => "semi join",
            JoinKind::Anti => "anti join",
        };
        let inputs = if op == "nested loop join" {
            l * r
        } else {
            l + r
        };
        self.olap_units += inputs * weights::JOIN;
        if op == "hash join" {
            self.olap_units += out_rows as f64 * weights::JOIN * 0.5;
        }
        self.op(OpStat {
            op,
            rows_in: probe_rows + build_rows,
            rows_out: out_rows,
            build_rows,
            probe_rows,
        });
        Ok(out_rows)
    }

    /// Grouped aggregation: [`Execution::feed`] folds the input into the
    /// one [`Grouper`] morsel by morsel, so neither a streamed leaf nor a
    /// join's output under it is materialized. The keys are planned over
    /// the first morsel, and a later one the plan does not cover sends the
    /// groups to `Value` keys, so an aggregate with more than one key takes
    /// its input as the one morsel.
    fn aggregate(
        &mut self,
        input: &LogicalPlan,
        group_by: &[(xdb_sql::Expr, Name)],
        aggregates: &[(AggCall, Name)],
        out: &PlanSchema,
    ) -> Result<ExecRel> {
        // The grouper holds the pooled group tables while it folds; a join
        // under `feed` holds the rest of the scratch meanwhile.
        let tables = std::mem::take(&mut self.scratch.groups);
        let mut grouper = Grouper::new(group_by, aggregates, input.schema(), tables)?;
        let rows_in = if group_by.len() <= 1 {
            self.feed(input, &mut |m| grouper.push(&m))?
        } else {
            let rel = self.run_rel(input)?;
            grouper.push(&rel)?;
            rel.len() as u64
        };
        self.olap_units += rows_in as f64 * weights::AGGREGATE;
        let (groups, tables) = grouper.finish();
        self.scratch.groups = tables;
        let fields = named_columns(&out.fields);
        let ngroups = groups.len();
        let mut builders: Vec<ColumnBuilder> = (0..fields.len())
            .map(|_| ColumnBuilder::with_capacity(ngroups))
            .collect();
        for g in groups {
            let mut ci = 0;
            for v in g.key {
                builders[ci].push(v);
                ci += 1;
            }
            for acc in g.accs {
                builders[ci].push(acc.finish());
                ci += 1;
            }
        }
        self.op(OpStat {
            op: "aggregate",
            rows_in,
            rows_out: ngroups as u64,
            ..OpStat::default()
        });
        Ok(ExecRel::owned(Relation::from_columns(
            fields,
            builders.into_iter().map(ColumnBuilder::finish).collect(),
            ngroups,
        )))
    }
}

/// One output group: its key values and its accumulators.
struct GroupOut {
    key: Vec<Value>,
    accs: Vec<Accumulator>,
}

/// What a join outputs per probe morsel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    /// Its pairs.
    Inner,
    /// Its rows with a surviving match.
    Semi,
    /// Its rows without one.
    Anti,
}

/// A join node, `Join` or `SemiJoin`, as the one hash join reads it.
struct JoinNode<'p> {
    left: &'p LogicalPlan,
    right: &'p LogicalPlan,
    on: &'p [(xdb_sql::Expr, xdb_sql::Expr)],
    residual: Option<&'p xdb_sql::Expr>,
    kind: JoinKind,
    /// The joined row's schema, which a residual reads: an inner join's
    /// output schema. A semi join's output is its left side, so `None`.
    joined: Option<&'p PlanSchema>,
}

impl<'p> JoinNode<'p> {
    fn of(plan: &'p LogicalPlan) -> Option<JoinNode<'p>> {
        let (left, right, on, residual, kind, joined) = match plan {
            LogicalPlan::Join {
                left,
                right,
                on,
                residual,
                schema,
            } => (left, right, on, residual, JoinKind::Inner, Some(&**schema)),
            LogicalPlan::SemiJoin {
                left,
                right,
                on,
                residual,
                negated: false,
            } => (left, right, on, residual, JoinKind::Semi, None),
            LogicalPlan::SemiJoin {
                left,
                right,
                on,
                residual,
                negated: true,
            } => (left, right, on, residual, JoinKind::Anti, None),
            _ => return None,
        };
        Some(JoinNode {
            left,
            right,
            on,
            residual: residual.as_ref(),
            kind,
            joined,
        })
    }
}

/// The rows `0..n` that `matched`, ascending, does not hold: an anti join's
/// output.
fn unmatched(matched: &[u32], n: usize) -> Vec<u32> {
    let mut matched = matched.iter().peekable();
    let mut out = Vec::with_capacity(n - matched.len());
    for i in 0..n as u32 {
        if matched.next_if_eq(&&i).is_none() {
            out.push(i);
        }
    }
    out
}

/// The relation a read that delivered nothing at all stands for: no rows,
/// and the declared fields of the plan node read.
fn empty_relation(fields: &[Field]) -> Relation {
    Relation::from_columns(
        named_columns(fields),
        fields
            .iter()
            .map(|f| Column::empty_of(f.data_type))
            .collect(),
        0,
    )
}

/// Grouped aggregation over morsels. Groups stay in first-seen order and
/// each sees its rows in arrival order, so the output does not depend on
/// where the input was cut into morsels — a materialized input is one.
/// With no key columns every row packs to the one empty key: the global
/// group.
struct Grouper<'p> {
    keys: Vec<ReadExpr<'p>>,
    aggs: Vec<(AggFunc, Option<ReadExpr<'p>>, bool)>,
    /// How rows find their group: planned over the first morsel.
    norm: Option<KeyNorm>,
    /// The pooled group tables, lent by the aggregate for its run.
    tables: KeyTables,
    groups: Vec<GroupOut>,
}

impl<'p> Grouper<'p> {
    fn new(
        group_by: &'p [(xdb_sql::Expr, Name)],
        aggregates: &'p [(AggCall, Name)],
        schema: &'p PlanSchema,
        tables: KeyTables,
    ) -> Result<Grouper<'p>> {
        let keys: Vec<ReadExpr> = group_by
            .iter()
            .map(|(e, _)| ReadExpr::compile(e, schema))
            .collect::<Result<_>>()?;
        let aggs = aggregates
            .iter()
            .map(|(a, _)| {
                let arg = a
                    .arg
                    .as_ref()
                    .map(|e| ReadExpr::compile(e, schema))
                    .transpose()?;
                Ok((a.func, arg, a.distinct))
            })
            .collect::<Result<_>>()?;
        Ok(Grouper {
            keys,
            aggs,
            norm: None,
            tables,
            groups: Vec::new(),
        })
    }

    fn new_accs(aggs: &[(AggFunc, Option<ReadExpr<'_>>, bool)]) -> Vec<Accumulator> {
        aggs.iter()
            .map(|(f, _, distinct)| Accumulator::new(*f, *distinct))
            .collect()
    }

    /// Fold one morsel into the groups, reading only its key and argument
    /// columns.
    fn push(&mut self, rel: &ExecRel) -> Result<()> {
        if rel.len() == 0 {
            return Ok(());
        }
        let n = rel.len();
        let key_cols: Vec<Column> = self
            .keys
            .iter()
            .map(|k| k.column(rel))
            .collect::<Result<_>>()?;
        let arg_cols: Vec<Option<Column>> = self
            .aggs
            .iter()
            .map(|(_, arg, _)| arg.as_ref().map(|a| a.column(rel)).transpose())
            .collect::<Result<_>>()?;
        let Grouper {
            aggs,
            norm,
            tables: t,
            groups,
            ..
        } = self;
        // The first morsel plans the keys. A later one keeps the plan while
        // it covers every row; when it does not (a layout drifts, as a
        // computed key's may per chunk, or a value lies outside a range or
        // dictionary), the groups so far are indexed by their `Value` keys:
        // group identity is value-based, so they carry over unchanged.
        let fresh = norm.is_none();
        let norm = match norm {
            None => norm.insert(KeyNorm::plan(&key_cols, &key_cols, n, true, t)),
            Some(norm) => {
                if norm.pack(&key_cols, n, t).is_none() || t.packed.contains(&NO_KEY) {
                    *norm = KeyNorm::Vals;
                    t.vals.clear();
                    let keys = groups.iter().map(|g| g.key.clone());
                    t.vals.extend(keys.zip(0..));
                }
                norm
            }
        };
        assign_groups(norm, &key_cols, n, t, fresh, groups.len() as u32, |i, g| {
            let g = g as usize;
            if g == groups.len() {
                groups.push(GroupOut {
                    key: key_cols.iter().map(|c| c.value(i)).collect(),
                    accs: Grouper::new_accs(aggs),
                });
            }
            for (acc, col) in groups[g].accs.iter_mut().zip(&arg_cols) {
                acc.update(col.as_ref().map(|c| c.value(i)));
            }
        });
        Ok(())
    }

    /// The groups in first-seen order, and the tables lent for the run. A
    /// global aggregate over empty input still yields its one group.
    fn finish(mut self) -> (Vec<GroupOut>, KeyTables) {
        if self.keys.is_empty() && self.groups.is_empty() {
            self.groups.push(GroupOut {
                key: vec![],
                accs: Grouper::new_accs(&self.aggs),
            });
        }
        (self.groups, self.tables)
    }
}

/// Give rows `0..rows`, their keys packed under `norm`, their groups in
/// row order: `visit(row, group)`, where a group id equal to the number of
/// groups so far (`ngroups` at the start) opens one. `fresh` clears the
/// tables first.
fn assign_groups(
    norm: &KeyNorm,
    cols: &[Column],
    rows: usize,
    t: &mut KeyTables,
    fresh: bool,
    mut ngroups: u32,
    mut visit: impl FnMut(usize, u32),
) {
    let keys = norm.keys(cols, rows, &t.packed);
    with_key_arm!(&keys, t, |k, table| {
        if fresh {
            table.reset(&k.keys);
        }
        for i in 0..rows {
            let g = table.group(&k.keys, i, ngroups);
            if g == ngroups {
                ngroups += 1;
            }
            visit(i, g);
        }
    })
}

/// Bits needed to represent codes `0..=max_code` (at least one, so every
/// field advances the shift cursor).
fn bits_for(max_code: u128) -> u32 {
    (128 - max_code.leading_zeros()).max(1)
}

/// Evaluate a filter predicate to a selection vector, vectorized when the
/// kernels allow and row-by-row (sparse row buffer) otherwise.
fn filter_selection(pred: &PhysExpr, rel: &Relation) -> Result<Vec<u32>> {
    if let Some(sel) = vector::filter_sel(pred, rel) {
        return Ok(sel);
    }
    let mut refs = Vec::new();
    vector::referenced_columns(pred, &mut refs);
    refs.sort_unstable();
    refs.dedup();
    let mut buf = vec![Value::Null; rel.width()];
    let mut sel = Vec::with_capacity(rel.len());
    for i in 0..rel.len() {
        for &c in &refs {
            buf[c] = rel.value(i, c);
        }
        if pred.eval_predicate(&buf)? {
            sel.push(i as u32);
        }
    }
    Ok(sel)
}

/// Evaluate an expression to a materialized column. Plain column references
/// are `Arc` pointer copies; vectorizable expressions run the kernels; the
/// rest fall back to row-at-a-time evaluation with reference semantics.
fn expr_column(e: &PhysExpr, rel: &Relation) -> Result<Column> {
    if let PhysExpr::Column(i) = e {
        return Ok(rel.column(*i).clone());
    }
    if let Some(c) = vector::eval_to_column(e, rel) {
        return Ok(c);
    }
    let mut refs = Vec::new();
    vector::referenced_columns(e, &mut refs);
    refs.sort_unstable();
    refs.dedup();
    let mut buf = vec![Value::Null; rel.width()];
    let mut bld = ColumnBuilder::with_capacity(rel.len());
    for i in 0..rel.len() {
        for &c in &refs {
            buf[c] = rel.value(i, c);
        }
        bld.push(e.eval(&buf)?);
    }
    Ok(bld.finish())
}

/// An expression an operator evaluates over its input, read through the
/// input's selections. Over a stored relation read whole it runs in place;
/// a bare column is that one column, gathered; anything else runs over a
/// narrow relation of just the columns it reads, gathered, compiled again
/// against those columns on first use.
struct ReadExpr<'p> {
    expr: PhysExpr,
    /// The expression and the schema it was compiled against.
    src: (&'p xdb_sql::Expr, &'p PlanSchema),
    narrow: OnceCell<Narrow>,
}

/// An expression compiled against the columns it reads: `cols`, ascending
/// positions in the relation it was first compiled against.
struct Narrow {
    cols: Vec<usize>,
    expr: PhysExpr,
}

impl<'p> ReadExpr<'p> {
    fn compile(e: &'p xdb_sql::Expr, schema: &'p PlanSchema) -> Result<ReadExpr<'p>> {
        Ok(ReadExpr {
            expr: compile(e, schema)?,
            src: (e, schema),
            narrow: OnceCell::new(),
        })
    }

    /// The narrow relation of `rows` rows whose column `k` is column
    /// `cols[k]` as `read` gives it, and the expression over it.
    fn narrow(
        &self,
        rows: usize,
        read: impl Fn(usize) -> (Column, DataType),
    ) -> Result<(Relation, &PhysExpr)> {
        if self.narrow.get().is_none() {
            let mut cols = Vec::new();
            vector::referenced_columns(&self.expr, &mut cols);
            cols.sort_unstable();
            cols.dedup();
            // A subset of a schema resolves every name it still holds as
            // the whole schema did.
            let (e, schema) = self.src;
            let fields = cols.iter().map(|&c| schema.fields[c].clone()).collect();
            let expr = compile(e, &PlanSchema::new(fields))?;
            let _ = self.narrow.set(Narrow { cols, expr });
        }
        let n = self.narrow.get().expect("set above");
        let (cols, fields) = n
            .cols
            .iter()
            .map(|&c| {
                let (col, ty) = read(c);
                (col, (String::new(), ty))
            })
            .unzip();
        Ok((Relation::from_columns(fields, cols, rows), &n.expr))
    }

    /// The narrow relation over `rel`'s rows.
    fn narrow_over(&self, rel: &ExecRel) -> Result<(Relation, &PhysExpr)> {
        self.narrow(rel.len(), |c| (rel.column(c), rel.field(c).1))
    }

    /// The expression's value in every row of `rel`.
    fn column(&self, rel: &ExecRel) -> Result<Column> {
        if let PhysExpr::Column(j) = self.expr {
            return Ok(rel.column(j));
        }
        if let Some(r) = rel.whole() {
            return expr_column(&self.expr, r);
        }
        let (narrow, e) = self.narrow_over(rel)?;
        expr_column(e, &narrow)
    }

    /// The rows of `rel` the expression, as a predicate, keeps.
    fn select(&self, rel: &ExecRel) -> Result<Vec<u32>> {
        if let Some(r) = rel.whole() {
            return filter_selection(&self.expr, r);
        }
        let (narrow, e) = self.narrow_over(rel)?;
        filter_selection(e, &narrow)
    }
}

/// The residual step of every join: keep the pairs whose joined row
/// passes. Only the columns the residual reads are gathered for the
/// candidate pairs, each through its side's selection composed with the
/// pairs, and the predicate runs over them as a `WHERE` does.
struct Residual<'p>(ReadExpr<'p>);

impl<'p> Residual<'p> {
    fn new(residual: &'p xdb_sql::Expr, schema: &'p PlanSchema) -> Result<Residual<'p>> {
        Ok(Residual(ReadExpr::compile(residual, schema)?))
    }

    /// Keep the candidate pairs from `from` on (row `lsel[i]` of `l` beside
    /// row `rsel[i]` of `r`) whose joined row passes, compacted in place;
    /// the pairs before `from` are a previous block's survivors. `first`
    /// keeps only the first survivor of each `l` row, which is all a semi or
    /// anti join asks of it: a block holds whole probe rows, so a row's
    /// candidates are all in one block.
    fn keep_pairs(
        &self,
        l: &ExecRel,
        r: &ExecRel,
        lsel: &mut Vec<u32>,
        rsel: &mut Vec<u32>,
        from: usize,
        first: bool,
    ) -> Result<()> {
        let lw = l.width();
        let (lblock, rblock) = (&lsel[from..], &rsel[from..]);
        let (pairs, pred) = self.0.narrow(lblock.len(), |c| match c.checked_sub(lw) {
            None => (l.column_at(c, lblock), l.field(c).1),
            Some(c) => (r.column_at(c, rblock), r.field(c).1),
        })?;
        let kept = filter_selection(pred, &pairs)?;
        // `kept` ascends, so compacting in place never overwrites a pair
        // before it moved.
        let mut to = from;
        for k in kept.iter().map(|&k| from + k as usize) {
            if first && to > from && lsel[to - 1] == lsel[k] {
                continue;
            }
            lsel[to] = lsel[k];
            rsel[to] = rsel[k];
            to += 1;
        }
        lsel.truncate(to);
        rsel.truncate(to);
        Ok(())
    }
}

/// Evaluate one side of an equi-join's `on` pairs (`left` picks the probe
/// expressions) to key columns, reading only the columns they read.
fn key_columns(
    on: &[(xdb_sql::Expr, xdb_sql::Expr)],
    left: bool,
    schema: &PlanSchema,
    rel: &ExecRel,
) -> Result<Vec<Column>> {
    on.iter()
        .map(|(l, r)| ReadExpr::compile(if left { l } else { r }, schema)?.column(rel))
        .collect()
}

/// `(min, max)` over rows `0..n` of an Int, Date or Bool column's non-NULL
/// words (`min > max` when it has none); `None` for any other layout.
fn word_range(col: &Column, n: usize) -> Option<(i64, i64)> {
    fn range<T: Copy + Default>(c: &TypedCol<T>, n: usize, word: impl Fn(T) -> i64) -> (i64, i64) {
        (0..n)
            .filter_map(|i| c.get(i))
            .fold((i64::MAX, i64::MIN), |(lo, hi), &v| {
                (lo.min(word(v)), hi.max(word(v)))
            })
    }
    Some(match col {
        Column::Int(c) => range(c, n, |v| v),
        Column::Date(c) => range(c, n, i64::from),
        Column::Bool(c) => range(c, n, i64::from),
        _ => return None,
    })
}

/// One side's keys in the arm one [`KeyNorm`] planned: packed, one `u64`
/// per row in [`KeyTables::packed`], or the key columns' `Value` tuples.
enum Keys<'a> {
    /// Packed keys of up to [`DIRECT_MAX_BITS`], which index
    /// [`DirectTable`] themselves.
    Direct(Side<Packed<'a>>),
    /// Wider packed keys, of up to 63 bits, hashed.
    W64(Side<Packed<'a>>),
    /// Key columns compared as `Value` tuples.
    Vals(Side<&'a [Column]>),
}

/// One side of a join, or a group-by's morsel: its keys, as its arm reads
/// them, and its row count.
struct Side<K> {
    keys: K,
    rows: usize,
}

/// The packed key of a row that has none. Packed keys are at most 63 bits
/// wide, so no key equals it, and OR-ing a later bit field into it leaves
/// it as it is.
const NO_KEY: u64 = u64::MAX;

/// One side's packed keys, one per row ([`NO_KEY`] for a row without
/// one), and the width of the packing: a direct table has `2^bits` slots.
#[derive(Clone, Copy)]
struct Packed<'a> {
    keys: &'a [u64],
    bits: u32,
}

impl Packed<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<u64> {
        let k = self.keys[i];
        (k != NO_KEY).then_some(k)
    }
}

/// The tables one operator's keys go to (see [`with_key_arm!`]), and the
/// buffers it packs them with, pooled in [`Scratch`].
#[derive(Default)]
struct KeyTables {
    direct: DirectTable,
    w64: FastMap<u64, u32>,
    vals: FastMap<Vec<Value>, u32>,
    /// One side's packed keys: a join's table side while it is chained,
    /// then each probe morsel's in turn; a group-by's morsel.
    packed: Vec<u64>,
    /// The last plan's Str and Float dictionaries, by field position.
    strs: Vec<FastMap<Arc<str>, u64>>,
    floats: Vec<FastMap<u64, u64>>,
}

/// One key column of a packed key: its layout, how its values are coded,
/// and where its bit field starts.
struct KeyField {
    layout: Discriminant<Column>,
    code: FieldCode,
    shift: u32,
}

/// How a key column's values become codes, over the planned side's
/// values. Where NULL is a key, it is code 0 and every value's code is one
/// more.
enum FieldCode {
    /// An Int, Date or Bool value in `min..=max`: `value - min`.
    Word { min: i64, max: i64 },
    /// A string: its entry in the field's first-appearance dictionary
    /// (`KeyTables::strs`).
    Str,
    /// A float: its bits' entry in the field's dictionary
    /// (`KeyTables::floats`), as `Value`'s equality compares floats.
    Float,
}

/// Widest packed key a [`DirectTable`] is indexed by, whatever the
/// planned side's size: at most 2^17 slots (512 KB) per table. The table
/// grows only to the `2^bits` slots an operator needs, so a narrow key
/// never pays for a wide one. Wider keys are hashed.
const DIRECT_MAX_BITS: u32 = 17;

/// How the key columns of a join, a semi join, a group-by or a DISTINCT
/// normalise: planned over one side (a join's table side, a group-by's
/// first morsel, a DISTINCT's input) and the other side's layouts, then
/// applied to every side, so all land in the same [`Keys`] arm.
enum KeyNorm {
    /// Every column packs into a bit field ([`FieldCode`]) of one `u64`,
    /// `bits` wide in all (at most 63, which decide the table). A value the
    /// plan does not cover equals no planned value, so its row has no key;
    /// nor has a row with a NULL component, unless `nulls` makes NULL a key.
    Packed {
        fields: Vec<KeyField>,
        bits: u32,
        nulls: bool,
    },
    /// Everything else (Mixed, layouts that differ between the sides,
    /// fields of 64 bits or more in total): `Value` tuples, whose equality
    /// also gives `1 = 1.0`.
    Vals,
}

impl KeyNorm {
    /// Plan the keys over rows `0..rows` of `cols`, whose other side has
    /// the layouts of `other`, and pack `cols` under the plan into
    /// `t.packed`. `nulls` makes NULL a key.
    fn plan(
        cols: &[Column],
        other: &[Column],
        rows: usize,
        nulls: bool,
        t: &mut KeyTables,
    ) -> KeyNorm {
        let (null, off) = (nulls.then_some(0), u64::from(nulls));
        t.packed.clear();
        t.packed.resize(rows, 0);
        let mut fields = Vec::with_capacity(cols.len());
        let mut bits = 0u32;
        for (j, (col, o)) in cols.iter().zip(other).enumerate() {
            let layout = discriminant(col);
            if layout != discriminant(o) {
                return KeyNorm::Vals;
            }
            // A dictionary is filled as its column packs; a word column
            // packs once its range is known.
            let (code, values) = match col {
                Column::Str(c) => {
                    let dict = fresh_dict(&mut t.strs, j);
                    for (i, k) in t.packed.iter_mut().enumerate() {
                        let code = c.get(i).map(|s| intern_str(dict, s) + off);
                        put_code(k, code.or(null), bits);
                    }
                    (FieldCode::Str, dict.len() as u128)
                }
                Column::Float(c) => {
                    let dict = fresh_dict(&mut t.floats, j);
                    pack_typed(&mut t.packed, bits, c, null, |v| {
                        let next = dict.len() as u64;
                        Some(*dict.entry(v.to_bits()).or_insert(next) + off)
                    });
                    (FieldCode::Float, dict.len() as u128)
                }
                _ => match word_range(col, rows) {
                    Some((min, max)) if min > max => (FieldCode::Word { min, max }, 0),
                    Some((min, max)) => {
                        let span = u128::from(max.wrapping_sub(min) as u64);
                        (FieldCode::Word { min, max }, span + 1)
                    }
                    None => return KeyNorm::Vals,
                },
            };
            let field = KeyField {
                layout,
                code,
                shift: bits,
            };
            if let FieldCode::Word { .. } = field.code {
                pack_field(&field, j, nulls, col, t);
            }
            fields.push(field);
            bits += bits_for((values + u128::from(nulls)).saturating_sub(1));
            if bits >= 64 {
                return KeyNorm::Vals;
            }
        }
        KeyNorm::Packed {
            fields,
            bits,
            nulls,
        }
    }

    /// Pack rows `0..rows` of another side's (or a later morsel's) key
    /// columns into `t.packed` under the plan (nothing under `Vals`). `None`
    /// when a column has not the layout its field was planned for.
    fn pack(&self, cols: &[Column], rows: usize, t: &mut KeyTables) -> Option<()> {
        t.packed.clear();
        let KeyNorm::Packed { fields, nulls, .. } = self else {
            return Some(());
        };
        t.packed.resize(rows, 0);
        for (j, (f, col)) in fields.iter().zip(cols).enumerate() {
            if discriminant(col) != f.layout {
                return None;
            }
            pack_field(f, j, *nulls, col, t);
        }
        Some(())
    }

    /// One side's keys in the planned arm, packed ones read from `packed`.
    fn keys<'a>(&self, cols: &'a [Column], rows: usize, packed: &'a [u64]) -> Keys<'a> {
        let &KeyNorm::Packed { bits, .. } = self else {
            return Keys::Vals(Side { keys: cols, rows });
        };
        let side = Side {
            keys: Packed { keys: packed, bits },
            rows,
        };
        match bits <= DIRECT_MAX_BITS {
            true => Keys::Direct(side),
            false => Keys::W64(side),
        }
    }
}

/// A streamed probe's key layout changed between morsels.
fn key_drift() -> EngineError {
    EngineError::Execution("streamed probe key layout drifted between morsels".into())
}

/// Dictionary `j` of a pooled list, emptied.
fn fresh_dict<K>(dicts: &mut Vec<FastMap<K, u64>>, j: usize) -> &mut FastMap<K, u64> {
    if dicts.len() <= j {
        dicts.resize_with(j + 1, FastMap::default);
    }
    dicts[j].clear();
    &mut dicts[j]
}

/// A string's entry in `dict`, added in first-appearance order. Only a
/// new string's `Arc` is cloned.
fn intern_str(dict: &mut FastMap<Arc<str>, u64>, s: &Arc<str>) -> u64 {
    if let Some(&code) = dict.get(&**s) {
        return code;
    }
    let code = dict.len() as u64;
    dict.insert(Arc::clone(s), code);
    code
}

/// OR column `j`'s codes under its planned field `f` into `t.packed`; a
/// value the field does not cover, or a NULL where NULL has no key, makes
/// the row [`NO_KEY`]. The column has the field's layout.
fn pack_field(f: &KeyField, j: usize, nulls: bool, col: &Column, t: &mut KeyTables) {
    let (null, off, out) = (nulls.then_some(0), u64::from(nulls), &mut t.packed);
    match (&f.code, col) {
        (&FieldCode::Word { min, max }, _) => {
            let word = move |v: i64| {
                let code = (v.wrapping_sub(min) as u64).wrapping_add(off);
                (min..=max).contains(&v).then_some(code)
            };
            match col {
                Column::Int(c) => pack_typed(out, f.shift, c, null, word),
                Column::Date(c) => pack_typed(out, f.shift, c, null, |v| word(v.into())),
                Column::Bool(c) => pack_typed(out, f.shift, c, null, |v| word(v.into())),
                _ => unreachable!("a word field packs only a word column"),
            }
        }
        (FieldCode::Str, Column::Str(c)) => {
            for (i, k) in out.iter_mut().enumerate() {
                let code = match c.get(i) {
                    None => null,
                    Some(s) => t.strs[j].get(&**s).map(|&code| code + off),
                };
                put_code(k, code, f.shift);
            }
        }
        (FieldCode::Float, Column::Float(c)) => pack_typed(out, f.shift, c, null, |v| {
            t.floats[j].get(&v.to_bits()).map(|&code| code + off)
        }),
        _ => unreachable!("a field packs only the layout it was planned for"),
    }
}

/// OR a typed column's codes, `code(value)` or a NULL row's `null`, into
/// `out` ([`put_code`]).
#[inline]
fn pack_typed<T: Copy>(
    out: &mut [u64],
    shift: u32,
    col: &TypedCol<T>,
    null: Option<u64>,
    mut code: impl FnMut(T) -> Option<u64>,
) {
    // A plain loop over the two slices: the packing of a large probe side
    // stays one tight loop, where a zip over a mapped iterator measured
    // 5-10 % slower per query.
    if col.nulls.none_set() {
        for (k, &v) in out.iter_mut().zip(&col.data) {
            put_code(k, code(v), shift);
        }
    } else {
        for (i, (k, &v)) in out.iter_mut().zip(&col.data).enumerate() {
            put_code(k, if col.nulls.get(i) { null } else { code(v) }, shift);
        }
    }
}

/// OR a row's code into its bit field at `shift`; a row without one
/// becomes [`NO_KEY`].
#[inline]
fn put_code(k: &mut u64, code: Option<u64>, shift: u32) {
    *k = match code {
        Some(code) => *k | code << shift,
        None => NO_KEY,
    };
}

/// Row `i`'s join key as a `Value` tuple; any NULL component kills the
/// whole key.
fn value_key(cols: &[Column], i: usize) -> Option<Vec<Value>> {
    let mut k = Vec::with_capacity(cols.len());
    for c in cols {
        let v = c.value(i);
        if v.is_null() {
            return None;
        }
        k.push(v);
    }
    Some(k)
}

/// A table read through one side's keys `K`: a join's chain heads (the
/// first build row of every key, the rest of its chain in [`Scratch`]'s
/// `next`), or a group-by's group ids. One impl per [`Keys`] arm, so the
/// build and every probe of an arm, or every morsel of a group-by, read one
/// table.
trait KeyTable<K> {
    /// Forget what the table held and make room for `keys`' codes.
    fn reset(&mut self, keys: &K);
    /// The first build row whose key equals row `i`'s of `keys`.
    fn head(&self, keys: &K, i: usize) -> Option<u32>;
    /// Make build row `i` the head of its key's chain and return the row it
    /// displaced: `NO_NEXT` when there was none, or when row `i` has no key.
    fn push_front(&mut self, build: &K, i: usize) -> u32;
    /// Row `i`'s group: the id its key holds, or `next`, which it then
    /// holds. Every row has a key here (NULL is one).
    fn group(&mut self, keys: &K, i: usize, next: u32) -> u32;
}

/// A table indexed by the packed key itself: `slots[k]` is key `k`'s chain
/// head or group, or `NO_NEXT`. The table grows to the `2^bits` slots a
/// plan needs and keeps them; on reset only the slots written since
/// (`touched`) are cleared, never the whole table.
#[derive(Default)]
struct DirectTable {
    slots: Vec<u32>,
    touched: Vec<u32>,
}

impl KeyTable<Packed<'_>> for DirectTable {
    fn reset(&mut self, keys: &Packed<'_>) {
        for &k in &self.touched {
            self.slots[k as usize] = NO_NEXT;
        }
        self.touched.clear();
        let need = 1 << keys.bits;
        if self.slots.len() < need {
            self.slots.resize(need, NO_NEXT);
        }
    }

    #[inline]
    fn head(&self, keys: &Packed<'_>, i: usize) -> Option<u32> {
        let h = self.slots[keys.get(i)? as usize];
        (h != NO_NEXT).then_some(h)
    }

    fn push_front(&mut self, build: &Packed<'_>, i: usize) -> u32 {
        let Some(k) = build.get(i) else {
            return NO_NEXT;
        };
        let displaced = std::mem::replace(&mut self.slots[k as usize], i as u32);
        if displaced == NO_NEXT {
            self.touched.push(k as u32);
        }
        displaced
    }

    #[inline]
    fn group(&mut self, keys: &Packed<'_>, i: usize, next: u32) -> u32 {
        let k = keys.keys[i];
        let slot = &mut self.slots[k as usize];
        if *slot == NO_NEXT {
            *slot = next;
            self.touched.push(k as u32);
        }
        *slot
    }
}

impl KeyTable<Packed<'_>> for FastMap<u64, u32> {
    fn reset(&mut self, _: &Packed<'_>) {
        self.clear();
    }

    #[inline]
    fn head(&self, keys: &Packed<'_>, i: usize) -> Option<u32> {
        self.get(&keys.get(i)?).copied()
    }

    fn push_front(&mut self, build: &Packed<'_>, i: usize) -> u32 {
        map_push_front(self, build.get(i), i)
    }

    #[inline]
    fn group(&mut self, keys: &Packed<'_>, i: usize, next: u32) -> u32 {
        *self.entry(keys.keys[i]).or_insert(next)
    }
}

impl KeyTable<&[Column]> for FastMap<Vec<Value>, u32> {
    fn reset(&mut self, _: &&[Column]) {
        self.clear();
    }

    fn head(&self, cols: &&[Column], i: usize) -> Option<u32> {
        self.get(&value_key(cols, i)?).copied()
    }

    fn push_front(&mut self, build: &&[Column], i: usize) -> u32 {
        map_push_front(self, value_key(build, i), i)
    }

    fn group(&mut self, cols: &&[Column], i: usize, next: u32) -> u32 {
        *self
            .entry(cols.iter().map(|c| c.value(i)).collect())
            .or_insert(next)
    }
}

/// [`KeyTable::push_front`] for the hashed arms.
fn map_push_front<K: Hash + Eq>(heads: &mut FastMap<K, u32>, key: Option<K>, i: usize) -> u32 {
    let Some(k) = key else { return NO_NEXT };
    match heads.entry(k) {
        Entry::Occupied(mut e) => std::mem::replace(e.get_mut(), i as u32),
        Entry::Vacant(e) => {
            e.insert(i as u32);
            NO_NEXT
        }
    }
}

/// The one chain walk: probe rows `from..` of a side's keys against a
/// chained build table, appending (probe, build) row pairs probe-major with
/// build rows ascending within a probe row — the exact emission order of
/// the row-major hash join. With a `block`, a probe row is taken only
/// whole and only while the pairs appended stay within `block`, except by
/// a block still empty, which takes a longer chain alone. Returns the first
/// probe row not probed.
fn probe_chain<K, H: KeyTable<K>>(
    probe: &Side<K>,
    heads: &H,
    next: &[u32],
    from: usize,
    block: Option<usize>,
    psel: &mut Vec<u32>,
    bsel: &mut Vec<u32>,
) -> usize {
    let held = psel.len();
    for i in from..probe.rows {
        let Some(mut j) = heads.head(&probe.keys, i) else {
            continue;
        };
        if let Some(block) = block {
            let taken = psel.len() - held;
            if taken > 0 {
                // Count the chain up to one past the room left.
                let room = block.saturating_sub(taken);
                let (mut k, mut len) = (j, 1);
                while len <= room && next[k as usize] != NO_NEXT {
                    k = next[k as usize];
                    len += 1;
                }
                if len > room {
                    return i;
                }
            }
        }
        loop {
            psel.push(i as u32);
            bsel.push(j);
            j = next[j as usize];
            if j == NO_NEXT {
                break;
            }
        }
    }
    probe.rows
}

/// A probe morsel's matching pairs, row `lsel[i]` of the morsel beside row
/// `rsel[i]` of the right relation, and the spare buffers
/// [`Pairs::probe_major`] sorts them into.
#[derive(Default)]
struct Pairs {
    lsel: Vec<u32>,
    rsel: Vec<u32>,
    at: Vec<usize>,
    lspare: Vec<u32>,
    rspare: Vec<u32>,
}

impl Pairs {
    /// Reorder pairs that came out of a table over the probe morsel (right
    /// rows ascending, morsel rows ascending within each) into the one
    /// emission order: probe-major, right rows ascending within a morsel
    /// row. A stable counting sort on the morsel row into the spare
    /// buffers, which then swap places with the pairs; O(pairs + morsel
    /// rows).
    fn probe_major(&mut self, probe_rows: usize) {
        let at = &mut self.at;
        at.clear();
        at.resize(probe_rows + 1, 0);
        for &p in &self.lsel {
            at[p as usize + 1] += 1;
        }
        for i in 1..at.len() {
            at[i] += at[i - 1];
        }
        self.lspare.resize(self.lsel.len(), 0);
        self.rspare.resize(self.rsel.len(), 0);
        for (&p, &b) in self.lsel.iter().zip(&self.rsel) {
            let to = &mut at[p as usize];
            (self.lspare[*to], self.rspare[*to]) = (p, b);
            *to += 1;
        }
        std::mem::swap(&mut self.lsel, &mut self.lspare);
        std::mem::swap(&mut self.rsel, &mut self.rspare);
    }
}

/// The build half of every join: decide how the keys normalise from both
/// sides' columns, then chain the build side's keys into `scratch`. Without
/// `chains` only the first build row of every key is its chain: a semi or
/// anti join without a residual asks only whether one exists.
fn build_table(
    bcols: &[Column],
    pcols: &[Column],
    build_rows: usize,
    chains: bool,
    scratch: &mut Scratch,
) -> KeyNorm {
    let norm = KeyNorm::plan(bcols, pcols, build_rows, false, &mut scratch.keys);
    let keys = norm.keys(bcols, build_rows, &scratch.keys.packed);
    with_key_arm!(&keys, scratch.keys, |b, heads| {
        build_chain(b, heads, &mut scratch.next)
    });
    if !chains {
        scratch.next.fill(NO_NEXT);
    }
    norm
}

/// Chain the build keys: the table's head of key `k` is the first build row
/// with key `k`, `next[i]` the one after row `i`. Rows are inserted in
/// reverse so every chain iterates in ascending build-row order — the match
/// order of the row-major executor.
fn build_chain<K, H: KeyTable<K>>(build: &Side<K>, heads: &mut H, next: &mut Vec<u32>) {
    heads.reset(&build.keys);
    next.clear();
    next.resize(build.rows, NO_NEXT);
    for i in (0..build.rows).rev() {
        next[i] = heads.push_front(&build.keys, i);
    }
}

/// Streaming aggregate accumulator.
enum Accumulator {
    Sum {
        int: i128,
        float: f64,
        any_float: bool,
        seen: bool,
        distinct: Option<FastSet<Value>>,
    },
    Count {
        n: i64,
        /// `None` arg = count(*).
        distinct: Option<FastSet<Value>>,
    },
    Avg {
        sum: f64,
        n: i64,
        distinct: Option<FastSet<Value>>,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Accumulator {
    fn new(func: AggFunc, distinct: bool) -> Accumulator {
        let set = || distinct.then(FastSet::default);
        match func {
            AggFunc::Sum => Accumulator::Sum {
                int: 0,
                float: 0.0,
                any_float: false,
                seen: false,
                distinct: set(),
            },
            AggFunc::Count => Accumulator::Count {
                n: 0,
                distinct: set(),
            },
            AggFunc::Avg => Accumulator::Avg {
                sum: 0.0,
                n: 0,
                distinct: set(),
            },
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
        }
    }

    fn update(&mut self, v: Option<Value>) {
        // `None` means count(*) — counts every row.
        match self {
            Accumulator::Count { n, distinct } => match v {
                None => *n += 1,
                Some(v) if !v.is_null() => {
                    if let Some(set) = distinct {
                        if !set.insert(v) {
                            return;
                        }
                    }
                    *n += 1;
                }
                _ => {}
            },
            Accumulator::Sum {
                int,
                float,
                any_float,
                seen,
                distinct,
            } => {
                let Some(v) = v else { return };
                if v.is_null() {
                    return;
                }
                if let Some(set) = distinct {
                    if !set.insert(v.clone()) {
                        return;
                    }
                }
                *seen = true;
                match v {
                    Value::Int(i) => *int += i as i128,
                    Value::Float(f) => {
                        *float += f;
                        *any_float = true;
                    }
                    _ => {}
                }
            }
            Accumulator::Avg { sum, n, distinct } => {
                let Some(v) = v else { return };
                let f = match v {
                    Value::Int(i) => i as f64,
                    Value::Float(f) => f,
                    _ => return,
                };
                if let Some(set) = distinct {
                    if !set.insert(v) {
                        return;
                    }
                }
                *sum += f;
                *n += 1;
            }
            Accumulator::Min(cur) => {
                let Some(v) = v else { return };
                if v.is_null() {
                    return;
                }
                let replace = match cur {
                    Some(c) => v.total_cmp(c) == std::cmp::Ordering::Less,
                    None => true,
                };
                if replace {
                    *cur = Some(v);
                }
            }
            Accumulator::Max(cur) => {
                let Some(v) = v else { return };
                if v.is_null() {
                    return;
                }
                let replace = match cur {
                    Some(c) => v.total_cmp(c) == std::cmp::Ordering::Greater,
                    None => true,
                };
                if replace {
                    *cur = Some(v);
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            Accumulator::Sum {
                int,
                float,
                any_float,
                seen,
                ..
            } => {
                if !seen {
                    Value::Null
                } else if any_float {
                    Value::Float(float + int as f64)
                } else if let Ok(i) = i64::try_from(int) {
                    Value::Int(i)
                } else {
                    Value::Float(int as f64)
                }
            }
            Accumulator::Count { n, .. } => Value::Int(n),
            Accumulator::Avg { sum, n, .. } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Convenience resolver backed by a map of named relations (tests, and the
/// mediator baselines' "localized tables" mode). Relations are `Arc`-shared
/// so repeated scans never copy the stored rows.
pub struct MapResolver {
    pub relations: FastMap<String, Arc<Relation>>,
}

impl MapResolver {
    pub fn new() -> MapResolver {
        MapResolver {
            relations: FastMap::default(),
        }
    }

    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) {
        self.relations
            .insert(name.into().to_ascii_lowercase(), Arc::new(rel));
    }
}

impl Default for MapResolver {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanResolver for MapResolver {
    fn scan(
        &self,
        relation: &str,
        wanted: &[Field],
        _read: ReadShape,
        sink: &mut MorselSink<'_>,
    ) -> Result<ScanOutput> {
        let rel = self
            .relations
            .get(&relation.to_ascii_lowercase())
            .ok_or_else(|| EngineError::Catalog(format!("unknown relation {relation:?}")))?;
        sink(project_columns(Stored::Shared(Arc::clone(rel)), wanted)?)?;
        Ok(ScanOutput {
            nrows: rel.len(),
            edge: None,
            remote: None,
        })
    }
}

/// Project a morsel to the requested columns, by name. An identity
/// projection hands the morsel through, shared or owned, without touching
/// its schema or a row; a subset shares the column `Arc`s.
pub fn project_columns(rel: Stored, wanted: &[Field]) -> Result<Stored> {
    let r = rel.as_ref();
    let idx = wanted
        .iter()
        .map(|f| {
            r.column_index(&f.name)
                .ok_or_else(|| EngineError::Catalog(format!("unknown column {:?}", f.name)))
        })
        .collect::<Result<Vec<usize>>>()?;
    if idx.len() == r.width() && idx.iter().enumerate().all(|(i, &j)| i == j) {
        return Ok(rel);
    }
    Ok(Stored::Owned(Relation::from_columns(
        named_columns(wanted),
        idx.iter().map(|&j| r.column(j).clone()).collect(),
        r.len(),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use xdb_sql::bind::{bind_select, intern_fields, ResolvedRelation, SchemaProvider};
    use xdb_sql::parser::parse_select;

    struct Fixture {
        resolver: MapResolver,
        schemas: HashMap<String, Vec<(String, DataType)>>,
    }

    impl SchemaProvider for Fixture {
        fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
            self.schemas
                .get(&name.to_ascii_lowercase())
                .map(|fields| ResolvedRelation::Base {
                    fields: intern_fields(fields),
                })
        }
    }

    fn fixture() -> Fixture {
        let mut resolver = MapResolver::new();
        let mut schemas = HashMap::new();
        let emp_fields = vec![
            ("id".to_string(), DataType::Int),
            ("name".to_string(), DataType::Str),
            ("dept".to_string(), DataType::Str),
            ("salary".to_string(), DataType::Float),
        ];
        resolver.insert(
            "emp",
            Relation::new(
                emp_fields.clone(),
                vec![
                    vec![
                        Value::Int(1),
                        Value::str("ann"),
                        Value::str("eng"),
                        Value::Float(100.0),
                    ],
                    vec![
                        Value::Int(2),
                        Value::str("bob"),
                        Value::str("eng"),
                        Value::Float(80.0),
                    ],
                    vec![
                        Value::Int(3),
                        Value::str("cat"),
                        Value::str("ops"),
                        Value::Float(90.0),
                    ],
                    vec![
                        Value::Int(4),
                        Value::str("dan"),
                        Value::str("ops"),
                        Value::Null,
                    ],
                ],
            ),
        );
        schemas.insert("emp".to_string(), emp_fields);
        let dept_fields = vec![
            ("dname".to_string(), DataType::Str),
            ("budget".to_string(), DataType::Int),
        ];
        resolver.insert(
            "dept",
            Relation::new(
                dept_fields.clone(),
                vec![
                    vec![Value::str("eng"), Value::Int(1000)],
                    vec![Value::str("ops"), Value::Int(500)],
                    vec![Value::str("hr"), Value::Int(100)],
                ],
            ),
        );
        schemas.insert("dept".to_string(), dept_fields);
        Fixture { resolver, schemas }
    }

    fn run(sql: &str) -> Relation {
        let f = fixture();
        let plan = bind_select(&parse_select(sql).unwrap(), &f).unwrap();
        let mut exec = Execution::new(&f.resolver);
        exec.run(&plan).unwrap()
    }

    #[test]
    fn filter_project() {
        let r = run("SELECT name FROM emp WHERE salary > 85");
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, 0), Value::str("ann"));
        assert_eq!(r.value(1, 0), Value::str("cat"));
    }

    #[test]
    fn hash_join() {
        let r = run(
            "SELECT e.name, d.budget FROM emp e, dept d WHERE e.dept = d.dname AND d.budget > 600",
        );
        assert_eq!(r.len(), 2); // only eng members
    }

    #[test]
    fn cross_join_count() {
        let r = run("SELECT count(*) AS n FROM emp, dept");
        assert_eq!(r.value(0, 0), Value::Int(12));
    }

    #[test]
    fn group_by_aggregates() {
        let r = run(
            "SELECT dept, count(*) AS n, sum(salary) AS total, avg(salary) AS mean, \
                    min(salary) AS lo, max(salary) AS hi \
             FROM emp GROUP BY dept ORDER BY dept",
        );
        assert_eq!(r.len(), 2);
        // eng: 2 rows, sum 180, avg 90.
        assert_eq!(r.value(0, 0), Value::str("eng"));
        assert_eq!(r.value(0, 1), Value::Int(2));
        assert_eq!(r.value(0, 2), Value::Float(180.0));
        assert_eq!(r.value(0, 3), Value::Float(90.0));
        // ops: salary NULL ignored by sum/avg/min/max but counted by *.
        assert_eq!(r.value(1, 1), Value::Int(2));
        assert_eq!(r.value(1, 2), Value::Float(90.0));
        assert_eq!(r.value(1, 4), Value::Float(90.0));
    }

    #[test]
    fn global_aggregate_empty_input() {
        let r = run("SELECT count(*) AS n, sum(salary) AS s FROM emp WHERE salary > 1e9");
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, 0), Value::Int(0));
        assert_eq!(r.value(0, 1), Value::Null);
    }

    #[test]
    fn count_distinct() {
        let r = run("SELECT count(DISTINCT dept) AS n FROM emp");
        assert_eq!(r.value(0, 0), Value::Int(2));
    }

    /// The u128-packed multi-key arm must produce bit-identical output to
    /// a first-seen-order reference grouping over `Vec<Value>` keys —
    /// NULLs in every key column included.
    #[test]
    fn multikey_packed_groups_match_generic_reference() {
        let n = 6000;
        let mut rows = Vec::with_capacity(n);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = state;
            let k1 = if v.is_multiple_of(11) {
                Value::Null
            } else {
                Value::Int((v % 17) as i64 - 8)
            };
            let k2 = if v.is_multiple_of(13) {
                Value::Null
            } else {
                Value::str(format!("s{}", v % 7))
            };
            let k3 = if v.is_multiple_of(19) {
                Value::Null
            } else {
                Value::Bool(v.is_multiple_of(2))
            };
            let k4 = if v.is_multiple_of(23) {
                Value::Null
            } else {
                Value::Date((v % 29) as i32 - 14)
            };
            let x = Value::Float((v % 1000) as f64 / 7.0);
            rows.push(vec![k1, k2, k3, k4, x]);
        }
        let fields: Vec<(String, DataType)> = vec![
            ("k1".into(), DataType::Int),
            ("k2".into(), DataType::Str),
            ("k3".into(), DataType::Bool),
            ("k4".into(), DataType::Date),
            ("x".into(), DataType::Float),
        ];
        let mut resolver = MapResolver::new();
        resolver.insert("t", Relation::new(fields.clone(), rows.clone()));
        struct Provider(Vec<(String, DataType)>);
        impl SchemaProvider for Provider {
            fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
                (name == "t").then(|| ResolvedRelation::Base {
                    fields: intern_fields(&self.0),
                })
            }
        }
        let provider = Provider(fields);
        let sql = "SELECT k1, k2, k3, k4, count(*) AS n, sum(x) AS s \
                   FROM t GROUP BY k1, k2, k3, k4";
        let plan = bind_select(&parse_select(sql).unwrap(), &provider).unwrap();
        let r1 = Execution::new(&resolver).run(&plan).unwrap();
        // First-seen-order reference over Vec<Value> keys.
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut counts: Vec<i64> = Vec::new();
        let mut sums: Vec<Option<f64>> = Vec::new();
        for row in &rows {
            let key = row[..4].to_vec();
            let gi = *index.entry(key.clone()).or_insert_with(|| {
                keys.push(key);
                counts.push(0);
                sums.push(None);
                keys.len() - 1
            });
            counts[gi] += 1;
            if let Value::Float(f) = row[4] {
                sums[gi] = Some(sums[gi].unwrap_or(0.0) + f);
            }
        }
        assert_eq!(r1.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            for (c, kv) in key.iter().enumerate() {
                assert_eq!(r1.value(i, c), kv.clone(), "key row {i} col {c}");
            }
            assert_eq!(r1.value(i, 4), Value::Int(counts[i]));
            assert_eq!(
                r1.value(i, 5),
                sums[i].map_or(Value::Null, Value::Float),
                "sum row {i}"
            );
        }
    }

    #[test]
    fn order_and_limit() {
        let r = run("SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 2");
        // NULLs sort last in our total order; DESC reverses → NULL first.
        // SQL engines differ here; ours places NULL first on DESC.
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(1, 0), Value::str("ann"));
    }

    #[test]
    fn distinct_rows() {
        let r = run("SELECT DISTINCT dept FROM emp");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn having_filter() {
        let r = run("SELECT dept, count(*) AS n FROM emp GROUP BY dept HAVING count(*) > 1");
        assert_eq!(r.len(), 2);
        let r =
            run("SELECT dept, sum(salary) AS s FROM emp GROUP BY dept HAVING sum(salary) > 100");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut f = fixture();
        f.resolver.insert(
            "nullkeys",
            Relation::new(
                vec![("k".to_string(), DataType::Str)],
                vec![vec![Value::Null], vec![Value::str("eng")]],
            ),
        );
        f.schemas.insert(
            "nullkeys".to_string(),
            vec![("k".to_string(), DataType::Str)],
        );
        let plan = bind_select(
            &parse_select("SELECT count(*) AS n FROM nullkeys, dept WHERE k = dname").unwrap(),
            &f,
        )
        .unwrap();
        let mut exec = Execution::new(&f.resolver);
        let r = exec.run(&plan).unwrap();
        assert_eq!(r.value(0, 0), Value::Int(1));
    }

    #[test]
    fn work_units_accumulate() {
        let f = fixture();
        let plan = bind_select(
            &parse_select("SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname").unwrap(),
            &f,
        )
        .unwrap();
        let mut exec = Execution::new(&f.resolver);
        exec.run(&plan).unwrap();
        assert!(exec.scan_units > 0.0);
        assert!(exec.olap_units > 0.0);
    }

    #[test]
    fn case_in_projection() {
        let r = run(
            "SELECT name, case when salary >= 90 then 'high' when salary is null then 'unknown' else 'low' end AS band \
             FROM emp ORDER BY name",
        );
        assert_eq!(r.value(0, 1), Value::str("high"));
        assert_eq!(r.value(1, 1), Value::str("low"));
        assert_eq!(r.value(3, 1), Value::str("unknown"));
    }

    #[test]
    fn expression_over_aggregates_executes() {
        let r = run("SELECT sum(salary) / count(salary) AS mean FROM emp");
        assert_eq!(r.value(0, 0), Value::Float(90.0));
    }

    #[test]
    fn project_columns_identity_and_subset() {
        let f = fixture();
        let rel = f.resolver.relations.get("dept").unwrap();
        let shared = || Stored::Shared(Arc::clone(rel));
        let sub = project_columns(shared(), &[Field::bare("budget", DataType::Int)]).unwrap();
        assert_eq!(sub.as_ref().width(), 1);
        assert_eq!(sub.as_ref().value(0, 0), Value::Int(1000));
        // An identity projection hands the morsel through as it came.
        let all: Vec<Field> = rel.fields.iter().map(|(n, t)| Field::bare(n, *t)).collect();
        match project_columns(shared(), &all).unwrap() {
            Stored::Shared(arc) => assert!(Arc::ptr_eq(&arc, rel)),
            Stored::Owned(_) => panic!("identity projection copied a shared morsel"),
        }
        let owned = Stored::Owned(rel.as_ref().clone());
        let idt = project_columns(owned, &all).unwrap();
        assert!(matches!(&idt, Stored::Owned(r) if r == rel.as_ref()));
    }

    #[test]
    fn identity_scans_share_storage() {
        // A full-width scan (and the identity projection above it) must
        // hand out the stored Arc, not a row-by-row copy.
        let f = fixture();
        let stored = Arc::clone(f.resolver.relations.get("dept").unwrap());
        let plan =
            bind_select(&parse_select("SELECT dname, budget FROM dept").unwrap(), &f).unwrap();
        let mut exec = Execution::new(&f.resolver);
        let out = exec.run_rel(&plan).unwrap();
        match &out.parts {
            Parts::One(Part {
                rel: Stored::Shared(arc),
                sel: None,
            }) => assert!(Arc::ptr_eq(arc, &stored)),
            _ => panic!("identity scan should stay shared"),
        }
        // Materializing still-shared data copies; results are equal.
        assert_eq!(out.materialize(), *stored);
    }

    /// The scratch allocations survive across executions (capacity reuse);
    /// results stay untouched.
    #[test]
    fn scratch_reuse_across_queries() {
        let f = fixture();
        let plan = bind_select(
            &parse_select("SELECT e.name FROM emp e, dept d WHERE e.dept = d.dname").unwrap(),
            &f,
        )
        .unwrap();
        let mut exec = Execution::new(&f.resolver);
        let first = exec.run(&plan).unwrap();
        let second = exec.run(&plan).unwrap();
        assert_eq!(first, second);
    }

    /// The hash table goes over the smaller input: `build_chain` sizes
    /// `next` to the side it hashed, here the 10-row left child and not the
    /// 4 096-row right one. The statistic keeps the plan's sides.
    #[test]
    fn hash_table_goes_over_the_smaller_input() {
        let mut resolver = MapResolver::new();
        let mut scan = |name: &str, rows: i64| {
            let fields = vec![("k".to_string(), DataType::Int)];
            let data = (0..rows).map(|i| vec![Value::Int(i * 3 % 64)]).collect();
            resolver.insert(name, Relation::new(fields.clone(), data));
            LogicalPlan::scan(name, name, intern_fields(&fields).iter().cloned())
        };
        let (small, big) = (scan("small", 10), scan("big", 4096));
        let on = vec![(
            xdb_sql::Expr::qcol("small", "k"),
            xdb_sql::Expr::qcol("big", "k"),
        )];
        let plan = small.join_on(big, on, None);
        let mut exec = Execution::new(&resolver);
        exec.collect_ops();
        let out = exec.run(&plan).unwrap();
        assert_eq!(out.len(), 10 * 64);
        assert_eq!(exec.scratch.next.len(), 10);
        let ops = exec.ops.take().unwrap();
        let join = ops.iter().find(|o| o.op == "hash join").unwrap();
        assert_eq!((join.probe_rows, join.build_rows), (10, 4096));
    }

    /// The word arm a key goes to, by the packed width alone: the direct
    /// table up to `DIRECT_MAX_BITS` (17) bits however few build rows
    /// there are, the hashed `W64` arm up to 63 bits, and `Vals` from 64
    /// bits on, where a packed key could equal `NO_KEY` (the sides the
    /// `props_join_keys` size-rule test runs).
    #[test]
    fn word_keys_choose_their_table_by_the_size_rule() {
        // The arm and the packed width of Int keys over `rows` build rows:
        // row 1 holds each column's maximum, every other row its minimum.
        let arm = |ranges: &[(i64, i64)], rows: usize| {
            let cols: Vec<Column> = ranges
                .iter()
                .map(|&(lo, hi)| {
                    Column::from_values((0..rows).map(|i| Value::Int(if i == 1 { hi } else { lo })))
                })
                .collect();
            let mut t = KeyTables::default();
            let norm = KeyNorm::plan(&cols, &cols, rows, false, &mut t);
            match norm.keys(&cols, rows, &t.packed) {
                Keys::Direct(side) => ("Direct", side.keys.bits),
                Keys::W64(side) => ("W64", side.keys.bits),
                Keys::Vals(_) => ("Vals", 0),
            }
        };
        const HALF: i64 = 1 << 31;
        for (ranges, rows, want) in [
            (&[(0, 4095)][..], 2, ("Direct", 12)),
            (&[(0, 65_535)], 2, ("Direct", 16)),
            (&[(0, 131_071)], 2, ("Direct", 17)),
            (&[(-500, 130_571)], 200, ("Direct", 17)),
            (&[(0, 131_072)], 200, ("W64", 18)),
            (&[(0, 7), (0, 16_383)], 200, ("Direct", 17)),
            (&[(0, 7), (0, 16_384)], 200, ("W64", 18)),
            (&[(0, i64::MAX)], 2, ("W64", 63)),
            (&[(-1, i64::MAX)], 2, ("Vals", 0)),
            (&[(i64::MIN, i64::MAX)], 2, ("Vals", 0)),
            (&[(0, HALF - 1), (0, HALF)], 2, ("W64", 63)),
            (&[(0, HALF), (0, HALF)], 2, ("Vals", 0)),
        ] {
            assert_eq!(arm(ranges, rows), want, "{ranges:?} over {rows} rows");
        }
    }

    /// Packing marks a row without a key, whichever column decides it: a
    /// NULL component, and a value below or above its field's build range,
    /// which must not spill into the next field.
    #[test]
    fn packing_marks_rows_without_a_key() {
        let ints = |vals: &[Option<i64>]| {
            Column::from_values(vals.iter().map(|v| v.map_or(Value::Null, Value::Int)))
        };
        let build = [ints(&[Some(10), Some(11)]), ints(&[Some(-2), Some(1)])];
        let mut t = KeyTables::default();
        let norm = KeyNorm::plan(&build, &build, 2, false, &mut t);
        let KeyNorm::Packed { bits, .. } = &norm else {
            panic!("Int keys pack");
        };
        assert_eq!(*bits, 3);
        assert_eq!(t.packed, [0, 0b111]);
        let probe = [
            ints(&[
                Some(10),
                Some(11),
                None,
                Some(9),
                Some(12),
                Some(11),
                Some(10),
            ]),
            ints(&[Some(-2), Some(1), Some(0), Some(0), Some(0), None, Some(2)]),
        ];
        norm.pack(&probe, 7, &mut t).unwrap();
        assert_eq!(t.packed, [0, 0b111, NO_KEY, NO_KEY, NO_KEY, NO_KEY, NO_KEY]);
        // A column of another layout than the field was planned for.
        let dates = Column::from_values([Value::Date(10), Value::Date(11)]);
        assert!(norm.pack(&[dates, probe[1].clone()], 2, &mut t).is_none());
    }

    /// Keys keep `Value`'s equality in every operator: floats compare by
    /// their bits (−0.0 is not 0.0, a NaN equals a NaN with its bits and no
    /// other), NULL groups with NULL and joins with nothing, and `1 = 1.0`
    /// holds between an Int and a Float side, which take `Vals`.
    #[test]
    fn float_and_null_keys_keep_value_equality() {
        use Value::{Float, Int, Null};
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        let floats = [
            Float(0.0),
            Float(-0.0),
            Float(nan),
            Float(nan),
            Float(other_nan),
            Null,
            Null,
            Float(1.0),
        ];
        let mut resolver = MapResolver::new();
        let mut scan = |name: &str, ty: DataType, keys: &[Value]| {
            let fields = vec![("k".to_string(), ty), ("id".to_string(), DataType::Int)];
            let rows = (keys.iter().enumerate())
                .map(|(i, k)| vec![k.clone(), Int(i as i64)])
                .collect();
            resolver.insert(name, Relation::new(fields.clone(), rows));
            LogicalPlan::scan(name, name, intern_fields(&fields).iter().cloned())
        };
        let (a, b) = (
            scan("a", DataType::Float, &floats),
            scan("b", DataType::Float, &floats),
        );
        let ints = scan("i", DataType::Int, &[Int(1), Int(2), Null]);
        let on =
            |l: &str, r: &str| vec![(xdb_sql::Expr::qcol(l, "k"), xdb_sql::Expr::qcol(r, "k"))];
        let ids = |plan: &LogicalPlan, cols: &[usize]| -> Vec<Vec<Value>> {
            let out = Execution::new(&resolver).run(plan).unwrap();
            (0..out.len())
                .map(|i| cols.iter().map(|&c| out.value(i, c)).collect())
                .collect()
        };
        let pairs = |v: &[(i64, i64)]| -> Vec<Vec<Value>> {
            v.iter().map(|&(l, r)| vec![Int(l), Int(r)]).collect()
        };
        // Join: each float meets its own bits; the NULLs meet nothing.
        let join = a.clone().join_on(b.clone(), on("a", "b"), None);
        let matched = [
            (0, 0),
            (1, 1),
            (2, 2),
            (2, 3),
            (3, 2),
            (3, 3),
            (4, 4),
            (7, 7),
        ];
        assert_eq!(ids(&join, &[1, 3]), pairs(&matched));
        // Semi and anti join: the same rule.
        let semi = |negated| LogicalPlan::SemiJoin {
            left: Box::new(a.clone()),
            right: Box::new(b.clone()),
            on: on("a", "b"),
            residual: None,
            negated,
        };
        let ints_of = |v: &[i64]| v.iter().map(|&i| vec![Int(i)]).collect::<Vec<_>>();
        assert_eq!(ids(&semi(false), &[1]), ints_of(&[0, 1, 2, 3, 4, 7]));
        assert_eq!(ids(&semi(true), &[1]), ints_of(&[5, 6]));
        // Group-by and DISTINCT: the two NaNs with one bit pattern are one
        // group, the NULLs another, in first-seen order.
        let count = AggCall {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        };
        let grouped = a.clone().aggregate(
            vec![(xdb_sql::Expr::qcol("a", "k"), "k".into())],
            vec![(count, "n".into())],
        );
        let groups = [0.0, -0.0, nan, other_nan]
            .map(Float)
            .into_iter()
            .chain([Null, Float(1.0)]);
        let want: Vec<Vec<Value>> = groups
            .zip([1, 1, 2, 1, 2, 1])
            .map(|(k, n)| vec![k, Int(n)])
            .collect();
        assert_eq!(ids(&grouped, &[0, 1]), want);
        let keys = a
            .clone()
            .project(vec![(xdb_sql::Expr::qcol("a", "k"), "k".into())]);
        let distinct = LogicalPlan::Distinct {
            input: Box::new(keys),
        };
        let firsts: Vec<Vec<Value>> = want.iter().map(|g| vec![g[0].clone()]).collect();
        assert_eq!(ids(&distinct, &[0]), firsts);
        // An Int side against a Float side takes `Vals`: 1 = 1.0.
        let mixed = a.clone().join_on(ints, on("a", "i"), None);
        assert_eq!(ids(&mixed, &[1, 3]), pairs(&[(7, 0)]));
        // The arms the two joins took.
        let col = |rel: &str| resolver.relations[rel].column(0).clone();
        let (fk, ik) = ([col("a")], [col("i")]);
        let mut t = KeyTables::default();
        let packed = KeyNorm::plan(&fk, &fk, floats.len(), false, &mut t);
        assert!(matches!(packed, KeyNorm::Packed { bits: 3, .. }));
        assert!(matches!(
            KeyNorm::plan(&ik, &fk, 3, false, &mut t),
            KeyNorm::Vals
        ));
    }

    /// A direct table keeps the slots it grew and clears only the ones
    /// the last build wrote: a narrower join after a wide one reads no
    /// stale head.
    #[test]
    fn direct_table_clears_only_touched_slots() {
        let col = |vals: &[i64]| Column::from_values(vals.iter().map(|&v| Value::Int(v)));
        let mut scratch = Scratch::default();
        let wide = col(&[0, 4000, 4000, 17]);
        build_table(
            std::slice::from_ref(&wide),
            std::slice::from_ref(&wide),
            4,
            true,
            &mut scratch,
        );
        let direct = &scratch.keys.direct;
        assert_eq!(direct.slots.len(), 4096);
        assert_eq!(direct.touched, [17, 4000, 0]);
        assert_eq!(scratch.next, [NO_NEXT, 2, NO_NEXT, NO_NEXT]);
        let narrow = col(&[3, 3]);
        let norm = build_table(
            std::slice::from_ref(&narrow),
            std::slice::from_ref(&narrow),
            2,
            true,
            &mut scratch,
        );
        let direct = &scratch.keys.direct;
        assert_eq!(direct.slots.len(), 4096);
        assert_eq!(direct.touched, [0]);
        let live = direct.slots.iter().filter(|&&h| h != NO_NEXT).count();
        assert_eq!(live, 1);
        let (mut psel, mut bsel) = (Vec::new(), Vec::new());
        let probe = [col(&[3, 4, 0])];
        norm.pack(&probe, 3, &mut scratch.keys).unwrap();
        let keys = norm.keys(&probe, 3, &scratch.keys.packed);
        let at = with_key_arm!(&keys, scratch.keys, |p, heads| {
            probe_chain(p, heads, &scratch.next, 0, None, &mut psel, &mut bsel)
        });
        assert_eq!((psel, bsel, at), (vec![0, 0], vec![0, 1], 3));
    }

    /// A block stops between probe rows, never inside a row's chain, before
    /// a row would carry it past `block` pairs; a block still empty takes a
    /// longer chain alone. Without `chains` a key's chain is its first build
    /// row alone.
    #[test]
    fn blocks_end_between_probe_rows_and_chains_can_be_truncated() {
        let col = |vals: &[i64]| Column::from_values(vals.iter().map(|&v| Value::Int(v)));
        let build = [col(&[5, 5, 5, 6])];
        let probe = [col(&[5, 6, 6, 5, 7])];
        let mut scratch = Scratch::default();
        let mut blocks = |chains: bool, block: Option<usize>| {
            let norm = build_table(&build, &probe, 4, chains, &mut scratch);
            norm.pack(&probe, 5, &mut scratch.keys).unwrap();
            let keys = norm.keys(&probe, 5, &scratch.keys.packed);
            let (mut at, mut out) = (0, Vec::new());
            while at < 5 {
                let (mut psel, mut bsel) = (Vec::new(), Vec::new());
                at = with_key_arm!(&keys, scratch.keys, |p, heads| {
                    probe_chain(p, heads, &scratch.next, at, block, &mut psel, &mut bsel)
                });
                out.push((psel, bsel));
            }
            out
        };
        assert_eq!(
            blocks(true, Some(2)),
            [
                (vec![0, 0, 0], vec![0, 1, 2]),
                (vec![1, 2], vec![3, 3]),
                (vec![3, 3, 3], vec![0, 1, 2]),
            ]
        );
        assert_eq!(
            blocks(true, Some(4)),
            [
                (vec![0, 0, 0, 1], vec![0, 1, 2, 3]),
                (vec![2, 3, 3, 3], vec![3, 0, 1, 2]),
            ]
        );
        assert_eq!(blocks(false, None), [(vec![0, 1, 2, 3], vec![0, 3, 3, 0])]);
    }
}
