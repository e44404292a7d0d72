//! Differential test for late materialisation, over generated queries.
//!
//! Random compositions of filter, hash join (with and without a residual),
//! cross join, semi and anti join (with and without a residual, with and
//! without a key pair), aggregate (one key, which folds
//! morsel by morsel, and several), projection, sort, limit and DISTINCT
//! over the TPC-H tables at sf 0.001 — some foreign keys NULL, one table
//! empty, filters that keep nothing — are run two ways:
//! - by the executor, which composes row selections and gathers only the
//!   columns an operator reads; half the tables are read as streams, in
//!   chunks of 1, 7 or 64 rows;
//! - by a gather-everything reference: every operator run alone over its
//!   inputs materialized, its own output materialized. A filter, a join of
//!   every kind (inner, cross, semi, anti) and a limit are evaluated row by
//!   row there, sharing nothing with the executor but the expression
//!   evaluator. Every other operator runs
//!   through the executor alone, so for those only the composition across
//!   operators is checked: a defect in one operator's handling of an input
//!   it reads whole would show in both arms.
//!
//! Both must return the same rows in the same order (or the same error).
//! A metamorphic arm (Ternary Logic Partitioning, Rigger & Su, OOPSLA 2020)
//! checks that `Q` is the multiset union of `Q WHERE p`, `Q WHERE NOT p`
//! and `Q WHERE p IS NULL`, for a `p` over `Q`'s output. Tier-1 runs
//! [`CASES`] fixed seeds, each one composition, and the partitions of the
//! first [`TLP_CASES`]: about 33 s for both, one after the other, in a
//! debug build on a 2-vCPU host.

use proptest::prelude::TestRng;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xdb_engine::exec::{
    project_columns, Execution, MorselSink, ReadShape, ScanOutput, ScanResolver, Stored,
};
use xdb_engine::expr::{compile, PhysExpr};
use xdb_engine::{Relation, Result};
use xdb_sql::algebra::{AggCall, AggFunc, Field, LogicalPlan};
use xdb_sql::ast::{BinaryOp, Expr, UnaryOp};
use xdb_sql::bind::intern_fields;
use xdb_sql::value::{DataType, Value};
use xdb_tpch::{TpchGen, TpchTable};

/// Compositions checked by tier-1 against the reference, one per seed.
const CASES: u64 = 240;

/// Of those, the ones whose three logic partitions are checked too.
const TLP_CASES: u64 = 120;

/// A column of a table: `(table, column)`.
type Col = (&'static str, &'static str);

/// The foreign keys a join or semi join follows. `nation_none` is
/// `nation` with no rows.
const EDGES: [(Col, Col); 11] = [
    (("nation", "n_regionkey"), ("region", "r_regionkey")),
    (("customer", "c_nationkey"), ("nation", "n_nationkey")),
    (("supplier", "s_nationkey"), ("nation", "n_nationkey")),
    (("orders", "o_custkey"), ("customer", "c_custkey")),
    (("lineitem", "l_orderkey"), ("orders", "o_orderkey")),
    (("lineitem", "l_partkey"), ("part", "p_partkey")),
    (("lineitem", "l_suppkey"), ("supplier", "s_suppkey")),
    (("partsupp", "ps_partkey"), ("part", "p_partkey")),
    (("partsupp", "ps_suppkey"), ("supplier", "s_suppkey")),
    (("customer", "c_nationkey"), ("nation_none", "n_nationkey")),
    (("supplier", "s_nationkey"), ("nation_none", "n_nationkey")),
];

/// Foreign keys made NULL in every `n`-th row: `(table, column, n)`.
const NULL_KEYS: [(&str, &str, usize); 4] = [
    ("customer", "c_nationkey", 7),
    ("orders", "o_custkey", 11),
    ("lineitem", "l_suppkey", 13),
    ("partsupp", "ps_suppkey", 17),
];

type Tables = HashMap<String, Arc<Relation>>;

fn tables() -> Tables {
    let gen = TpchGen::new(0.001);
    let mut out: Tables = TpchTable::ALL
        .iter()
        .map(|&t| {
            let mut rel = gen.table(t);
            for (table, col, n) in NULL_KEYS {
                if table == t.name() {
                    let c = position(&rel, col);
                    let rows = rel.rows().enumerate().map(|(i, mut row)| {
                        if i % n == 0 {
                            row[c] = Value::Null;
                        }
                        row
                    });
                    rel = Relation::new(rel.fields.clone(), rows.collect());
                }
            }
            (t.name().to_string(), Arc::new(rel))
        })
        .collect();
    let none = Relation::new(out["nation"].fields.clone(), Vec::new());
    out.insert("nation_none".into(), Arc::new(none));
    out
}

fn position(rel: &Relation, col: &str) -> usize {
    rel.fields.iter().position(|(n, _)| n == col).expect(col)
}

// ---------------------------------------------------------------- arms

/// Base tables, some read as streams in `chunk`-row morsels, and the
/// materialized inputs of the reference's one operator, read as stored.
struct Resolver<'a> {
    tables: &'a Tables,
    streamed: HashSet<String>,
    chunk: usize,
    inputs: HashMap<String, Arc<Relation>>,
}

impl ScanResolver for Resolver<'_> {
    fn streams(&self, relation: &str) -> bool {
        self.streamed.contains(relation)
    }

    fn scan(
        &self,
        relation: &str,
        wanted: &[Field],
        read: ReadShape,
        sink: &mut MorselSink<'_>,
    ) -> Result<ScanOutput> {
        let nrows = if let Some(input) = self.inputs.get(relation) {
            sink(Stored::Shared(Arc::clone(input)))?;
            input.len()
        } else {
            let rel = &self.tables[relation];
            if read == ReadShape::Chunks && self.streams(relation) {
                for m in chunks(relation, rel, self.chunk) {
                    sink(project_columns(Stored::Shared(m), wanted)?)?;
                }
            } else {
                sink(project_columns(Stored::Shared(Arc::clone(rel)), wanted)?)?;
            }
            rel.len()
        };
        Ok(ScanOutput {
            nrows,
            edge: None,
            remote: None,
        })
    }
}

/// Each table's morsels, by table and chunk size.
type Chunks = HashMap<(String, usize), Vec<Arc<Relation>>>;

thread_local! {
    /// Each table cut into chunks once, not per scan.
    static CHUNKS: RefCell<Chunks> = RefCell::default();
}

/// `rel` (table `relation`) in morsels of `chunk` rows.
fn chunks(relation: &str, rel: &Relation, chunk: usize) -> Vec<Arc<Relation>> {
    let cut = || {
        let morsel = |lo: usize| {
            let rows: Vec<u32> = (lo..rel.len().min(lo + chunk)).map(|i| i as u32).collect();
            let cols = rel.columns().iter().map(|c| c.gather(&rows)).collect();
            Arc::new(Relation::from_columns(rel.fields.clone(), cols, rows.len()))
        };
        (0..rel.len()).step_by(chunk).map(morsel).collect()
    };
    CHUNKS.with(|c| {
        let mut c = c.borrow_mut();
        c.entry((relation.to_string(), chunk))
            .or_insert_with(cut)
            .clone()
    })
}

/// The executor's arm: the whole plan in one execution.
fn late(
    plan: &LogicalPlan,
    tables: &Tables,
    streamed: &HashSet<String>,
    chunk: usize,
) -> Result<Relation> {
    let resolver = Resolver {
        tables,
        streamed: streamed.clone(),
        chunk,
        inputs: HashMap::new(),
    };
    Execution::new(&resolver).run(plan)
}

/// The gather-everything arm: each operator runs alone, over its inputs
/// materialized, and its output is materialized. A filter, a join of any
/// kind and a limit are evaluated row by row ([`row_wise`]); every other
/// operator, a scan included, by the executor.
fn reference(plan: &LogicalPlan, tables: &Tables) -> Result<Relation> {
    let mut node = plan.clone();
    let mut inputs = HashMap::new();
    let mut rels = Vec::new();
    for child in children_mut(&mut node) {
        let name = format!("input{}", inputs.len());
        let rel = Arc::new(reference(child, tables)?);
        rels.push(Arc::clone(&rel));
        inputs.insert(name.clone(), rel);
        *child = LogicalPlan::Placeholder {
            name,
            alias: "input".into(),
            schema: node_schema(child),
        };
    }
    if let Some(rel) = row_wise(&node, &rels)? {
        return Ok(rel);
    }
    let resolver = Resolver {
        tables,
        streamed: HashSet::new(),
        chunk: 1,
        inputs,
    };
    Execution::new(&resolver).run(&node)
}

/// A filter, a join of any kind or a limit over its inputs `rels`, its
/// rows chosen a row at a time: the rows of `rels[0]` the predicate keeps;
/// every pair of a row of `rels[0]` and one of `rels[1]`, left-major, whose
/// join keys are equal, none NULL, and whose residual holds (every pair
/// when there are no keys); the rows of `rels[0]` with such a pair (semi)
/// or without one (anti); the first rows. Join keys are compared by
/// `Value` equality, which is SQL's on the integer keys generated here.
/// The chosen rows are gathered from the inputs' columns. `None` for any
/// other operator.
fn row_wise(node: &LogicalPlan, rels: &[Arc<Relation>]) -> Result<Option<Relation>> {
    let (lsel, rsel): (Vec<u32>, Option<Vec<u32>>) = match node {
        LogicalPlan::Filter { input, predicate } => {
            let pred = compile(predicate, input.schema())?;
            let mut sel = Vec::new();
            for (i, row) in rels[0].rows().enumerate() {
                if pred.eval_predicate(&row)? {
                    sel.push(i as u32);
                }
            }
            (sel, None)
        }
        LogicalPlan::Limit { fetch, .. } => {
            let n = rels[0].len().min(*fetch as usize);
            ((0..n as u32).collect(), None)
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            residual,
            schema,
        } => {
            let (lsel, rsel) = matches(left, right, on, residual.as_ref(), schema, rels)?;
            (lsel, Some(rsel))
        }
        LogicalPlan::SemiJoin {
            left,
            right,
            on,
            residual,
            negated,
        } => {
            let schema = left.schema().join(right.schema());
            let (matched, _) = matches(left, right, on, residual.as_ref(), &schema, rels)?;
            let matched: HashSet<u32> = matched.into_iter().collect();
            let n = rels[0].len() as u32;
            let kept = (0..n).filter(|i| matched.contains(i) != *negated);
            (kept.collect(), None)
        }
        _ => return Ok(None),
    };
    let mut fields = rels[0].fields.clone();
    let mut cols: Vec<_> = rels[0].columns().iter().map(|c| c.gather(&lsel)).collect();
    if let Some(rsel) = rsel {
        fields.extend(rels[1].fields.iter().cloned());
        cols.extend(rels[1].columns().iter().map(|c| c.gather(&rsel)));
    }
    Ok(Some(Relation::from_columns(fields, cols, lsel.len())))
}

/// The pairs of a row of `rels[0]` and one of `rels[1]`, left-major, whose
/// `on` keys are equal, none NULL, and whose residual, evaluated over the
/// joined row by [`PhysExpr::eval_predicate`], is TRUE; `schema` is the
/// joined row's.
fn matches(
    left: &LogicalPlan,
    right: &LogicalPlan,
    on: &[(Expr, Expr)],
    residual: Option<&Expr>,
    schema: &xdb_sql::algebra::PlanSchema,
    rels: &[Arc<Relation>],
) -> Result<(Vec<u32>, Vec<u32>)> {
    let residual = residual.map(|c| compile(c, schema)).transpose()?;
    let keys = |side: &LogicalPlan, left: bool| -> Result<Vec<PhysExpr>> {
        let keys = on.iter().map(|(l, r)| if left { l } else { r });
        keys.map(|e| compile(e, side.schema())).collect()
    };
    let (lkeys, rkeys) = (keys(left, true)?, keys(right, false)?);
    // A row's key values, `None` when one is NULL.
    let key = |keys: &[PhysExpr], row: &[Value]| -> Result<Option<Vec<Value>>> {
        let key = keys
            .iter()
            .map(|k| k.eval(row))
            .collect::<Result<Vec<_>>>()?;
        Ok((!key.contains(&Value::Null)).then_some(key))
    };
    let right_rows: Vec<Vec<Value>> = rels[1].rows().collect();
    let mut by_key: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
    for (i, r) in right_rows.iter().enumerate() {
        if let Some(k) = key(&rkeys, r)? {
            by_key.entry(k).or_default().push(i as u32);
        }
    }
    let every: Vec<u32> = (0..right_rows.len() as u32).collect();
    let (mut lsel, mut rsel) = (Vec::new(), Vec::new());
    let mut row = Vec::new();
    for (li, l) in rels[0].rows().enumerate() {
        let candidates = match key(&lkeys, &l)? {
            _ if on.is_empty() => &every[..],
            Some(k) => by_key.get(&k).map_or(&[][..], |c| &c[..]),
            None => &[],
        };
        for &ri in candidates {
            let passes = match &residual {
                Some(c) => {
                    row.clear();
                    row.extend(l.iter().chain(&right_rows[ri as usize]).cloned());
                    c.eval_predicate(&row)?
                }
                None => true,
            };
            if passes {
                lsel.push(li as u32);
                rsel.push(ri);
            }
        }
    }
    Ok((lsel, rsel))
}

fn children_mut(plan: &mut LogicalPlan) -> Vec<&mut LogicalPlan> {
    match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::Placeholder { .. } | LogicalPlan::OneRow => {
            vec![]
        }
        LogicalPlan::Join { left, right, .. } | LogicalPlan::SemiJoin { left, right, .. } => {
            vec![left, right]
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::SubqueryAlias { input, .. } => vec![input],
    }
}

/// The schema a node was built with, from the node that defines it.
fn node_schema(plan: &LogicalPlan) -> xdb_sql::algebra::NodeSchema {
    match plan {
        LogicalPlan::Scan { schema, .. }
        | LogicalPlan::Placeholder { schema, .. }
        | LogicalPlan::Project { schema, .. }
        | LogicalPlan::Join { schema, .. }
        | LogicalPlan::Aggregate { schema, .. }
        | LogicalPlan::SubqueryAlias { schema, .. } => schema.clone(),
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::SemiJoin { left: input, .. } => node_schema(input),
        LogicalPlan::OneRow => unreachable!("not generated"),
    }
}

// ----------------------------------------------------------- generator

struct Gen<'a> {
    rng: TestRng,
    tables: &'a Tables,
}

fn column(f: &Field) -> Expr {
    Expr::Column {
        qualifier: f.qualifier.clone(),
        name: f.name.clone(),
    }
}

impl Gen<'_> {
    fn pick<'t, T>(&mut self, of: &'t [T]) -> &'t T {
        &of[self.rng.below(of.len() as u64) as usize]
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.rng.below(n) == 0
    }

    /// A value of base column `table.col`, from a random row; now and then
    /// one past every value, so that a test keeps all or nothing.
    fn sample(&mut self, table: &str, col: &str) -> Value {
        let rel = &self.tables[table];
        if rel.is_empty() {
            return Value::Int(0);
        }
        let v = rel.value(
            self.rng.below(rel.len() as u64) as usize,
            position(rel, col),
        );
        match v {
            Value::Int(i) if self.one_in(8) => Value::Int(i + 1_000_000),
            v => v,
        }
    }

    /// A predicate over the base columns among `fields`.
    fn predicate(&mut self, fields: &[Field]) -> Expr {
        let base: Vec<&Field> = fields
            .iter()
            .filter(|f| {
                f.qualifier
                    .as_deref()
                    .is_some_and(|q| self.tables.contains_key(q))
            })
            .collect();
        let f = (*self.pick(&base)).clone();
        let test = match self.rng.below(10) {
            0 => Expr::IsNull {
                expr: Box::new(column(&f)),
                negated: self.rng.bool(),
            },
            1 if f.data_type == DataType::Str => Expr::Like {
                expr: Box::new(column(&f)),
                pattern: "%1%".into(),
                negated: self.rng.bool(),
            },
            _ => {
                let ops = [
                    BinaryOp::Lt,
                    BinaryOp::LtEq,
                    BinaryOp::Gt,
                    BinaryOp::GtEq,
                    BinaryOp::Eq,
                    BinaryOp::NotEq,
                ];
                let op = *self.pick(&ops);
                let v = self.sample(f.qualifier.as_deref().expect("qualified"), &f.name);
                Expr::binary(op, column(&f), Expr::lit(v))
            }
        };
        match self.rng.below(6) {
            0 => Expr::and(test, self.predicate(fields)),
            1 => Expr::binary(BinaryOp::Or, test, self.predicate(fields)),
            2 => Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(test),
            },
            _ => test,
        }
    }

    fn maybe_filter(&mut self, plan: LogicalPlan, one_in: u64) -> LogicalPlan {
        if !self.one_in(one_in) {
            return plan;
        }
        let p = self.predicate(&plan.schema().fields);
        plan.filter(p)
    }

    fn scan(&mut self, table: &str) -> LogicalPlan {
        let fields = intern_fields(&self.tables[table].fields);
        let scan = LogicalPlan::scan(table, table, fields.iter().cloned());
        self.maybe_filter(scan, 2)
    }

    /// A foreign key from a table in `used` to one outside it.
    fn edge(&mut self, used: &[&str]) -> Option<(Col, Col)> {
        let out: Vec<_> = EDGES
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .filter(|(a, b)| used.contains(&a.0) && !used.contains(&b.0))
            .collect();
        (!out.is_empty()).then(|| *self.pick(&out))
    }

    fn plan(&mut self) -> LogicalPlan {
        let starts = [
            "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
        ];
        let mut used = vec![*self.pick(&starts)];
        let mut plan = self.scan(used[0]);
        for _ in 0..self.rng.below(4) {
            let Some((old, new)) = self.edge(&used) else {
                break;
            };
            used.push(new.0);
            let right = self.scan(new.0);
            let on = (Expr::qcol(old.0, old.1), Expr::qcol(new.0, new.1));
            let mut fields = plan.schema().fields.to_vec();
            fields.extend(right.schema().fields.iter().cloned());
            let residual = self.one_in(4).then(|| self.predicate(&fields));
            plan = if self.rng.bool() {
                plan.join_on(right, vec![on], residual)
            } else {
                right.join_on(plan, vec![(on.1, on.0)], residual)
            };
            plan = self.maybe_filter(plan, 4);
        }
        if let Some((old, new)) = self.one_in(3).then(|| self.edge(&used)).flatten() {
            let right = self.scan(new.0);
            let residual = self.one_in(2).then(|| self.residual(&plan, &right));
            plan = LogicalPlan::SemiJoin {
                left: Box::new(plan),
                right: Box::new(right),
                on: vec![(Expr::qcol(old.0, old.1), Expr::qcol(new.0, new.1))],
                residual,
                negated: self.rng.bool(),
            };
        }
        let small: Vec<&str> = ["region", "nation", "supplier", "nation_none"]
            .into_iter()
            .filter(|t| !used.contains(t))
            .collect();
        if !small.is_empty() && self.one_in(5) {
            // A semi or anti join without a key pair: its residual alone
            // decides, over every row of a small table.
            let table = *self.pick(&small);
            used.push(table);
            let right = self.scan(table);
            let residual = Some(self.residual(&plan, &right));
            plan = LogicalPlan::SemiJoin {
                left: Box::new(plan),
                right: Box::new(right),
                on: vec![],
                residual,
                negated: self.rng.bool(),
            };
        }
        if self.one_in(8) && !used.contains(&"region") {
            // A cross join against the five regions.
            let right = self.scan("region");
            let mut fields = plan.schema().fields.to_vec();
            fields.extend(right.schema().fields.iter().cloned());
            let residual = self.rng.bool().then(|| self.predicate(&fields));
            plan = plan.join_on(right, vec![], residual);
        }
        plan = match self.rng.below(3) {
            0 => self.aggregate(plan),
            1 => self.project(plan),
            _ => plan,
        };
        self.top(plan)
    }

    /// A residual for a join of `left` and `right`: a predicate over both
    /// sides' base columns, or a comparison of an Int column of each, now
    /// and then under AND or OR with such a predicate.
    fn residual(&mut self, left: &LogicalPlan, right: &LogicalPlan) -> Expr {
        let mut fields = left.schema().fields.to_vec();
        fields.extend(right.schema().fields.iter().cloned());
        if self.rng.bool() {
            return self.predicate(&fields);
        }
        let ints = |plan: &LogicalPlan| -> Vec<Field> {
            let fields = plan.schema().fields.iter();
            fields
                .filter(|f| f.data_type == DataType::Int)
                .cloned()
                .collect()
        };
        let (l, r) = (ints(left), ints(right));
        let ops = [BinaryOp::Lt, BinaryOp::GtEq, BinaryOp::Eq, BinaryOp::NotEq];
        let op = *self.pick(&ops);
        let test = Expr::binary(op, column(self.pick(&l)), column(self.pick(&r)));
        match self.rng.below(4) {
            0 => Expr::and(test, self.predicate(&fields)),
            1 => Expr::binary(BinaryOp::Or, test, self.predicate(&fields)),
            _ => test,
        }
    }

    fn aggregate(&mut self, plan: LogicalPlan) -> LogicalPlan {
        let fields = plan.schema().fields.to_vec();
        let group_by = (0..self.rng.below(3))
            .map(|i| (column(self.pick(&fields)), format!("g{i}").into()))
            .collect();
        let numeric: Vec<Field> = fields
            .iter()
            .filter(|f| matches!(f.data_type, DataType::Int | DataType::Float))
            .cloned()
            .collect();
        let aggregates = (0..1 + self.rng.below(3))
            .map(|i| {
                let any = column(self.pick(&fields));
                let call = match self.rng.below(6) {
                    0 => AggCall {
                        func: AggFunc::Count,
                        arg: None,
                        distinct: false,
                    },
                    1 => AggCall {
                        func: AggFunc::Count,
                        arg: Some(any),
                        distinct: true,
                    },
                    2 => AggCall {
                        func: AggFunc::Min,
                        arg: Some(any),
                        distinct: false,
                    },
                    3 => AggCall {
                        func: AggFunc::Max,
                        arg: Some(any),
                        distinct: false,
                    },
                    k => AggCall {
                        func: if k == 4 { AggFunc::Sum } else { AggFunc::Avg },
                        arg: Some(column(self.pick(&numeric))),
                        distinct: false,
                    },
                };
                (call, format!("a{i}").into())
            })
            .collect();
        let agg = plan.aggregate(group_by, aggregates);
        if self.one_in(3) {
            // HAVING: a test of the first aggregate.
            let a0 = Expr::col("a0");
            let p = Expr::binary(
                BinaryOp::Gt,
                a0,
                Expr::lit(Value::Int(self.rng.below(4) as i64)),
            );
            return agg.filter(p);
        }
        agg
    }

    fn project(&mut self, plan: LogicalPlan) -> LogicalPlan {
        let fields = plan.schema().fields.to_vec();
        let exprs = (0..1 + self.rng.below(4))
            .map(|i| {
                let f = self.pick(&fields).clone();
                let e = match f.data_type {
                    DataType::Int | DataType::Float if self.one_in(3) => {
                        Expr::binary(BinaryOp::Plus, column(&f), Expr::lit(Value::Int(1)))
                    }
                    _ => column(&f),
                };
                (e, format!("p{i}").into())
            })
            .collect();
        plan.project(exprs)
    }

    /// DISTINCT, ORDER BY and LIMIT above, each or not.
    fn top(&mut self, mut plan: LogicalPlan) -> LogicalPlan {
        if self.one_in(4) {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        if self.one_in(2) {
            let fields = plan.schema().fields.to_vec();
            let keys = (0..1 + self.rng.below(2))
                .map(|_| (column(self.pick(&fields)), self.rng.bool()))
                .collect();
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if self.one_in(3) {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                fetch: self.rng.below(40),
            };
        }
        plan
    }
}

/// One case: a composition, the tables its executor arm streams, and the
/// chunk size it streams them in.
fn case(seed: u64, tables: &Tables) -> (LogicalPlan, HashSet<String>, usize) {
    let mut gen = Gen {
        rng: TestRng::deterministic(seed),
        tables,
    };
    let plan = gen.plan();
    let streamed = tables.keys().filter(|_| gen.rng.bool()).cloned().collect();
    let chunk = *gen.pick(&[1, 7, 64]);
    (plan, streamed, chunk)
}

// --------------------------------------------------------------- tests

/// The operators a plan holds, by name.
fn kinds(plan: &LogicalPlan, out: &mut HashSet<&'static str>) {
    out.insert(match plan {
        LogicalPlan::Join { on, .. } if on.is_empty() => "nested loop join",
        LogicalPlan::Join {
            residual: Some(_), ..
        } => "hash join with a residual",
        LogicalPlan::Join { .. } => "hash join",
        LogicalPlan::SemiJoin { on, .. } if on.is_empty() => "semi or anti join without a key",
        LogicalPlan::SemiJoin { negated: true, .. } => "anti join",
        LogicalPlan::SemiJoin { .. } => "semi join",
        LogicalPlan::Aggregate { group_by, .. } if group_by.len() > 1 => "multi-key aggregate",
        LogicalPlan::Aggregate { .. } => "aggregate",
        LogicalPlan::Filter { .. } => "filter",
        LogicalPlan::Project { .. } => "project",
        LogicalPlan::Sort { .. } => "sort",
        LogicalPlan::Limit { .. } => "limit",
        LogicalPlan::Distinct { .. } => "distinct",
        _ => "leaf",
    });
    let mut plan = plan.clone();
    for child in children_mut(&mut plan) {
        kinds(child, out);
    }
}

#[test]
fn late_materialisation_equals_gathering_everything() {
    let tables = tables();
    let (mut rows, mut empty) = (0, 0);
    let mut reached = HashSet::new();
    for seed in 0..CASES {
        let (plan, streamed, chunk) = case(seed, &tables);
        kinds(&plan, &mut reached);
        let got = late(&plan, &tables, &streamed, chunk);
        let want = reference(&plan, &tables);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert!(got == want, "seed {seed}: rows differ\n{plan:#?}");
                rows += got.len();
                empty += usize::from(got.is_empty());
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "seed {seed}"),
            (got, want) => panic!("seed {seed}: {got:?} against {want:?}\n{plan:#?}"),
        }
    }
    assert_eq!(reached.len(), 14, "{reached:?}");
    // The generator reaches both empty and non-empty results.
    assert!(
        empty > CASES as usize / 20 && empty < CASES as usize / 2,
        "{empty} empty"
    );
    assert!(rows > 10 * CASES as usize, "{rows} rows");
}

#[test]
fn a_result_is_the_union_of_its_three_logic_partitions() {
    let tables = tables();
    for seed in 0..TLP_CASES {
        let (plan, streamed, chunk) = case(seed, &tables);
        let Ok(whole) = late(&plan, &tables, &streamed, chunk) else {
            continue;
        };
        let mut rng = TestRng::deterministic(seed ^ 0x7419);
        let fields = plan.schema().fields.to_vec();
        let c = rng.below(fields.len() as u64) as usize;
        let v = match whole.len() {
            0 => Value::Int(1),
            n => whole.value(rng.below(n as u64) as usize, c),
        };
        let ops = [BinaryOp::Lt, BinaryOp::Eq, BinaryOp::GtEq];
        let op = ops[rng.below(3) as usize];
        let p = Expr::binary(op, column(&fields[c]), Expr::lit(v));
        let partitions = [
            p.clone(),
            Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(p.clone()),
            },
            Expr::IsNull {
                expr: Box::new(p),
                negated: false,
            },
        ];
        let mut union = Vec::new();
        for part in partitions {
            let rel = late(&plan.clone().filter(part), &tables, &streamed, chunk).unwrap();
            union.extend(rel.rows());
        }
        let union = Relation::new(whole.fields.clone(), union);
        assert!(union.same_bag(&whole), "seed {seed}\n{plan:#?}");
    }
}
