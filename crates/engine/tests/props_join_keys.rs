//! Differential property test for hash-join key normalisation.
//!
//! Random build/probe relations with 1–4 key columns of every layout the
//! executor distinguishes (Int with `i64::MIN`/`MAX` and duplicates, Date,
//! Bool, Str, Float with −0.0, 0.0 and NaN, Int/Float mixes, NULLs), with
//! layouts that sometimes differ between the sides, sometimes a side with
//! no rows at all, and probe strings mostly absent from the build side.
//! Inner, semi and anti joins (without a residual, with `p.x < b.x`, and
//! with an `AND`/`OR` tree over constants and `IS NOT NULL`, `x` holding
//! NULLs), an inner join over a filtered probe, under a one-key aggregate
//! and on a computed probe key, materialized and with a streamed probe at
//! chunk sizes 1/7/4096, must return exactly the rows, in exactly the order,
//! of a `Vec<Value>`-keyed reference, with the same work units and operator
//! statistics: `build_rows`/`probe_rows` are the plan's right and left
//! sides, whichever side the executor hashed. Sizes sit on that decision's
//! boundary (probe = build, build ± 1) and on the one-morsel boundary (a
//! stream of exactly `chunk` rows, and of `chunk + 1`).

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use xdb_engine::exec::{
    project_columns, weights, Execution, MorselSink, ReadShape, ScanOutput, ScanResolver, Scratch,
    Stored,
};
use xdb_engine::{Relation, Result};
use xdb_obs::OpStat;
use xdb_sql::algebra::{AggCall, AggFunc, Field, LogicalPlan};
use xdb_sql::ast::{BinaryOp, Expr};
use xdb_sql::bind::intern_fields;
use xdb_sql::value::{DataType, Value};

// ------------------------------------------------------- random relations

/// What one side of a key column holds. `Num` mixes Int and Float values,
/// which the column builder stores in the `Mixed` layout. `Bits` is Float
/// with −0.0, 0.0 and NaN among its values, keyed by their bits; it is
/// only paired with itself, because against an Int side `Value`'s equality
/// is not transitive (`Int(0)` equals −0.0 and 0.0, which differ), so the
/// reference would have no one answer.
#[derive(Clone, Copy)]
enum Kind {
    Int,
    Date,
    Bool,
    Str,
    Float,
    Bits,
    Num,
}

impl Kind {
    fn data_type(self) -> DataType {
        match self {
            Kind::Int => DataType::Int,
            Kind::Date => DataType::Date,
            Kind::Bool => DataType::Bool,
            Kind::Str => DataType::Str,
            Kind::Float | Kind::Bits | Kind::Num => DataType::Float,
        }
    }

    /// One key value from a domain of about `domain` distinct values
    /// (shared by all kinds, so that `1 = 1.0` pairs exist and `Int 1` vs
    /// `Date 1` pairs do too), NULL one time in eight.
    fn value(self, rng: &mut TestRng, domain: u64) -> Value {
        if rng.below(8) == 0 {
            return Value::Null;
        }
        let n = rng.below(domain) as i64 - 1;
        match self {
            Kind::Int => match rng.below(16) {
                0 => Value::Int(i64::MIN),
                1 => Value::Int(i64::MAX),
                _ => Value::Int(n),
            },
            Kind::Date => Value::Date(n as i32),
            Kind::Bool => Value::Bool(n % 2 == 0),
            Kind::Str => Value::str(format!("s{n}")),
            Kind::Float if rng.below(4) == 0 => Value::Float(n as f64 + 0.5),
            Kind::Float => Value::Float(n as f64),
            Kind::Bits => Value::Float(match rng.below(8) {
                0 => -0.0,
                1 => 0.0,
                2 => f64::NAN,
                _ => n as f64,
            }),
            Kind::Num if rng.bool() => Value::Int(n),
            Kind::Num => Value::Float(n as f64),
        }
    }
}

/// (build kind, probe kind) of one key column: the same kind three times in
/// four, otherwise a pair whose layouts differ.
fn kind_pair(rng: &mut TestRng) -> (Kind, Kind) {
    match rng.below(16) {
        0 => (Kind::Int, Kind::Float),
        1 => (Kind::Float, Kind::Int),
        2 => (Kind::Int, Kind::Date),
        3 => (Kind::Num, Kind::Int),
        n => {
            let k = [
                Kind::Int,
                Kind::Int,
                Kind::Date,
                Kind::Bool,
                Kind::Str,
                Kind::Float,
                Kind::Bits,
            ][n as usize % 7];
            (k, k)
        }
    }
}

/// Key columns `k0..`, a small Int payload `x` (NULL one time in eight; the
/// residuals read it) and the row number `id`.
fn relation(rng: &mut TestRng, kinds: &[Kind], domains: &[u64], rows: usize) -> Arc<Relation> {
    keyed_relation(rng, kinds, rows, |rng, _| {
        kinds
            .iter()
            .zip(domains)
            .map(|(k, d)| k.value(rng, *d))
            .collect()
    })
}

/// [`relation`] with row `r`'s key values drawn by `keys(rng, r)`.
fn keyed_relation(
    rng: &mut TestRng,
    kinds: &[Kind],
    rows: usize,
    mut keys: impl FnMut(&mut TestRng, usize) -> Vec<Value>,
) -> Arc<Relation> {
    let mut fields: Vec<(String, DataType)> = kinds
        .iter()
        .enumerate()
        .map(|(i, k)| (format!("k{i}"), k.data_type()))
        .collect();
    fields.push(("x".into(), DataType::Int));
    fields.push(("id".into(), DataType::Int));
    let data = (0..rows)
        .map(|r| {
            let mut row = keys(rng, r);
            row.push(match rng.below(8) {
                0 => Value::Null,
                _ => Value::Int(rng.below(4) as i64),
            });
            row.push(Value::Int(r as i64));
            row
        })
        .collect();
    Arc::new(Relation::new(fields, data))
}

struct Case {
    nkeys: usize,
    build: Arc<Relation>,
    probe: Arc<Relation>,
}

/// `large` cases put at least 4096 rows on one side (more than one morsel
/// at the default chunk size) and widen the first key's domain to keep the
/// output near the input size. One case in eight has a probe side without
/// rows (a stream of zero morsels), one in eight such a build side.
fn case(seed: u64, large: bool) -> Case {
    let mut rng = TestRng::deterministic(seed);
    let (nb, np) = if large {
        let big = |rng: &mut TestRng| 4096 + rng.below(600) as usize;
        match rng.below(4) {
            // A small one-morsel probe of a big table: the table goes over
            // the probe morsel.
            0 => (big(&mut rng), rng.below(300) as usize),
            1 => (rng.below(300) as usize, big(&mut rng)),
            2 => (big(&mut rng), big(&mut rng)),
            // Around probe = build and around one morsel of 4096 rows.
            _ => (4096 + rng.below(3) as usize, 4095 + rng.below(3) as usize),
        }
    } else {
        let nb = rng.below(40) as usize;
        let np = match rng.below(8) {
            0 => nb,
            1 => nb + 1,
            2 => nb.saturating_sub(1),
            // One morsel of 7 rows, and two.
            3 => 7,
            4 => 8,
            _ => rng.below(40) as usize,
        };
        (nb, np)
    };
    let mut case = sized_case(&mut rng, nb, np, large);
    let empty = |rel: &Relation| Arc::new(Relation::new(rel.fields.clone(), vec![]));
    match rng.below(8) {
        0 => case.probe = empty(&case.probe),
        1 => case.build = empty(&case.build),
        _ => {}
    }
    case
}

/// A case with `nb` build and `np` probe rows.
fn sized_case(rng: &mut TestRng, nb: usize, np: usize, large: bool) -> Case {
    let nkeys = 1 + rng.below(4) as usize;
    let mut pairs: Vec<(Kind, Kind)> = (0..nkeys).map(|_| kind_pair(rng)).collect();
    let mut domains: Vec<u64> = (0..nkeys).map(|_| 2 + rng.below(5)).collect();
    if large {
        if matches!(pairs[0].0, Kind::Bool) {
            pairs[0] = (Kind::Int, Kind::Int);
        }
        domains[0] = 3000;
    }
    let bkinds: Vec<Kind> = pairs.iter().map(|p| p.0).collect();
    let pkinds: Vec<Kind> = pairs.iter().map(|p| p.1).collect();
    Case {
        nkeys,
        build: relation(rng, &bkinds, &domains, nb),
        probe: relation(rng, &pkinds, &domains, np),
    }
}

/// The packed word key's size rule: a key of at most 17 bits indexes the
/// direct chain-head table however few build rows it has, a key of up to
/// 63 bits is hashed, and a wider one compares as `Value` tuples, so that
/// no packed key equals the no-key sentinel `u64::MAX`. Each entry is (key
/// codes, build rows): 2^12 codes, narrow joins to run before and after
/// the wide ones; on either side of an edge, 2^17 and 2^17 + 1 codes over
/// a sparse build (200 rows) and a denser one, and 2^63 and 2^63 + 1
/// codes, 63 and 64 bits.
const SIZE_RULE_SIDES: [(u64, usize); 8] = [
    (4096, 40),
    (1 << 17, 200),
    ((1 << 17) + 1, 200),
    (1 << 17, 4097),
    ((1 << 17) + 1, 4097),
    (1 << 63, 200),
    ((1 << 63) + 1, 200),
    (4095, 40),
];

/// A case whose word key packs into exactly as many codes as `codes` needs:
/// `nkeys` = 1 Int or Date key spanning `codes` values over `nb` build
/// rows, or 2 whose first spans 8 values (3 bits) and whose second spans
/// `codes / 8`, so that the packed key crosses the size rule in its second
/// bit field (a Date cannot span more than 2^31 values, so wider keys are
/// Int). The first two build rows hold every key's minimum and maximum.
/// Each probe row aims at one build row: a component is NULL one time in
/// sixteen, that row's value seven times, and otherwise any value from
/// three below to three above the build range. The probe side has at
/// least as many rows as the build side, so the table goes over the build
/// side however the probe is read.
fn spanned_case(rng: &mut TestRng, codes: u64, nb: usize, nkeys: usize) -> Case {
    let np = nb + rng.below(nb as u64 / 8 + 8) as usize;
    let wide = codes > 1 << 31;
    let kind = if !wide && rng.bool() {
        Kind::Date
    } else {
        Kind::Int
    };
    let spans = match nkeys {
        1 => vec![codes],
        _ => vec![8, codes.div_ceil(8)],
    };
    // Room for three values below and above the range.
    let lo = match wide {
        true => i64::MIN + 3 + rng.below(1000) as i64,
        false => rng.below(1000) as i64 - 500,
    };
    let word = move |offset: u64| {
        let v = lo.wrapping_add(offset as i64);
        match kind {
            Kind::Date => Value::Date(v as i32),
            _ => Value::Int(v),
        }
    };
    let offsets: Vec<Vec<u64>> = (0..nb)
        .map(|r| {
            let mut span = |s: u64| match r {
                0 => 0,
                1 => s - 1,
                _ => rng.below(s),
            };
            spans.iter().map(|&s| span(s)).collect()
        })
        .collect();
    let kinds = vec![kind; spans.len()];
    let build = keyed_relation(rng, &kinds, nb, |_, r| {
        offsets[r].iter().map(|&o| word(o)).collect()
    });
    let probe = keyed_relation(rng, &kinds, np, |rng, _| {
        let aim = &offsets[rng.below(nb as u64) as usize];
        spans
            .iter()
            .zip(aim)
            .map(|(&s, &o)| match rng.below(16) {
                0 => Value::Null,
                1..=7 => word(o),
                _ => word(rng.below(s + 6).wrapping_sub(3)),
            })
            .collect()
    });
    Case {
        nkeys: spans.len(),
        build,
        probe,
    }
}

// ------------------------------------------------------------------ plans

/// A join's residual predicate.
#[derive(Clone, Copy, Debug)]
enum Residual {
    No,
    /// `p.x < b.x`
    Less,
    /// `p.x < 2 OR (b.x = 1 AND p.x IS NOT NULL)`
    Tree,
}

impl Residual {
    fn expr(self) -> Option<Expr> {
        let (px, bx) = (Expr::qcol("p", "x"), Expr::qcol("b", "x"));
        let int = |n| Expr::lit(Value::Int(n));
        match self {
            Residual::No => None,
            Residual::Less => Some(Expr::binary(BinaryOp::Lt, px, bx)),
            Residual::Tree => Some(Expr::binary(
                BinaryOp::Or,
                Expr::binary(BinaryOp::Lt, px.clone(), int(2)),
                Expr::and(
                    Expr::eq(bx, int(1)),
                    Expr::IsNull {
                        expr: Box::new(px),
                        negated: true,
                    },
                ),
            )),
        }
    }

    /// Whether the pair passes: TRUE under three-valued logic.
    fn passes(self, px: Option<i64>, bx: Option<i64>) -> bool {
        match self {
            Residual::No => true,
            Residual::Less => matches!((px, bx), (Some(p), Some(b)) if p < b),
            Residual::Tree => px.is_some_and(|p| p < 2 || bx == Some(1)),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Inner {
        residual: Residual,
    },
    Semi {
        negated: bool,
        residual: Residual,
    },
    /// Inner join whose probe side is `p` under the filter `x < 2`: fused
    /// into the stream, one morsel at a time, when the probe streams.
    FilteredProbe,
    /// `count(*)` and `sum(b.x)` grouped by `p.k0` over the inner join: the
    /// grouper consumes the join's pairs.
    Aggregate {
        residual: Residual,
    },
    /// Inner join on `p.k0 + 0` where `k0` is numeric: a computed key has
    /// no one layout over a stream's morsels, so this probe never streams.
    ComputedKey,
}

const fn semi(negated: bool, residual: Residual) -> Shape {
    Shape::Semi { negated, residual }
}

const SHAPES: [Shape; 14] = {
    use Residual::{Less, No, Tree};
    [
        Shape::Inner { residual: No },
        Shape::Inner { residual: Less },
        Shape::Inner { residual: Tree },
        Shape::FilteredProbe,
        Shape::Aggregate { residual: No },
        Shape::Aggregate { residual: Less },
        Shape::Aggregate { residual: Tree },
        Shape::ComputedKey,
        semi(false, No),
        semi(false, Less),
        semi(false, Tree),
        semi(true, No),
        semi(true, Less),
        semi(true, Tree),
    ]
};

fn plan(case: &Case, shape: Shape) -> LogicalPlan {
    let scan = |name: &str, rel: &Relation| {
        LogicalPlan::scan(name, name, intern_fields(&rel.fields).iter().cloned())
    };
    let (mut left, right) = (scan("p", &case.probe), scan("b", &case.build));
    let mut on: Vec<(Expr, Expr)> = (0..case.nkeys)
        .map(|i| {
            (
                Expr::qcol("p", format!("k{i}")),
                Expr::qcol("b", format!("k{i}")),
            )
        })
        .collect();
    match shape {
        Shape::FilteredProbe => {
            left = LogicalPlan::Filter {
                input: Box::new(left),
                predicate: Expr::binary(
                    BinaryOp::Lt,
                    Expr::qcol("p", "x"),
                    Expr::lit(Value::Int(2)),
                ),
            }
        }
        Shape::ComputedKey if computes_key(case) => {
            on[0].0 = Expr::binary(BinaryOp::Plus, on[0].0.clone(), Expr::lit(Value::Int(0)));
        }
        _ => {}
    }
    match shape {
        Shape::Inner { residual: r } => left.join_on(right, on, r.expr()),
        Shape::FilteredProbe | Shape::ComputedKey => left.join_on(right, on, None),
        Shape::Aggregate { residual: r } => {
            let call = |func, arg| AggCall {
                func,
                arg,
                distinct: false,
            };
            left.join_on(right, on, r.expr()).aggregate(
                vec![(Expr::qcol("p", "k0"), "k0".into())],
                vec![
                    (call(AggFunc::Count, None), "n".into()),
                    (call(AggFunc::Sum, Some(Expr::qcol("b", "x"))), "s".into()),
                ],
            )
        }
        Shape::Semi {
            negated,
            residual: r,
        } => LogicalPlan::SemiJoin {
            left: Box::new(left),
            right: Box::new(right),
            on,
            residual: r.expr(),
            negated,
        },
    }
}

/// `p.k0 + 0` is defined (and equal to `p.k0`) for the numeric kinds, but
/// for −0.0, which it turns into 0.0; for the others, and for a `k0` that
/// holds −0.0, [`Shape::ComputedKey`] keeps the bare key.
fn computes_key(case: &Case) -> bool {
    let negative_zero =
        |r| matches!(case.probe.value(r, 0), Value::Float(f) if f == 0.0 && f.is_sign_negative());
    matches!(case.probe.fields[0].1, DataType::Int | DataType::Float)
        && !(0..case.probe.len()).any(negative_zero)
}

/// Serves `b` and `p`; with `chunk` set, `p` streams in morsels of that many
/// rows, each sliced out of the stored columns so that every morsel keeps
/// the column layouts (as the wire decoder does).
struct Resolver<'a> {
    case: &'a Case,
    chunk: Option<usize>,
}

impl ScanResolver for Resolver<'_> {
    fn streams(&self, relation: &str) -> bool {
        self.chunk.is_some() && relation == "p"
    }

    fn scan(
        &self,
        relation: &str,
        wanted: &[Field],
        read: ReadShape,
        sink: &mut MorselSink<'_>,
    ) -> Result<ScanOutput> {
        let rel = if relation == "b" {
            &self.case.build
        } else {
            &self.case.probe
        };
        match (read, self.chunk) {
            (ReadShape::Chunks, Some(chunk)) => {
                for lo in (0..rel.len()).step_by(chunk) {
                    let sel: Vec<u32> = (lo..rel.len().min(lo + chunk)).map(|i| i as u32).collect();
                    let cols = rel.columns().iter().map(|c| c.gather(&sel)).collect();
                    let m = Relation::from_columns(rel.fields.clone(), cols, sel.len());
                    sink(project_columns(Stored::Owned(m), wanted)?)?;
                }
            }
            _ => sink(project_columns(Stored::Shared(Arc::clone(rel)), wanted)?)?,
        }
        Ok(ScanOutput {
            nrows: rel.len(),
            edge: None,
            remote: None,
        })
    }
}

/// Everything one execution lets a caller observe.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Rows in order, `Debug`-rendered: `Int(1)` and `Float(1.0)` differ.
    rows: String,
    scan_units: f64,
    olap_units: f64,
    /// Every operator's statistic, in the order the operators finished.
    ops: Vec<OpStat>,
}

/// One execution on `scratch`, the tables and buffers an engine pools
/// across executions: what an earlier join left in it must not show.
fn observe(
    scratch: &mut Scratch,
    case: &Case,
    plan: &LogicalPlan,
    chunk: Option<usize>,
) -> Observed {
    let resolver = Resolver { case, chunk };
    let mut exec = Execution::new(&resolver);
    exec.scratch = std::mem::take(scratch);
    exec.collect_ops();
    let out = exec.run(plan).expect("join executes");
    *scratch = std::mem::take(&mut exec.scratch);
    Observed {
        rows: format!("{:?}", out.rows().collect::<Vec<_>>()),
        scan_units: exec.scan_units,
        olap_units: exec.olap_units,
        ops: exec.ops.take().expect("operator stats were requested"),
    }
}

// -------------------------------------------------------------- reference

/// The `Vec<Value>` reference: a row's key is its key values, or nothing if
/// any is NULL; two keys match when `Vec<Value>` equality says so.
fn key(rel: &Relation, nkeys: usize, row: usize) -> Option<Vec<Value>> {
    let k: Vec<Value> = (0..nkeys).map(|c| rel.value(row, c)).collect();
    (!k.iter().any(Value::is_null)).then_some(k)
}

/// What `shape` must produce. `streamed` says whether the probe side
/// streams: that decides the order in which the join runs its children, and
/// with it the order of the scans' statistics and of the additions into
/// `scan_units` (which a float sum of three terms can tell apart).
fn reference(case: &Case, shape: Shape, streamed: bool) -> Observed {
    let (build, probe, nkeys) = (&*case.build, &*case.probe, case.nkeys);
    // Build rows per key, ascending.
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for j in 0..build.len() {
        if let Some(k) = key(build, nkeys, j) {
            index.entry(k).or_default().push(j);
        }
    }
    let x = |rel: &Relation, row: usize| match rel.value(row, nkeys) {
        Value::Int(x) => Some(x),
        Value::Null => None,
        other => panic!("x is an Int or NULL, got {other:?}"),
    };
    let (filtered, residual) = match shape {
        Shape::Inner { residual }
        | Shape::Semi { residual, .. }
        | Shape::Aggregate { residual } => (false, residual),
        Shape::FilteredProbe => (true, Residual::No),
        Shape::ComputedKey => (false, Residual::No),
    };
    let passes = |i: usize, j: usize| residual.passes(x(probe, i), x(build, j));
    let kept: Vec<usize> = (0..probe.len())
        .filter(|&i| !filtered || x(probe, i).is_some_and(|x| x < 2))
        .collect();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for &i in &kept {
        let matches = key(probe, nkeys, i).and_then(|k| index.get(&k));
        let candidates = matches.map_or(&[][..], Vec::as_slice);
        match shape {
            Shape::Semi { negated, .. } => {
                if candidates.iter().any(|&j| passes(i, j)) != negated {
                    rows.push(probe.row(i));
                }
            }
            _ => {
                for &j in candidates.iter().filter(|&&j| passes(i, j)) {
                    let mut row = probe.row(i);
                    row.extend(build.row(j));
                    rows.push(row);
                }
            }
        }
    }
    let (b, p, k, out) = (
        build.len() as u64,
        probe.len() as u64,
        kept.len() as u64,
        rows.len() as u64,
    );
    let scan = |rows_out| OpStat {
        op: "scan",
        rows_out,
        ..OpStat::default()
    };
    // One term per operator, added in the order the executor runs them.
    let mut scan_units = 0.0;
    let mut ops = Vec::new();
    if streamed {
        scan_units += b as f64 * weights::SCAN;
        ops.push(scan(b));
    }
    scan_units += p as f64 * weights::SCAN;
    ops.push(scan(p));
    if filtered {
        scan_units += p as f64 * weights::FILTER;
        ops.push(OpStat {
            op: "filter",
            rows_in: p,
            rows_out: k,
            ..OpStat::default()
        });
    }
    if !streamed {
        scan_units += b as f64 * weights::SCAN;
        ops.push(scan(b));
    }
    let (op, out_units) = match shape {
        Shape::Semi { negated: false, .. } => ("semi join", 0.0),
        Shape::Semi { negated: true, .. } => ("anti join", 0.0),
        _ => ("hash join", out as f64 * weights::JOIN * 0.5),
    };
    let mut olap_units = (k as f64 + b as f64) * weights::JOIN + out_units;
    ops.push(OpStat {
        op,
        rows_in: b + k,
        rows_out: out,
        build_rows: b,
        probe_rows: k,
    });
    if let Shape::Aggregate { .. } = shape {
        // Groups in first-seen order of `p.k0`; `Value` equality decides
        // (`1 = 1.0`, and NULL is a group of its own).
        // (key, count(*), sum(b.x): NULL until a non-NULL `b.x` arrives).
        let mut groups: Vec<(Value, i64, Option<i64>)> = Vec::new();
        let mut index: HashMap<Value, usize> = HashMap::new();
        for row in &rows {
            let gi = *index.entry(row[0].clone()).or_insert(groups.len());
            if gi == groups.len() {
                groups.push((row[0].clone(), 0, None));
            }
            groups[gi].1 += 1;
            if let Value::Int(bx) = row[probe.width() + nkeys] {
                groups[gi].2 = Some(groups[gi].2.unwrap_or(0) + bx);
            }
        }
        olap_units += out as f64 * weights::AGGREGATE;
        ops.push(OpStat {
            op: "aggregate",
            rows_in: out,
            rows_out: groups.len() as u64,
            ..OpStat::default()
        });
        rows = groups
            .into_iter()
            .map(|(k0, n, s)| vec![k0, Value::Int(n), s.map_or(Value::Null, Value::Int)])
            .collect();
    }
    Observed {
        rows: format!("{rows:?}"),
        scan_units,
        olap_units,
        ops,
    }
}

// ------------------------------------------------------------------ tests

/// Every shape at every chunk setting equals the reference, the whole
/// operator list included, each on a fresh [`Scratch`]. Whether the probe
/// streams is the reference's only input besides the case: a computed
/// probe key never does, every other join (inner, semi and anti alike)
/// does whenever the resolver offers to.
fn check(case: &Case, label: &str) -> std::result::Result<(), TestCaseError> {
    check_on(None, case, label)
}

/// [`check`], every execution on `reused` when given (back to back, in
/// the order the loops run them), else each on a fresh [`Scratch`].
fn check_on(
    mut reused: Option<&mut Scratch>,
    case: &Case,
    label: &str,
) -> std::result::Result<(), TestCaseError> {
    for shape in SHAPES {
        let plan = plan(case, shape);
        for chunk in [None, Some(1), Some(7), Some(4096)] {
            let streamed = chunk.is_some()
                && match shape {
                    Shape::ComputedKey => !computes_key(case),
                    _ => true,
                };
            let mut fresh = Scratch::default();
            let scratch = reused.as_deref_mut().unwrap_or(&mut fresh);
            prop_assert_eq!(
                &observe(scratch, case, &plan, chunk),
                &reference(case, shape, streamed),
                "{} {:?} chunk {:?}",
                label,
                shape,
                chunk
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn small_joins_match_the_value_keyed_reference(seed in any::<u64>()) {
        check(&case(seed, false), &format!("seed {seed}"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// At least 4096 rows on one side: more than one morsel at chunk 4096.
    #[test]
    fn large_joins_match_the_value_keyed_reference(seed in any::<u64>()) {
        check(&case(seed, true), &format!("seed {seed}"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Joins back to back on one [`Scratch`], as an engine's pooled
    /// scratch runs them: small cases of every layout, and word keys of
    /// about 2^12 codes and on either side of the 17-bit rule over sparse
    /// builds. A chain head an earlier build left behind would chain into,
    /// or match, rows of a later one, and a packed key left behind would
    /// spill into a later one's bit fields.
    #[test]
    fn joins_back_to_back_on_one_scratch_match_the_reference(seed in any::<u64>()) {
        let mut rng = TestRng::deterministic(seed);
        let mut scratch = Scratch::default();
        for step in 0..4 {
            let nkeys = 1 + rng.below(2) as usize;
            let case = match rng.below(3) {
                0 => case(rng.next_u64(), false),
                1 => {
                    let (codes, nb) = (4095 + rng.below(3), 8 + rng.below(40) as usize);
                    spanned_case(&mut rng, codes, nb, nkeys)
                }
                _ => {
                    let (codes, nb) = ((1 << 17) - 1 + rng.below(3), 8 + rng.below(200) as usize);
                    spanned_case(&mut rng, codes, nb, nkeys)
                }
            };
            check_on(Some(&mut scratch), &case, &format!("seed {seed} step {step}"))?;
        }
    }
}

/// Word keys on both sides of the size rule's edges, pinned
/// ([`SIZE_RULE_SIDES`]), in one and in two columns, all run back to back
/// on one [`Scratch`]: the direct table grows to 2^17 slots, and the
/// narrow joins run again after that reuse it.
#[test]
fn size_rule_sides_match_the_reference() {
    let mut rng = TestRng::deterministic(34);
    let mut scratch = Scratch::default();
    for &(codes, nb) in SIZE_RULE_SIDES.iter().chain(&SIZE_RULE_SIDES[..3]) {
        for nkeys in [1, 2] {
            let case = spanned_case(&mut rng, codes, nb, nkeys);
            let label = format!("{codes} codes x {nb} in {nkeys} columns");
            check_on(Some(&mut scratch), &case, &label).expect("equals the reference");
        }
    }
}

/// The cases the generator is meant to reach, pinned: cross-type equality
/// through the fallback, no equality across Int and Date, NULL components,
/// probe values outside the build range, and the `i64` extremes.
#[test]
fn pinned_key_semantics() {
    let rel = |types: &[DataType], keys: &[&[Value]]| {
        let rows = keys
            .iter()
            .enumerate()
            .map(|(i, k)| [k, &[Value::Int(0), Value::Int(i as i64)][..]].concat())
            .collect();
        let mut fields: Vec<(String, DataType)> = types
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("k{i}"), *t))
            .collect();
        fields.push(("x".into(), DataType::Int));
        fields.push(("id".into(), DataType::Int));
        Arc::new(Relation::new(fields, rows))
    };
    let matches = |build: Arc<Relation>, probe: Arc<Relation>| -> u64 {
        let case = Case {
            nkeys: build.width() - 2,
            build,
            probe,
        };
        let shape = Shape::Inner {
            residual: Residual::No,
        };
        let observed = observe(&mut Scratch::default(), &case, &plan(&case, shape), None);
        assert_eq!(observed, reference(&case, shape, false));
        observed.ops.last().expect("the join's statistic").rows_out
    };
    use Value::{Date, Float, Int, Null};
    let ints: &[&[Value]] = &[
        &[Int(1)],
        &[Null],
        &[Int(i64::MIN)],
        &[Int(i64::MAX)],
        &[Int(1)],
    ];
    // 1 = 1.0 (twice: two build rows hold 1), never NULL = NULL.
    let floats: &[&[Value]] = &[&[Float(1.0)], &[Float(1.5)], &[Null]];
    assert_eq!(
        matches(rel(&[DataType::Int], ints), rel(&[DataType::Float], floats)),
        2
    );
    // Int 1 is not Date 1.
    let dates: &[&[Value]] = &[&[Date(1)], &[Date(2)]];
    assert_eq!(
        matches(rel(&[DataType::Int], ints), rel(&[DataType::Date], dates)),
        0
    );
    // Same layout: duplicates, extremes, NULLs.
    assert_eq!(
        matches(rel(&[DataType::Int], ints), rel(&[DataType::Int], ints)),
        6
    );
    // A probe value outside the build side's range matches nothing — and in
    // a composite key it must not spill into the next column's bit field:
    // (2, 0) would pack like (0, 1) over the build ranges 0..=1 × 0..=1.
    let two = [DataType::Int, DataType::Int];
    let build: &[&[Value]] = &[&[Int(0), Int(0)], &[Int(0), Int(1)], &[Int(1), Int(0)]];
    let probe: &[&[Value]] = &[
        &[Int(2), Int(0)],
        &[Int(-1), Int(1)],
        &[Int(i64::MAX), Int(0)],
        &[Int(0), Int(1)],
    ];
    assert_eq!(matches(rel(&two, build), rel(&two, probe)), 1);
}

/// Probe strings mostly absent from the build side, pinned: a string the
/// build side's dictionary lacks has no key, and one it holds takes the
/// build side's code, whichever morsel it arrives in and in whatever order
/// the probe's strings first appear. In one and in two columns (Str, Int),
/// with a probe smaller than the build side (the dictionary then goes over
/// the probe morsel) and one streamed in two morsels of 4096.
#[test]
fn absent_probe_strings_match_the_reference() {
    let mut rng = TestRng::deterministic(55);
    for (nb, np, nkeys) in [(40, 300, 1), (40, 300, 2), (300, 40, 1), (500, 4200, 2)] {
        let kinds = [Kind::Str, Kind::Int][..nkeys].to_vec();
        let key = |rng: &mut TestRng, c: usize, present: bool| match (c, present) {
            (0, true) => Value::str(format!("s{}", rng.below(5))),
            (0, false) => Value::str(format!("t{}", rng.below(100))),
            _ => Value::Int(rng.below(3) as i64),
        };
        let build = keyed_relation(&mut rng, &kinds, nb, |rng, _| {
            (0..nkeys).map(|c| key(rng, c, true)).collect()
        });
        let probe = keyed_relation(&mut rng, &kinds, np, |rng, _| {
            (0..nkeys)
                .map(|c| match rng.below(16) {
                    0 => Value::Null,
                    1..=3 => key(rng, c, true),
                    _ => key(rng, c, false),
                })
                .collect()
        });
        let case = Case {
            nkeys,
            build,
            probe,
        };
        let label = format!("{nb} x {np} in {nkeys} columns");
        check(&case, &label).expect("equals the reference");
    }
}

/// A side without rows, pinned: a streamed probe of zero morsels leaves the
/// join's consumer with nothing to take a schema from, and an empty build
/// side still owes every probe row its accounting.
#[test]
fn empty_sides_match_the_reference() {
    let full = case(7, false);
    let empty = |rel: &Relation| Arc::new(Relation::new(rel.fields.clone(), vec![]));
    for (build, probe) in [
        (full.build.clone(), empty(&full.probe)),
        (empty(&full.build), full.probe.clone()),
        (empty(&full.build), empty(&full.probe)),
    ] {
        let case = Case {
            nkeys: full.nkeys,
            build,
            probe,
        };
        check(&case, "empty side").expect("equals the reference");
    }
}

/// The sizes the build-side decision and the held first morsel turn on,
/// pinned: probe = build (a tie keeps the right side's table), build ± 1,
/// a stream of exactly one chunk and of one row more, and a one-morsel
/// streamed probe of a few hundred rows against a table of thousands.
#[test]
fn boundary_sizes_match_the_reference() {
    let mut rng = TestRng::deterministic(21);
    for (nb, np) in [(7, 7), (7, 6), (7, 8), (30, 7), (30, 8), (1, 0), (0, 1)] {
        let case = sized_case(&mut rng, nb, np, false);
        check(&case, &format!("{nb} x {np}")).expect("equals the reference");
    }
    for (nb, np) in [(4200, 250), (4097, 4096), (4096, 4096), (4098, 4097)] {
        let case = sized_case(&mut rng, nb, np, true);
        check(&case, &format!("{nb} x {np}")).expect("equals the reference");
    }
}
