//! Differential property test for grouped aggregation and DISTINCT.
//!
//! Random relations grouped by every key shape the executor distinguishes
//! (none, Int, Str, Date, Bool, Float, a computed key whose column layout
//! drifts from one streamed morsel to the next, keys that pack into one
//! word with strings and floats dictionary-coded, Q10's `[Int, Str, Float,
//! Str]` among them, 64 dictionary-coded columns that need 64 bits or more
//! and so take `Value` keys, a gathered Str key, alone and packed, whose
//! few entries repeat strings; NULLs everywhere), with and without a
//! filter underneath, fed as one materialized morsel and as a stream in
//! chunks of 1/7/4096, must return exactly the groups, in first-seen order with
//! bit-equal float sums, of a `Vec<Value>`-keyed row-at-a-time reference,
//! with the same work units and operator statistics. `SELECT DISTINCT` of
//! the same keys must return the reference's first-seen key tuples.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xdb_engine::exec::{
    project_columns, weights, Execution, MorselSink, ReadShape, ScanOutput, ScanResolver, Stored,
};
use xdb_engine::{Relation, Result};
use xdb_obs::OpStat;
use xdb_sql::algebra::{AggCall, AggFunc, Field, LogicalPlan, Name};
use xdb_sql::ast::{BinaryOp, Expr};
use xdb_sql::bind::intern_fields;
use xdb_sql::column::{Column, TypedCol};
use xdb_sql::value::{DataType, Value};

// ------------------------------------------------------- random relations

/// What a key column holds.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Int,
    Str,
    /// Str, gathered from a source with fewer entries than rows, of
    /// which at least two name the same string.
    IdStr,
    Date,
    Bool,
    Float,
}

impl Kind {
    fn data_type(self) -> DataType {
        match self {
            Kind::Int => DataType::Int,
            Kind::Str | Kind::IdStr => DataType::Str,
            Kind::Date => DataType::Date,
            Kind::Bool => DataType::Bool,
            Kind::Float => DataType::Float,
        }
    }

    /// One key value out of about `domain`, NULL one time in eight.
    fn value(self, rng: &mut TestRng, domain: u64) -> Value {
        if rng.below(8) == 0 {
            return Value::Null;
        }
        let n = rng.below(domain) as i64 - 1;
        match self {
            Kind::Int if rng.below(16) == 0 => Value::Int(i64::MAX),
            Kind::Int => Value::Int(n),
            Kind::Str | Kind::IdStr => Value::str(format!("s{n}")),
            Kind::Date => Value::Date(n as i32),
            Kind::Bool => Value::Bool(n % 2 == 0),
            Kind::Float if rng.below(4) == 0 => Value::Float(n as f64 + 0.5),
            Kind::Float => Value::Float(n as f64),
        }
    }
}

/// How the key columns are grouped.
#[derive(Clone, Copy, Debug, PartialEq)]
enum GroupBy {
    /// By every key column.
    Columns,
    /// By `CASE WHEN x < 2 THEN k0 ELSE k1 END` over an Int and a Float
    /// column: evaluated row by row into a column whose layout (`Int`,
    /// `Float` or `Mixed`) follows what the morsel happens to hold, while
    /// `1` and `1.0` are one group whichever comes first.
    Pick,
}

/// 64 dictionary-coded columns, Str and Float in turn: every field takes
/// a bit at least, so the packed key would need 64 bits or more.
const WIDE: [Kind; 64] = {
    let mut kinds = [Kind::Str; 64];
    let mut i = 1;
    while i < 64 {
        kinds[i] = Kind::Float;
        i += 2;
    }
    kinds
};

/// The key shapes under test.
const KEYS: [(&[Kind], GroupBy); 13] = [
    (&[], GroupBy::Columns),
    (&[Kind::Int], GroupBy::Columns),
    (&[Kind::Str], GroupBy::Columns),
    (&[Kind::Date], GroupBy::Columns),
    (&[Kind::Bool], GroupBy::Columns),
    (&[Kind::Float], GroupBy::Columns),
    (&[Kind::Int, Kind::Float], GroupBy::Pick),
    (&[Kind::Int, Kind::Str], GroupBy::Columns),
    (&[Kind::IdStr], GroupBy::Columns),
    (&[Kind::IdStr, Kind::Int], GroupBy::Columns),
    (&[Kind::Date, Kind::Float], GroupBy::Columns),
    (
        &[Kind::Int, Kind::Str, Kind::Float, Kind::Str],
        GroupBy::Columns,
    ),
    (&WIDE, GroupBy::Columns),
];

const PICK_BELOW: i64 = 2;

struct Case {
    nkeys: usize,
    group_by: GroupBy,
    /// Key columns `k0..`, then `x` (Int 0..4, the filter reads it), `i`
    /// (Int), `f` (Float, fractions whose sum depends on the order of
    /// addition) and `s` (Str); `i`, `f` and `s` NULL one time in eight.
    rel: Arc<Relation>,
}

fn case(seed: u64, keys: &[Kind], group_by: GroupBy, rows: usize) -> Case {
    let mut rng = TestRng::deterministic(seed);
    let domains: Vec<u64> = keys.iter().map(|_| 2 + rng.below(6)).collect();
    let mut fields: Vec<(String, DataType)> = keys
        .iter()
        .enumerate()
        .map(|(c, k)| (format!("k{c}"), k.data_type()))
        .collect();
    fields.push(("x".into(), DataType::Int));
    fields.push(("i".into(), DataType::Int));
    fields.push(("f".into(), DataType::Float));
    fields.push(("s".into(), DataType::Str));
    let data = (0..rows)
        .map(|_| {
            let mut row: Vec<Value> = keys
                .iter()
                .zip(&domains)
                .map(|(k, d)| k.value(&mut rng, *d))
                .collect();
            row.push(Value::Int(rng.below(4) as i64));
            let nullable = |rng: &mut TestRng, v: Value| {
                if rng.below(8) == 0 {
                    Value::Null
                } else {
                    v
                }
            };
            let i = match rng.below(64) {
                0 => i64::MAX,
                n => n as i64 - 20,
            };
            row.push(nullable(&mut rng, Value::Int(i)));
            let f = rng.below(1000) as f64 / 7.0 - 30.0;
            row.push(nullable(&mut rng, Value::Float(f)));
            let s = Value::str(format!("v{}", rng.below(9)));
            row.push(nullable(&mut rng, s));
            row
        })
        .collect();
    let mut rel = Relation::new(fields, data);
    for (c, (k, d)) in keys.iter().zip(&domains).enumerate() {
        if let Kind::IdStr = k {
            rel = with_gathered_column(rel, c, &mut rng, *k, *d);
        }
    }
    Case {
        nkeys: keys.len(),
        group_by,
        rel: Arc::new(rel),
    }
}

/// `rel` with column `c` replaced by a gather from a source of `domain + 2`
/// entries drawn from `domain` strings: two entries at least name the same
/// string, so two ids do.
fn with_gathered_column(
    rel: Relation,
    c: usize,
    rng: &mut TestRng,
    kind: Kind,
    domain: u64,
) -> Relation {
    let entries = domain as usize + 2;
    let mut src: TypedCol<Arc<str>> = TypedCol::with_capacity(entries);
    for _ in 0..entries {
        match kind.value(rng, domain) {
            Value::Str(s) => src.push(s),
            _ => src.push_null(),
        }
    }
    let sel: Vec<u32> = (0..rel.len())
        .map(|_| rng.below(entries as u64) as u32)
        .collect();
    let mut cols = rel.columns().to_vec();
    cols[c] = Column::Str(src.into()).gather(&sel);
    Relation::from_columns(rel.fields.clone(), cols, rel.len())
}

// ------------------------------------------------------------------ plans

const FILTER_BELOW: i64 = 3;

/// `t [WHERE x < 3]`.
fn input(case: &Case, filtered: bool) -> LogicalPlan {
    let fields = intern_fields(&case.rel.fields);
    let input = LogicalPlan::scan("t", "t", fields.iter().cloned());
    match filtered {
        true => input.filter(Expr::binary(
            BinaryOp::Lt,
            Expr::qcol("t", "x"),
            Expr::Literal(Value::Int(FILTER_BELOW)),
        )),
        false => input,
    }
}

/// The key expressions, named.
fn keys(case: &Case) -> Vec<(Expr, Name)> {
    let key = |c: usize| Expr::qcol("t", format!("k{c}"));
    match case.group_by {
        GroupBy::Columns => (0..case.nkeys)
            .map(|c| (key(c), format!("k{c}").into()))
            .collect(),
        GroupBy::Pick => {
            let pick = Expr::Case {
                operand: None,
                branches: vec![(
                    Expr::binary(
                        BinaryOp::Lt,
                        Expr::qcol("t", "x"),
                        Expr::Literal(Value::Int(PICK_BELOW)),
                    ),
                    key(0),
                )],
                else_expr: Some(Box::new(key(1))),
            };
            vec![(pick, "k".into())]
        }
    }
}

/// `SELECT k.., count(*), count(i), sum(i), sum(f), avg(f), min(s), max(f),
/// count(DISTINCT i) FROM t [WHERE x < 3] GROUP BY k..`.
fn plan(case: &Case, filtered: bool) -> LogicalPlan {
    let call = |func, arg: Option<&str>, distinct| AggCall {
        func,
        arg: arg.map(|a| Expr::qcol("t", a)),
        distinct,
    };
    let aggregates = [
        call(AggFunc::Count, None, false),
        call(AggFunc::Count, Some("i"), false),
        call(AggFunc::Sum, Some("i"), false),
        call(AggFunc::Sum, Some("f"), false),
        call(AggFunc::Avg, Some("f"), false),
        call(AggFunc::Min, Some("s"), false),
        call(AggFunc::Max, Some("f"), false),
        call(AggFunc::Count, Some("i"), true),
    ]
    .into_iter()
    .enumerate()
    .map(|(n, a)| (a, format!("a{n}").into()))
    .collect();
    input(case, filtered).aggregate(keys(case), aggregates)
}

/// `SELECT DISTINCT k.. FROM t [WHERE x < 3]`.
fn distinct_plan(case: &Case, filtered: bool) -> LogicalPlan {
    LogicalPlan::Distinct {
        input: Box::new(input(case, filtered).project(keys(case))),
    }
}

/// Serves `t`; with `chunk` set it streams in morsels of that many rows,
/// each sliced out of the stored columns so that every morsel keeps the
/// column layouts (as the wire decoder does).
struct Resolver<'a> {
    case: &'a Case,
    chunk: Option<usize>,
}

impl ScanResolver for Resolver<'_> {
    fn streams(&self, _relation: &str) -> bool {
        self.chunk.is_some()
    }

    fn scan(
        &self,
        _relation: &str,
        wanted: &[Field],
        read: ReadShape,
        sink: &mut MorselSink<'_>,
    ) -> Result<ScanOutput> {
        let rel = &self.case.rel;
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
    /// Rows in order, `Debug`-rendered: `Int(1)` and `Float(1.0)` differ,
    /// and so do two floats that differ in their last bit.
    rows: String,
    scan_units: f64,
    olap_units: f64,
    ops: Vec<OpStat>,
}

fn observe(case: &Case, plan: &LogicalPlan, chunk: Option<usize>) -> Observed {
    let resolver = Resolver { case, chunk };
    let mut exec = Execution::new(&resolver);
    exec.collect_ops();
    let out = exec.run(plan).expect("the plan executes");
    Observed {
        rows: format!("{:?}", out.rows().collect::<Vec<_>>()),
        scan_units: exec.scan_units,
        olap_units: exec.olap_units,
        ops: exec.ops.take().expect("operator stats were requested"),
    }
}

// -------------------------------------------------------------- reference

/// One group of the reference: plain running values, one row at a time.
#[derive(Default)]
struct Group {
    rows: i64,
    count_i: i64,
    sum_i: Option<i128>,
    sum_f: Option<f64>,
    count_f: i64,
    min_s: Option<Value>,
    max_f: Option<Value>,
    distinct_i: HashSet<Value>,
}

impl Group {
    fn add(&mut self, i: Value, f: Value, s: Value) {
        self.rows += 1;
        if let Value::Int(v) = i {
            self.count_i += 1;
            *self.sum_i.get_or_insert(0) += i128::from(v);
            self.distinct_i.insert(i);
        }
        if let Value::Float(v) = f {
            *self.sum_f.get_or_insert(0.0) += v;
            self.count_f += 1;
            if self.max_f.as_ref().is_none_or(|m| f.total_cmp(m).is_gt()) {
                self.max_f = Some(f);
            }
        }
        if !s.is_null() && self.min_s.as_ref().is_none_or(|m| s.total_cmp(m).is_lt()) {
            self.min_s = Some(s);
        }
    }

    fn finish(self) -> Vec<Value> {
        vec![
            Value::Int(self.rows),
            Value::Int(self.count_i),
            self.sum_i.map_or(Value::Null, |v| match i64::try_from(v) {
                Ok(v) => Value::Int(v),
                Err(_) => Value::Float(v as f64),
            }),
            self.sum_f.map_or(Value::Null, Value::Float),
            self.sum_f
                .map_or(Value::Null, |v| Value::Float(v / self.count_f as f64)),
            self.min_s.unwrap_or(Value::Null),
            self.max_f.unwrap_or(Value::Null),
            Value::Int(self.distinct_i.len() as i64),
        ]
    }
}

/// The rows the filter keeps, each with its key.
fn kept_keys(case: &Case, filtered: bool) -> Vec<(usize, Vec<Value>)> {
    let (rel, nkeys) = (&*case.rel, case.nkeys);
    (0..rel.len())
        .filter(|&r| !filtered || matches!(rel.value(r, nkeys), Value::Int(x) if x < FILTER_BELOW))
        .map(|r| {
            let key = match case.group_by {
                GroupBy::Columns => (0..nkeys).map(|c| rel.value(r, c)).collect(),
                GroupBy::Pick => {
                    let first = matches!(rel.value(r, nkeys), Value::Int(x) if x < PICK_BELOW);
                    vec![rel.value(r, if first { 0 } else { 1 })]
                }
            };
            (r, key)
        })
        .collect()
}

/// The scan's and the filter's statistics and scan units.
fn input_reference(case: &Case, filtered: bool, kept: u64) -> (Vec<OpStat>, f64) {
    let n = case.rel.len() as u64;
    let mut ops = vec![stat("scan", 0, n)];
    let mut scan_units = n as f64 * weights::SCAN;
    if filtered {
        ops.push(stat("filter", n, kept));
        scan_units += n as f64 * weights::FILTER;
    }
    (ops, scan_units)
}

fn stat(op: &'static str, rows_in: u64, rows_out: u64) -> OpStat {
    OpStat {
        op,
        rows_in,
        rows_out,
        ..OpStat::default()
    }
}

fn reference(case: &Case, filtered: bool) -> Observed {
    let (rel, nkeys) = (&*case.rel, case.nkeys);
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<Value>, Group)> = Vec::new();
    let keyed = kept_keys(case, filtered);
    let kept = keyed.len() as u64;
    for (r, key) in keyed {
        let gi = *index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, Group::default()));
            groups.len() - 1
        });
        groups[gi].1.add(
            rel.value(r, nkeys + 1),
            rel.value(r, nkeys + 2),
            rel.value(r, nkeys + 3),
        );
    }
    // A global aggregate over no rows still yields its one group.
    if nkeys == 0 && groups.is_empty() {
        groups.push((vec![], Group::default()));
    }
    let ngroups = groups.len() as u64;
    let rows: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(mut key, group)| {
            key.extend(group.finish());
            key
        })
        .collect();
    let (mut ops, scan_units) = input_reference(case, filtered, kept);
    ops.push(stat("aggregate", kept, ngroups));
    Observed {
        rows: format!("{rows:?}"),
        scan_units,
        olap_units: kept as f64 * weights::AGGREGATE,
        ops,
    }
}

/// DISTINCT's reference: the key tuples in first-seen order.
fn distinct_reference(case: &Case, filtered: bool) -> Observed {
    let keyed = kept_keys(case, filtered);
    let kept = keyed.len() as u64;
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let rows: Vec<Vec<Value>> = keyed
        .into_iter()
        .filter_map(|(_, key)| seen.insert(key.clone()).then_some(key))
        .collect();
    let (mut ops, scan_units) = input_reference(case, filtered, kept);
    ops.push(stat("project", kept, kept));
    ops.push(stat("distinct", kept, rows.len() as u64));
    Observed {
        rows: format!("{rows:?}"),
        scan_units: scan_units + kept as f64 * weights::PROJECT,
        olap_units: kept as f64 * weights::DISTINCT,
        ops,
    }
}

// ------------------------------------------------------------------ tests

/// Every key shape, filtered and not, grouped and DISTINCT, equals the
/// reference at every feed granularity.
fn check(seed: u64, rows: usize) -> std::result::Result<(), TestCaseError> {
    for (keys, group_by) in KEYS {
        // Whether keys take `Value` tuples is decided by the plan's width,
        // whatever the row count; [`WIDE`]'s 33 string columns over
        // thousands of one-row morsels would take minutes.
        if keys.len() == WIDE.len() && rows > 4096 {
            continue;
        }
        let case = case(seed, keys, group_by, rows);
        for filtered in [false, true] {
            let runs = [
                (plan(&case, filtered), reference(&case, filtered)),
                (
                    distinct_plan(&case, filtered),
                    distinct_reference(&case, filtered),
                ),
            ];
            for (plan, expected) in &runs {
                for chunk in [None, Some(1), Some(7), Some(4096)] {
                    prop_assert_eq!(
                        &observe(&case, plan, chunk),
                        expected,
                        "seed {} keys {:?} {:?} filtered {} chunk {:?}\n{}",
                        seed,
                        keys,
                        group_by,
                        filtered,
                        chunk,
                        plan.compact_notation()
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn small_inputs_match_the_value_keyed_reference(seed in any::<u64>(), rows in 0usize..60) {
        check(seed, rows)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// More than 4096 rows: several morsels at every chunk size.
    #[test]
    fn large_inputs_match_the_value_keyed_reference(seed in any::<u64>(), extra in 1usize..600) {
        check(seed, 4096 + extra)?;
    }
}
