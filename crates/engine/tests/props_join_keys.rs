//! Differential property test for hash-join key normalisation.
//!
//! Random build/probe relations with 1–4 key columns of every layout the
//! executor distinguishes (Int with `i64::MIN`/`MAX` and duplicates, Date,
//! Bool, Str, Float, Int/Float mixes, NULLs), with layouts that sometimes
//! differ between the sides. Inner, semi and anti joins (with and without
//! a residual), materialized and with a streamed probe at chunk sizes
//! 1/7/4096, must return exactly the rows, in exactly the order, of a `Vec<Value>`-keyed reference, with the same work units
//! and operator statistics.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use xdb_engine::engine::MorselSink;
use xdb_engine::exec::{
    project_columns_shared, weights, Execution, ScanOutput, ScanResolver, StreamedScan,
};
use xdb_engine::{Relation, Result};
use xdb_obs::OpStat;
use xdb_sql::algebra::{Field, LogicalPlan};
use xdb_sql::ast::{BinaryOp, Expr};
use xdb_sql::bind::intern_fields;
use xdb_sql::value::{DataType, Value};

// ------------------------------------------------------- random relations

/// What one side of a key column holds. `Num` mixes Int and Float values,
/// which the column builder stores in the `Mixed` layout.
#[derive(Clone, Copy)]
enum Kind {
    Int,
    Date,
    Bool,
    Str,
    Float,
    Num,
}

impl Kind {
    fn data_type(self) -> DataType {
        match self {
            Kind::Int => DataType::Int,
            Kind::Date => DataType::Date,
            Kind::Bool => DataType::Bool,
            Kind::Str => DataType::Str,
            Kind::Float | Kind::Num => DataType::Float,
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
            ][n as usize % 6];
            (k, k)
        }
    }
}

/// Key columns `k0..`, a small Int payload `x` (never NULL; the residual
/// compares it) and the row number `id`.
fn relation(rng: &mut TestRng, kinds: &[Kind], domains: &[u64], rows: usize) -> Arc<Relation> {
    let mut fields: Vec<(String, DataType)> = kinds
        .iter()
        .enumerate()
        .map(|(i, k)| (format!("k{i}"), k.data_type()))
        .collect();
    fields.push(("x".into(), DataType::Int));
    fields.push(("id".into(), DataType::Int));
    let data = (0..rows)
        .map(|r| {
            let mut row: Vec<Value> = kinds
                .iter()
                .zip(domains)
                .map(|(k, d)| k.value(rng, *d))
                .collect();
            row.push(Value::Int(rng.below(4) as i64));
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
/// output near the input size.
fn case(seed: u64, large: bool) -> Case {
    let mut rng = TestRng::deterministic(seed);
    let nkeys = 1 + rng.below(4) as usize;
    let mut pairs: Vec<(Kind, Kind)> = (0..nkeys).map(|_| kind_pair(&mut rng)).collect();
    let mut domains: Vec<u64> = (0..nkeys).map(|_| 2 + rng.below(5)).collect();
    let (nb, np) = if large {
        if matches!(pairs[0].0, Kind::Bool) {
            pairs[0] = (Kind::Int, Kind::Int);
        }
        domains[0] = 3000;
        match rng.below(3) {
            0 => (4096 + rng.below(600) as usize, rng.below(300) as usize),
            1 => (rng.below(300) as usize, 4096 + rng.below(600) as usize),
            _ => (
                4096 + rng.below(600) as usize,
                4096 + rng.below(600) as usize,
            ),
        }
    } else {
        (rng.below(40) as usize, rng.below(40) as usize)
    };
    let bkinds: Vec<Kind> = pairs.iter().map(|p| p.0).collect();
    let pkinds: Vec<Kind> = pairs.iter().map(|p| p.1).collect();
    Case {
        nkeys,
        build: relation(&mut rng, &bkinds, &domains, nb),
        probe: relation(&mut rng, &pkinds, &domains, np),
    }
}

// ------------------------------------------------------------------ plans

#[derive(Clone, Copy, Debug)]
enum Shape {
    Inner { residual: bool },
    Semi { negated: bool, residual: bool },
}

const SHAPES: [Shape; 6] = [
    Shape::Inner { residual: false },
    Shape::Inner { residual: true },
    Shape::Semi {
        negated: false,
        residual: false,
    },
    Shape::Semi {
        negated: false,
        residual: true,
    },
    Shape::Semi {
        negated: true,
        residual: false,
    },
    Shape::Semi {
        negated: true,
        residual: true,
    },
];

fn plan(case: &Case, shape: Shape) -> LogicalPlan {
    let scan = |name: &str, rel: &Relation| {
        LogicalPlan::scan(name, name, intern_fields(&rel.fields).iter().cloned())
    };
    let (left, right) = (scan("p", &case.probe), scan("b", &case.build));
    let on = (0..case.nkeys)
        .map(|i| {
            (
                Expr::qcol("p", format!("k{i}")),
                Expr::qcol("b", format!("k{i}")),
            )
        })
        .collect();
    let residual = |on: bool| {
        on.then(|| Expr::binary(BinaryOp::Lt, Expr::qcol("p", "x"), Expr::qcol("b", "x")))
    };
    match shape {
        Shape::Inner { residual: r } => left.join_on(right, on, residual(r)),
        Shape::Semi {
            negated,
            residual: r,
        } => LogicalPlan::SemiJoin {
            left: Box::new(left),
            right: Box::new(right),
            on,
            residual: residual(r),
            negated,
        },
    }
}

/// Serves `b` and `p`; with `chunk` set, `p` streams in morsels of that many
/// rows, each sliced out of the stored columns so that every morsel keeps
/// the column layouts (as the wire decoder does).
struct Resolver<'a> {
    case: &'a Case,
    chunk: Option<usize>,
}

impl ScanResolver for Resolver<'_> {
    fn scan(&self, relation: &str, wanted: &[Field]) -> Result<ScanOutput> {
        let rel = if relation == "b" {
            &self.case.build
        } else {
            &self.case.probe
        };
        Ok(ScanOutput {
            relation: project_columns_shared(rel, wanted)?,
            edge: None,
            remote: None,
        })
    }

    fn streams(&self, relation: &str) -> bool {
        self.chunk.is_some() && relation == "p"
    }

    fn scan_stream(
        &self,
        relation: &str,
        _wanted: &[Field],
        on_morsel: &mut MorselSink<'_>,
    ) -> Result<Option<StreamedScan>> {
        let (Some(chunk), "p") = (self.chunk, relation) else {
            return Ok(None);
        };
        let rel = &self.case.probe;
        for lo in (0..rel.len()).step_by(chunk) {
            let sel: Vec<u32> = (lo..rel.len().min(lo + chunk)).map(|i| i as u32).collect();
            let cols = rel.columns().iter().map(|c| c.gather(&sel)).collect();
            on_morsel(&Relation::from_columns(rel.fields.clone(), cols, sel.len()))?;
        }
        Ok(Some(StreamedScan {
            nrows: rel.len(),
            edge: None,
            remote: None,
        }))
    }
}

/// Everything one execution lets a caller observe.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Rows in order, `Debug`-rendered: `Int(1)` and `Float(1.0)` differ.
    rows: String,
    scan_units: f64,
    olap_units: f64,
    /// The join's own statistic (the last operator).
    join: OpStat,
}

fn observe(case: &Case, plan: &LogicalPlan, chunk: Option<usize>) -> (Observed, Vec<OpStat>) {
    let resolver = Resolver { case, chunk };
    let mut exec = Execution::new(&resolver);
    exec.collect_ops();
    let out = exec.run(plan).expect("join executes");
    let ops = exec.ops.take().expect("operator stats were requested");
    let observed = Observed {
        rows: format!("{:?}", out.rows().collect::<Vec<_>>()),
        scan_units: exec.scan_units,
        olap_units: exec.olap_units,
        join: *ops.last().expect("a join records its statistic"),
    };
    (observed, ops)
}

// -------------------------------------------------------------- reference

/// The `Vec<Value>` reference: a row's key is its key values, or nothing if
/// any is NULL; two keys match when `Vec<Value>` equality says so.
fn key(rel: &Relation, nkeys: usize, row: usize) -> Option<Vec<Value>> {
    let k: Vec<Value> = (0..nkeys).map(|c| rel.value(row, c)).collect();
    (!k.iter().any(Value::is_null)).then_some(k)
}

fn reference(case: &Case, shape: Shape) -> Observed {
    let (build, probe, nkeys) = (&*case.build, &*case.probe, case.nkeys);
    // Build rows per key, ascending.
    let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for j in 0..build.len() {
        if let Some(k) = key(build, nkeys, j) {
            index.entry(k).or_default().push(j);
        }
    }
    let x = |rel: &Relation, row: usize| rel.value(row, nkeys);
    let passes = |residual: bool, i: usize, j: usize| {
        !residual || matches!((x(probe, i), x(build, j)), (Value::Int(a), Value::Int(b)) if a < b)
    };
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for i in 0..probe.len() {
        let matches = key(probe, nkeys, i).and_then(|k| index.get(&k));
        let candidates = matches.map_or(&[][..], Vec::as_slice);
        match shape {
            Shape::Inner { residual } => {
                for &j in candidates.iter().filter(|&&j| passes(residual, i, j)) {
                    let mut row = probe.row(i);
                    row.extend(build.row(j));
                    rows.push(row);
                }
            }
            Shape::Semi { negated, residual } => {
                if candidates.iter().any(|&j| passes(residual, i, j)) != negated {
                    rows.push(probe.row(i));
                }
            }
        }
    }
    let (b, p, out) = (build.len() as u64, probe.len() as u64, rows.len() as u64);
    let (op, out_units) = match shape {
        Shape::Inner { .. } => ("hash join", out as f64 * weights::JOIN * 0.5),
        Shape::Semi { negated: false, .. } => ("semi join", 0.0),
        Shape::Semi { negated: true, .. } => ("anti join", 0.0),
    };
    Observed {
        rows: format!("{rows:?}"),
        // One term per scan, as the executor adds them (the sum commutes).
        scan_units: p as f64 * weights::SCAN + b as f64 * weights::SCAN,
        olap_units: (p as f64 + b as f64) * weights::JOIN + out_units,
        join: OpStat {
            op,
            rows_in: b + p,
            rows_out: out,
            build_rows: b,
            probe_rows: p,
        },
    }
}

// ------------------------------------------------------------------ tests

/// Every shape at every chunk setting equals the reference; within one
/// probe mode the whole operator list is also the same at every
/// setting (a streamed probe records its scan after the build side's, so
/// the two modes order their scans differently).
fn check(seed: u64, large: bool) -> std::result::Result<(), TestCaseError> {
    let case = case(seed, large);
    for shape in SHAPES {
        let plan = plan(&case, shape);
        let expected = reference(&case, shape);
        for chunks in [&[None][..], &[Some(1), Some(7), Some(4096)][..]] {
            let mut mode_ops: Option<Vec<OpStat>> = None;
            for &chunk in chunks {
                let (observed, ops) = observe(&case, &plan, chunk);
                prop_assert_eq!(
                    &observed,
                    &expected,
                    "seed {} {:?} chunk {:?}",
                    seed,
                    shape,
                    chunk
                );
                let first = mode_ops.get_or_insert_with(|| ops.clone());
                prop_assert_eq!(first, &ops, "seed {} {:?}: operator lists", seed, shape);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn small_joins_match_the_value_keyed_reference(seed in any::<u64>()) {
        check(seed, false)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// At least 4096 rows on one side: more than one morsel at chunk 4096.
    #[test]
    fn large_joins_match_the_value_keyed_reference(seed in any::<u64>()) {
        check(seed, true)?;
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
        let shape = Shape::Inner { residual: false };
        let (observed, _) = observe(&case, &plan(&case, shape), None);
        assert_eq!(observed, reference(&case, shape));
        observed.join.rows_out
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
