//! Micro-benchmarks of the columnar executor kernels: a diagnostic, not a
//! gate. Compare two builds by running both in one session; nothing
//! records or gates these timings.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use xdb_engine::exec::{Execution, MapResolver, MorselSink, ReadShape, ScanOutput, ScanResolver};
use xdb_engine::expr::compile;
use xdb_engine::profile::EngineProfile;
use xdb_engine::relation::Relation;
use xdb_engine::vector;
use xdb_engine::{Engine, NoRemote};
use xdb_sql::algebra::{Field, LogicalPlan, PlanSchema};
use xdb_sql::ast::{BinaryOp, Expr};
use xdb_sql::bind::intern_fields;
use xdb_sql::value::{DataType, Value};

const FACT_ROWS: usize = 65_536;
const DIM_ROWS: i64 = 997;

/// Deterministic xorshift64* — same generator the scenario loader uses.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// fact(k Int, v Int, w Float, s Str) with a few NULL keys so the kernels
/// exercise their null-bitmap paths.
fn fact() -> Relation {
    let mut x = 0x9E3779B97F4A7C15u64;
    let rows: Vec<Vec<Value>> = (0..FACT_ROWS)
        .map(|_| {
            let k = (next(&mut x) % DIM_ROWS as u64) as i64;
            let v = (next(&mut x) % 10_000) as i64;
            vec![
                if v % 53 == 0 {
                    Value::Null
                } else {
                    Value::Int(k)
                },
                Value::Int(v),
                Value::Float((v % 29) as f64 * 0.125),
                Value::str(format!("s{}", v % 11)),
            ]
        })
        .collect();
    Relation::new(
        vec![
            ("k".to_string(), DataType::Int),
            ("v".to_string(), DataType::Int),
            ("w".to_string(), DataType::Float),
            ("s".to_string(), DataType::Str),
        ],
        rows,
    )
}

fn dim() -> Relation {
    let rows: Vec<Vec<Value>> = (0..DIM_ROWS)
        .map(|k| vec![Value::Int(k), Value::str(format!("g{}", k % 13))])
        .collect();
    Relation::new(
        vec![
            ("k".to_string(), DataType::Int),
            ("tag".to_string(), DataType::Str),
        ],
        rows,
    )
}

const PAIR_ROWS: usize = 30_000;

fn pair_fields() -> Vec<(String, DataType)> {
    ["a", "b", "v"]
        .map(|n| (n.to_string(), DataType::Int))
        .to_vec()
}

/// (a Int, b Int, v Int) holding `rows` of the `PAIR_ROWS` distinct (a, b)
/// pairs, visited with `stride` — the shape of partsupp's (partkey,
/// suppkey): neither column is a key, the pair is.
fn pairs(rows: usize, stride: usize) -> Relation {
    let data = (0..rows)
        .map(|j| {
            let i = (j * stride % PAIR_ROWS) as i64;
            vec![
                Value::Int(i / 4),
                Value::Int(i % 4 * 25 + i / 4 % 25),
                Value::Int(j as i64),
            ]
        })
        .collect();
    Relation::new(pair_fields(), data)
}

/// `probe ⋈ ps` on both key columns, `ps` on the build (right) side.
fn composite_join(probe: &str) -> LogicalPlan {
    let scan =
        |name: &str| LogicalPlan::scan(name, name, intern_fields(&pair_fields()).iter().cloned());
    scan(probe).join(
        scan("ps"),
        ["a", "b"]
            .map(|k| (Expr::qcol(probe, k), Expr::qcol("ps", k)))
            .to_vec(),
    )
}

/// Distance between neighbouring keys of the sparse-key join: 997 keys
/// span 26 bits, beyond the direct chain-head table's size rule.
const SPARSE_STRIDE: i64 = 40_009;

/// (k Int, v Int) with `rows` rows whose keys are `0..DIM_ROWS` (in order
/// when `rows == DIM_ROWS`, else drawn at random) times `SPARSE_STRIDE`.
fn sparse(rows: usize) -> Relation {
    let mut x = 0x2545F4914F6CDD1Du64;
    let data = (0..rows)
        .map(|j| {
            let k = match rows == DIM_ROWS as usize {
                true => j as i64,
                false => (next(&mut x) % DIM_ROWS as u64) as i64,
            };
            vec![Value::Int(k * SPARSE_STRIDE), Value::Int(j as i64)]
        })
        .collect();
    Relation::new(
        ["k", "v"].map(|n| (n.to_string(), DataType::Int)).to_vec(),
        data,
    )
}

/// Serves the pair tables, `few` as a stream of one morsel: the small
/// remote intermediate that arrives over an edge and probes a big local
/// table.
struct OneChunk<'a>(&'a MapResolver);

impl ScanResolver for OneChunk<'_> {
    fn streams(&self, relation: &str) -> bool {
        relation == "few"
    }

    /// A map relation is one morsel however it is read.
    fn scan(
        &self,
        relation: &str,
        wanted: &[Field],
        read: ReadShape,
        sink: &mut MorselSink<'_>,
    ) -> xdb_engine::Result<ScanOutput> {
        self.0.scan(relation, wanted, read, sink)
    }
}

/// `rows` strings, each its own allocation (as `dbgen` makes them), cycling
/// through `values`.
fn strings(rows: usize, values: &[&str]) -> (Relation, PlanSchema) {
    let data = (0..rows)
        .map(|i| vec![Value::str(values[i % values.len()])])
        .collect();
    (
        Relation::new(vec![("s".to_string(), DataType::Str)], data),
        PlanSchema::new(vec![Field::new(None::<&str>, "s", DataType::Str)]),
    )
}

fn fact_schema() -> PlanSchema {
    PlanSchema::new(vec![
        Field::new(None::<&str>, "k", DataType::Int),
        Field::new(None::<&str>, "v", DataType::Int),
        Field::new(None::<&str>, "w", DataType::Float),
        Field::new(None::<&str>, "s", DataType::Str),
    ])
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("exec_kernels");
    g.sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let rel = fact();
    let schema = fact_schema();

    // Filter: predicate → selection vector.
    let pred = Expr::binary(
        BinaryOp::And,
        Expr::binary(
            BinaryOp::Lt,
            Expr::col("v"),
            Expr::Literal(Value::Int(5000)),
        ),
        Expr::binary(
            BinaryOp::Gt,
            Expr::col("w"),
            Expr::Literal(Value::Float(1.0)),
        ),
    );
    let pred = compile(&pred, &schema).unwrap();
    g.bench_function("filter_columnar", |b| {
        b.iter(|| vector::filter_sel(&pred, &rel).unwrap())
    });
    // One string column against a constant: `l_returnflag = 'R'` over
    // lineitem at sf 0.005, and Q9's `p_name LIKE '%green%'` over part.
    let (flags, flag_schema) = strings(30_000, &["R", "A", "N"]);
    let eq = Expr::eq(Expr::col("s"), Expr::Literal(Value::str("R")));
    let eq = compile(&eq, &flag_schema).unwrap();
    g.bench_function("filter_str_eq", |b| {
        b.iter(|| vector::filter_sel(&eq, &flags).unwrap())
    });
    let names = [
        "almond antique green lace",
        "blush thistle blue yellow saddle",
        "spring green yellow purple cornsilk",
        "cornflower chocolate smoke dark pale",
        "forest brown coral puff cream",
    ];
    let (names, name_schema) = strings(1000, &names);
    let like = Expr::Like {
        expr: Box::new(Expr::col("s")),
        pattern: "%green%".into(),
        negated: false,
    };
    let like = compile(&like, &name_schema).unwrap();
    g.bench_function("filter_like_contains", |b| {
        b.iter(|| vector::filter_sel(&like, &names).unwrap())
    });
    // Projection arithmetic: v * 3 + k, a typed column loop.
    let proj = Expr::binary(
        BinaryOp::Plus,
        Expr::binary(BinaryOp::Mul, Expr::col("v"), Expr::Literal(Value::Int(3))),
        Expr::col("k"),
    );
    let proj = compile(&proj, &schema).unwrap();
    g.bench_function("project_columnar", |b| {
        b.iter(|| vector::eval_to_column(&proj, &rel).unwrap())
    });
    // Hash join + grouped aggregation, end to end through the executor
    // (typed key columns).
    let e = Engine::new("bench", EngineProfile::postgres());
    e.load_table("fact", fact()).unwrap();
    e.load_table("dim", dim()).unwrap();
    g.bench_function("hash_join_columnar", |b| {
        b.iter(|| {
            e.execute_sql(
                "SELECT f.v, g.tag FROM fact f, dim g WHERE f.k = g.k AND f.v < 200",
                &NoRemote,
            )
            .unwrap()
        })
    });
    // Two Int key columns, executor only: every build pair distinct, every
    // probe row matching exactly one. 30 k × 30 k, and 30 k build × 200
    // probe (TPC-H Q5's customer–supplier join at sf 0.005).
    let mut pair_tables = MapResolver::new();
    pair_tables.insert("ps", pairs(PAIR_ROWS, 1));
    pair_tables.insert("li", pairs(PAIR_ROWS, 7919));
    pair_tables.insert("few", pairs(200, 149));
    for (name, probe) in [
        ("hash_join_composite_key", "li"),
        ("hash_join_composite_key_skewed", "few"),
    ] {
        let plan = composite_join(probe);
        let mut exec = Execution::new(&pair_tables);
        g.bench_function(name, |b| b.iter(|| exec.run(&plan).unwrap()));
    }
    // The skewed join again, its 200-row probe side streamed in one chunk.
    let streamed = OneChunk(&pair_tables);
    let plan = composite_join("few");
    let mut exec = Execution::new(&streamed);
    g.bench_function("hash_join_streamed_small_probe", |b| {
        b.iter(|| exec.run(&plan).unwrap())
    });

    // One Int key whose values lie `SPARSE_STRIDE` apart: the key packs
    // into 26 bits, so the table stays the hashed `u64` arm, 30 k probe
    // rows against 997 build rows, every probe row matching one.
    let mut sparse_tables = MapResolver::new();
    sparse_tables.insert("sd", sparse(DIM_ROWS as usize));
    sparse_tables.insert("sf", sparse(PAIR_ROWS));
    let scan = |name: &str| {
        let fields = ["k", "v"].map(|n| (n.to_string(), DataType::Int));
        LogicalPlan::scan(name, name, intern_fields(&fields).iter().cloned())
    };
    let plan = scan("sf").join(
        scan("sd"),
        vec![(Expr::qcol("sf", "k"), Expr::qcol("sd", "k"))],
    );
    let mut exec = Execution::new(&sparse_tables);
    g.bench_function("hash_join_sparse_key", |b| {
        b.iter(|| exec.run(&plan).unwrap())
    });

    g.bench_function("aggregate_columnar", |b| {
        b.iter(|| {
            e.execute_sql(
                "SELECT f.k, count(*) AS n, sum(f.w) AS sw FROM fact f GROUP BY f.k",
                &NoRemote,
            )
            .unwrap()
        })
    });
    // Multi-column group keys: the u128-packed arm (Int key
    // range-compressed, Str key dictionary-interned).
    g.bench_function("aggregate_multikey_columnar", |b| {
        b.iter(|| {
            e.execute_sql(
                "SELECT f.k, f.s, count(*) AS n, sum(f.w) AS sw FROM fact f GROUP BY f.k, f.s",
                &NoRemote,
            )
            .unwrap()
        })
    });
    g.finish();
    black_box(());
}

criterion_group!(benches, bench);
criterion_main!(benches);
