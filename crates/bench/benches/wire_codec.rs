//! Micro-benchmarks of the columnar wire codec (`xdb_net::wire`):
//! encoding a TD-flavoured relation into the compressed frame, decoding it
//! whole, and stream-decoding it in default-size transport morsels. Compare
//! two builds by running both in one session; nothing records or gates
//! these timings.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use xdb_engine::relation::Relation;
use xdb_net::wire;
use xdb_sql::value::{DataType, Value};

const ROWS: usize = 65_536;

/// Deterministic xorshift64* — same generator the scenario loader uses.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// The shapes real edges carry: a small-domain Int key (FOR/bitpack), a
/// wide Int (varint deltas), a Float (raw), a low-cardinality Str
/// (dictionary), a Date, and a skewed Bool (RLE), with a sprinkle of
/// NULLs for the null-run prefix.
fn relation() -> Relation {
    let mut x = 0x9E3779B97F4A7C15u64;
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|_| {
            let k = (next(&mut x) % 997) as i64;
            let v = next(&mut x) as i64;
            vec![
                if k % 53 == 0 {
                    Value::Null
                } else {
                    Value::Int(k)
                },
                Value::Int(v),
                Value::Float((k % 29) as f64 * 0.125),
                Value::str(format!("nation-{}", k % 25)),
                Value::Date(10_957 + (k % 365) as i32),
                Value::Bool(k % 17 != 0),
            ]
        })
        .collect();
    Relation::new(
        vec![
            ("k".to_string(), DataType::Int),
            ("v".to_string(), DataType::Int),
            ("w".to_string(), DataType::Float),
            ("n".to_string(), DataType::Str),
            ("d".to_string(), DataType::Date),
            ("f".to_string(), DataType::Bool),
        ],
        rows,
    )
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_codec");
    g.sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let rel = relation();
    let enc = wire::encode(rel.columns(), rel.len());
    assert!(
        enc.encoded_bytes() * 2 <= rel.wire_bytes(),
        "codec lost its 2x edge on the benchmark relation: {} vs {}",
        enc.encoded_bytes(),
        rel.wire_bytes()
    );

    g.bench_function("wire_encode", |b| {
        b.iter(|| wire::encode(rel.columns(), rel.len()))
    });
    g.bench_function("wire_decode", |b| b.iter(|| wire::decode(&enc)));
    g.bench_function("wire_decode_chunked", |b| {
        b.iter(|| wire::decode_chunked(&enc, 4096))
    });

    g.finish();
    black_box(());
}

criterion_group!(benches, bench);
criterion_main!(benches);
