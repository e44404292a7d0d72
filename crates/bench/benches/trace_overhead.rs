//! Tracing cost on the reproduction's own wall clock. Every submit is
//! traced: the fig9 pipeline runs with the default coarse spans (phases,
//! consults, tasks, DDL, execution), the six-query workload adds
//! per-operator profiling and the Chrome-JSON export, and one warmed
//! submit is timed with coarse spans against one with operator spans.
//! Operator profiling must stay under a few percent.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use xdb_bench::experiments as exp;
use xdb_core::{Xdb, XdbOptions};
use xdb_obs::Telemetry;
use xdb_tpch::{TableDist, TpchQuery};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // Baseline: the fig9 wall clock (coarse spans on — the default path).
    let telemetry = Telemetry::new_handle();
    g.bench_function("fig9_td1_default_tracing", |b| {
        b.iter(|| exp::fig09(TableDist::Td1, 0.002, &telemetry).unwrap())
    });

    // The six-query workload with per-operator profiling and Chrome-JSON
    // rendering on top — the full `repro --trace` cost.
    g.bench_function("fig9_td1_operator_tracing_and_export", |b| {
        b.iter(|| {
            exp::trace_workload(0.002, &telemetry)
                .unwrap()
                .to_chrome_json()
        })
    });

    // Submit-level comparison on one warmed federation: coarse spans vs
    // operator profiling, isolating the per-row bookkeeping.
    let env = exp::onprem(TableDist::Td1, 0.002, &telemetry).unwrap();
    for (label, trace_operators) in [
        ("submit_q8_coarse_spans", false),
        ("submit_q8_operator_spans", true),
    ] {
        let xdb = Xdb::new(&env.cluster, &env.catalog)
            .with_client_node(exp::CLOUD)
            .with_options(XdbOptions {
                trace_operators,
                ..Default::default()
            });
        g.bench_function(label, |b| {
            b.iter(|| {
                let out = xdb.submit(TpchQuery::Q8.sql()).unwrap();
                env.cluster.ledger.clear();
                out
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
