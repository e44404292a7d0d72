//! Micro-benchmarks of the substrate layers: parser, binder + logical
//! optimizer, annotation, executor operators, and the TPC-H generator.
//! These guard the real (wall-clock) cost of the reproduction's own code.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use xdb_core::annotate::{AnnotateOptions, Annotator};
use xdb_core::GlobalCatalog;
use xdb_engine::cluster::Cluster;
use xdb_engine::profile::EngineProfile;
use xdb_net::Scenario;
use xdb_sql::bind::bind_select;
use xdb_sql::optimize::{optimize, OptimizeOptions};
use xdb_sql::parse_select;
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchGen, TpchQuery, TpchTable};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_substrate");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // Parser on the largest workload query.
    g.bench_function("parse_q8", |b| {
        b.iter(|| parse_select(TpchQuery::Q8.sql()).unwrap())
    });

    // Binder + logical optimizer (8-relation DP join ordering).
    let cluster = build_cluster(
        TableDist::Td3,
        0.001,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    for t in catalog.table_names() {
        catalog.consult(&cluster, &t).unwrap();
    }
    let q8 = parse_select(TpchQuery::Q8.sql()).unwrap();
    g.bench_function("bind_and_optimize_q8", |b| {
        b.iter(|| {
            let plan = bind_select(&q8, &catalog).unwrap();
            optimize(plan, &catalog, OptimizeOptions::default())
        })
    });

    // Annotation + finalization (Rules 1–4 over TD3).
    let optimized = optimize(
        bind_select(&q8, &catalog).unwrap(),
        &catalog,
        OptimizeOptions::default(),
    );
    g.bench_function("annotate_q8_td3", |b| {
        b.iter(|| {
            Annotator::new(&catalog, &cluster, AnnotateOptions::default())
                .run(&optimized)
                .unwrap()
        })
    });

    // Executor: hash join + aggregation over ~27k lineitem rows.
    let solo = Cluster::lan(&["solo"], EngineProfile::postgres());
    xdb_tpch::distributions::load_all_on(&solo, "solo", 0.01).unwrap();
    g.bench_function("execute_q3_sf001", |b| {
        b.iter(|| solo.query("solo", TpchQuery::Q3.sql()).unwrap())
    });

    // Generator throughput.
    g.bench_function("dbgen_lineitem_sf001", |b| {
        b.iter(|| TpchGen::new(0.01).table(TpchTable::Lineitem))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
