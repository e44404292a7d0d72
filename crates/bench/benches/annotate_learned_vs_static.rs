//! Planning-path overhead of learned cost profiles: `Xdb::plan` (no
//! execution) with static pricing vs a populated profile store. The timed
//! loop plans a text the catalog has planned before, so it takes the
//! optimised logical plan from the catalog's logical plan cache and times
//! consultation, annotation and script building; parse, bind and logical
//! optimisation run only in the warm-up. The learned path adds a handful
//! of BTreeMap lookups per candidate — this group keeps that delta
//! visible so profile-store growth can't silently tax every planning
//! cycle. Compare two builds by running both in one session; nothing
//! records or gates these timings.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use xdb_core::{CostProfiles, GlobalCatalog, Xdb, XdbOptions};
use xdb_engine::profile::EngineProfile;
use xdb_net::{Movement, NodeId, Scenario};
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

/// A profile store shaped like a long-running deployment's: samples at
/// every granularity for every TD1 edge, so lookups hit the deepest
/// (per-shape) table — the most work the learned path ever does.
fn populated_profiles() -> CostProfiles {
    let mut p = CostProfiles::default();
    let nodes = ["db1", "db2", "db3", "cloud"];
    for (i, from) in nodes.iter().enumerate() {
        for (j, to) in nodes.iter().enumerate() {
            if i == j {
                continue;
            }
            for m in [Movement::Implicit, Movement::Explicit] {
                for s in 0..16 {
                    p.observe_wire(from, to, m, 0.2 + 0.05 * (s as f64 + i as f64 + j as f64));
                }
            }
        }
        for s in 0..16 {
            p.observe_compute(from, 0.8 + 0.02 * (s as f64 + i as f64));
        }
    }
    p
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("annotate_learned_vs_static");
    g.sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let mut cluster = build_cluster(
        TableDist::Td1,
        0.002,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    cluster.topology.add_cloud_node(NodeId::new("cloud"));
    let catalog = GlobalCatalog::discover(&cluster).unwrap();

    for (tag, learned) in [("static", false), ("learned", true)] {
        if learned {
            catalog.set_profiles(populated_profiles());
        } else {
            catalog.set_profiles(CostProfiles::default());
        }
        let xdb = Xdb::new(&cluster, &catalog)
            .with_client_node("cloud")
            .with_options(XdbOptions {
                learned_costs: learned,
                freeze_profiles: true,
                ..Default::default()
            });
        // Warm the consult caches once so the loop times annotation, not
        // first-touch metadata probes (criterion's warm-up fills the
        // logical plan cache).
        xdb.plan(TpchQuery::Q3.sql()).unwrap();
        for q in [TpchQuery::Q3, TpchQuery::Q8] {
            let name = format!("plan_{}_{}", q.name().to_lowercase(), tag);
            g.bench_function(&name, |b| b.iter(|| xdb.plan(black_box(q.sql())).unwrap()));
        }
    }

    g.finish();
    black_box(());
}

criterion_group!(benches, bench);
criterion_main!(benches);
