//! TPC-H federation: the paper's evaluation setup in miniature.
//!
//! Distributes the eight TPC-H tables over seven DBMSes (Table III, TD1),
//! then runs the six evaluation queries through XDB and the three
//! baselines, reporting simulated runtimes and measured network transfer.
//!
//! Run with: `cargo run --release --example tpch_federation [scale]`

use xdb::baselines::{Mediator, MediatorConfig, Sclera};
use xdb::core::{GlobalCatalog, Xdb};
use xdb::engine::profile::EngineProfile;
use xdb::net::Scenario;
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    println!("Loading TPC-H at scale factor {scale} over TD1 (Table III)...");
    let mut cluster = build_cluster(
        TableDist::Td1,
        scale,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .expect("cluster");
    cluster.topology.add_node("mediator".into());
    let catalog = GlobalCatalog::discover(&cluster).expect("catalog");

    println!(
        "\n{:<6} {:>12} {:>12} {:>12} {:>12}   {:>14} {:>14}",
        "query",
        "xdb (s)",
        "garlic (s)",
        "presto4 (s)",
        "sclera (s)",
        "xdb moved (B)",
        "MW fetched (B)"
    );
    for q in TpchQuery::ALL {
        cluster.ledger.clear();
        let xdb = Xdb::new(&cluster, &catalog);
        let x = xdb.submit(q.sql()).expect("xdb");
        let xdb_bytes = cluster.ledger.total_bytes();

        cluster.ledger.clear();
        let garlic = Mediator::new(&cluster, &catalog, MediatorConfig::garlic("mediator"))
            .submit(q.sql())
            .expect("garlic");
        let presto = Mediator::new(&cluster, &catalog, MediatorConfig::presto("mediator", 4))
            .submit(q.sql())
            .expect("presto");
        let sclera = Sclera::new(&cluster, &catalog, "mediator")
            .submit(q.sql())
            .expect("sclera");
        assert!(
            garlic.relation.same_bag(&x.relation),
            "{} diverged",
            q.name()
        );
        assert!(presto.relation.same_bag(&x.relation));
        assert!(sclera.relation.same_bag(&x.relation));
        println!(
            "{:<6} {:>12.2} {:>12.2} {:>12.2} {:>12.2}   {:>14} {:>14}",
            q.name(),
            x.breakdown.exec_ms / 1000.0,
            garlic.record.total_ms / 1000.0,
            presto.record.total_ms / 1000.0,
            sclera.record.total_ms / 1000.0,
            xdb_bytes,
            garlic.record.moved_bytes().0,
        );
    }
    println!("\nAll four systems returned identical results for every query.");
    println!("XDB's advantage grows with the data: it never centralizes intermediates.");
}
