//! Geo-distributed federation and metered cloud traffic — the Fig 14
//! scenarios of the paper.
//!
//! Two deployments of the same TPC-H federation:
//! - **on-premise**: the DBMSes share a LAN, the middleware runs on a
//!   managed cloud node, and cloud ingress is what the provider bills;
//! - **geo-distributed**: every DBMS sits in its own datacenter, so every
//!   inter-DBMS byte is billed.
//!
//! Run with: `cargo run --release --example geo_distributed [scale]`

use xdb::baselines::{Mediator, MediatorConfig};
use xdb::core::{GlobalCatalog, Xdb};
use xdb::engine::profile::EngineProfile;
use xdb::net::{NodeId, Purpose, Scenario};
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);

    println!("== Scenario 1: on-premise DBMSes, middleware in the cloud ==");
    let mut onp = build_cluster(
        TableDist::Td1,
        scale,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .expect("cluster");
    onp.topology.add_cloud_node(NodeId::new("cloud"));
    let catalog = GlobalCatalog::discover(&onp).expect("catalog");

    println!(
        "{:<6} {:>16} {:>16} {:>10}",
        "query", "xdb→cloud (B)", "garlic→cloud (B)", "ratio"
    );
    for q in TpchQuery::ALL {
        onp.ledger.clear();
        Xdb::new(&onp, &catalog)
            .with_client_node("cloud")
            .submit(q.sql())
            .expect("xdb");
        let xdb_bytes = onp.ledger.bytes_into(&NodeId::new("cloud"));
        onp.ledger.clear();
        let garlic = Mediator::new(&onp, &catalog, MediatorConfig::garlic("cloud"))
            .submit(q.sql())
            .expect("garlic");
        let (garlic_bytes, _) = garlic.record.moved_bytes();
        println!(
            "{:<6} {:>16} {:>16} {:>9.0}x",
            q.name(),
            xdb_bytes,
            garlic_bytes,
            garlic_bytes as f64 / xdb_bytes.max(1) as f64
        );
    }
    println!("XDB sends the cloud only final results + control messages (Fig 14 ONP).");

    println!("\n== Scenario 2: geo-distributed DBMSes ==");
    let mut geo = build_cluster(
        TableDist::Td1,
        scale,
        Scenario::GeoDistributed,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .expect("cluster");
    geo.topology.add_cloud_node(NodeId::new("cloud"));
    let catalog = GlobalCatalog::discover(&geo).expect("catalog");
    println!(
        "{:<6} {:>14} {:>14} {:>12}",
        "query", "xdb inter-DC", "garlic (B)", "xdb exec (s)"
    );
    for q in TpchQuery::ALL {
        geo.ledger.clear();
        let out = Xdb::new(&geo, &catalog)
            .with_client_node("cloud")
            .submit(q.sql())
            .expect("xdb");
        let moved = geo.ledger.bytes_for(Purpose::InterDbmsPipeline)
            + geo.ledger.bytes_for(Purpose::Materialization);
        geo.ledger.clear();
        let garlic = Mediator::new(&geo, &catalog, MediatorConfig::garlic("cloud"))
            .submit(q.sql())
            .expect("garlic");
        println!(
            "{:<6} {:>14} {:>14} {:>12.2}",
            q.name(),
            moved,
            garlic.record.moved_bytes().0,
            out.breakdown.exec_ms / 1000.0
        );
    }
    println!(
        "Geo-distribution raises XDB's inter-DC traffic, but it still moves far\n\
         less than any mediator — it only ships pruned, filtered, well-placed\n\
         intermediates (Fig 14 GEO)."
    );
}
