//! Heterogeneous federation (Fig 10 of the paper): MariaDB on db2, Hive on
//! db3, PostgreSQL elsewhere — plus the cost-unit calibration XDB performs
//! before comparing EXPLAIN costs across vendors (footnote 6).
//!
//! Run with: `cargo run --release --example heterogeneous`

use xdb::baselines::{Mediator, MediatorConfig};
use xdb::core::calibration::Calibration;
use xdb::core::{GlobalCatalog, Xdb};
use xdb::net::Scenario;
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

fn main() {
    println!("Building the Fig 10 setup: MariaDB@db2, Hive@db3, PostgreSQL elsewhere.");
    let mut cluster = build_cluster(
        TableDist::Td1,
        0.02,
        Scenario::OnPremise,
        &ProfileAssignment::heterogeneous(),
    )
    .expect("cluster");
    cluster.topology.add_node("mediator".into());

    // Calibrate cost units across vendors before optimizing.
    let calibration = Calibration::probe(&cluster).expect("calibration");
    println!("\n== Cost-unit calibration (Zhu & Larson style probing) ==");
    for node in cluster.node_names() {
        let vendor = cluster.engine(&node).unwrap().profile.vendor;
        println!(
            "  {node} ({vendor}): factor {:.3} to {}'s unit",
            calibration.factor(&node).unwrap_or(1.0),
            calibration.reference_node().unwrap_or("?")
        );
    }

    let catalog = GlobalCatalog::discover(&cluster).expect("catalog");
    println!(
        "\n{:<6} {:>12} {:>12}  speedup",
        "query", "xdb (s)", "presto4 (s)"
    );
    let mut speedups = Vec::new();
    for q in TpchQuery::ALL {
        let xdb = Xdb::new(&cluster, &catalog);
        let x = xdb.submit(q.sql()).expect("xdb");
        let presto = Mediator::new(&cluster, &catalog, MediatorConfig::presto("mediator", 4))
            .submit(q.sql())
            .expect("presto");
        assert!(presto.relation.same_bag(&x.relation));
        let speedup = presto.record.total_ms / x.breakdown.exec_ms;
        speedups.push(speedup);
        println!(
            "{:<6} {:>12.2} {:>12.2}  {:>6.1}x",
            q.name(),
            x.breakdown.exec_ms / 1000.0,
            presto.record.total_ms / 1000.0,
            speedup
        );
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!(
        "\nAverage speedup {avg:.1}x — the paper reports ~2x here: XDB's gains shrink\n\
         when the underlying engines themselves are weak at cross-database joins\n\
         (MariaDB's OLAP factor, Hive's start-up), yet out-of-the-box RDBMSes still\n\
         beat a specialized distributed MW system."
    );
}
