//! A federation's telemetry is its own: every series and event one
//! federation records lands on the handle its cluster holds now, and never
//! on another federation's.

use std::sync::Arc;
use xdb::baselines::{Mediator, MediatorConfig};
use xdb::core::{GlobalCatalog, Xdb};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::net::Scenario;
use xdb::obs::{Level, Telemetry};
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

fn federation() -> (Cluster, GlobalCatalog) {
    let cluster = build_cluster(
        TableDist::Td1,
        0.002,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    (cluster, catalog)
}

/// `sql.parse` Warn events on `telemetry` that carry `sql`.
fn parse_warnings(telemetry: &Telemetry, sql: &str) -> usize {
    telemetry
        .events
        .snapshot()
        .iter()
        .filter(|e| e.target == "sql.parse" && e.level == Level::Warn)
        .filter(|e| e.fields.iter().any(|(k, v)| k == "sql" && v == sql))
        .count()
}

/// A handle attached after `discover` receives the consultation probes
/// too: the catalog holds no handle of its own to record them on.
#[test]
fn consult_probes_follow_the_cluster_handle() {
    let (mut cluster, catalog) = federation();
    let shared = Telemetry::new_handle();
    cluster.set_telemetry(Arc::clone(&shared));
    assert!(!catalog.consult(&cluster, "lineitem").unwrap());
    assert!(catalog.consult(&cluster, "lineitem").unwrap());
    let probes = |result| {
        shared
            .metrics
            .value("consult.probes", &[("result", result)])
    };
    assert_eq!((probes("miss"), probes("hit")), (1.0, 1.0));
    Xdb::new(&cluster, &catalog)
        .submit(TpchQuery::Q3.sql())
        .unwrap();
    assert!(probes("hit") > 1.0);
    assert_eq!(
        shared.metrics.value("xdb.queries", &[("status", "ok")]),
        1.0
    );
}

/// A malformed statement through each library entry point that parses
/// caller text logs exactly one `sql.parse` Warn event, on the receiving
/// federation's handle and on no other.
#[test]
fn parse_failures_are_logged_on_the_receiving_federation() {
    let (cluster, catalog) = federation();
    let (other, _) = federation();
    let statement = "SELECT FROM lineitem";
    let script = "SELECT 1 AS one; SELECT FROM lineitem";
    let entries: [(&str, &dyn Fn() -> bool); 4] = [
        (statement, &|| cluster.execute("db1", statement).is_err()),
        (script, &|| cluster.execute_script("db1", script).is_err()),
        (statement, &|| {
            Xdb::new(&cluster, &catalog).submit(statement).is_err()
        }),
        (statement, &|| {
            Mediator::new(&cluster, &catalog, MediatorConfig::garlic("db1"))
                .submit(statement)
                .is_err()
        }),
    ];
    for (k, (sql, submit)) in entries.iter().enumerate() {
        let before = parse_warnings(cluster.telemetry(), sql);
        assert!(submit(), "entry {k} accepted {sql:?}");
        assert_eq!(
            parse_warnings(cluster.telemetry(), sql) - before,
            1,
            "entry {k}"
        );
    }
    let event = cluster
        .telemetry()
        .events
        .snapshot()
        .into_iter()
        .find(|e| e.target == "sql.parse")
        .unwrap();
    assert_eq!(
        event.message,
        "parse error: unexpected keyword FROM in expression"
    );
    assert_eq!(event.fields[0], ("offset".to_string(), "7".to_string()));
    assert!(other.telemetry().events.is_empty());
}
