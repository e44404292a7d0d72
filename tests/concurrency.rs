//! Concurrency: the federation is shared infrastructure — multiple clients
//! submit cross-database queries against the same engines simultaneously.
//! Catalog locking, per-query object naming, and the transfer ledger must
//! all hold up.

use std::sync::Arc;
use xdb::core::annotate::AnnotateOptions;
use xdb::core::{GlobalCatalog, Xdb, XdbOptions};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::net::{Movement, Purpose, Scenario};
use xdb::tpch::{build_cluster, distributions, ProfileAssignment, TableDist, TpchQuery};

const SF: f64 = 0.002;

#[test]
fn concurrent_submissions_share_one_federation() {
    let cluster = Arc::new(
        build_cluster(
            TableDist::Td1,
            SF,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap(),
    );
    let catalog = Arc::new(GlobalCatalog::discover(&cluster).unwrap());

    // Reference results, computed serially first.
    let reference: Vec<_> = {
        let xdb = Xdb::new(&cluster, &catalog);
        TpchQuery::ALL
            .iter()
            .map(|q| xdb.submit(q.sql()).unwrap().relation)
            .collect()
    };

    // 4 threads × all queries, interleaved on the same cluster. Each
    // thread has its own client (its own query-id counter); ids are
    // globally unique because the counters start from different bases.
    let results: Vec<Vec<xdb::engine::relation::Relation>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cluster = Arc::clone(&cluster);
                let catalog = Arc::clone(&catalog);
                s.spawn(move || {
                    let xdb = Xdb::new(&cluster, &catalog);
                    let mut out = Vec::new();
                    // Rotate the query order per thread to interleave.
                    for i in 0..TpchQuery::ALL.len() {
                        let q = TpchQuery::ALL[(i + t) % TpchQuery::ALL.len()];
                        out.push((q, xdb.submit(q.sql()).unwrap().relation));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap()
                    .into_iter()
                    .map(|(q, rel)| {
                        let idx = TpchQuery::ALL.iter().position(|x| *x == q).unwrap();
                        assert!(
                            rel.same_bag(&reference[idx]),
                            "{} diverged under concurrency",
                            q.name()
                        );
                        rel
                    })
                    .collect()
            })
            .collect()
    });
    assert_eq!(results.len(), 4);

    // No short-lived objects leaked by any thread.
    for node in distributions::NODES {
        let names = cluster.engine(node).unwrap().with_catalog(|c| c.names());
        assert!(
            names.iter().all(|n| !n.starts_with("xdb_q")),
            "{node} leaked {names:?}"
        );
    }
}

#[test]
fn submit_is_observationally_equivalent_to_a_hand_deployed_script() {
    // What `submit` executes must be indistinguishable from deploying the
    // same script by hand, one statement after the other: identical result
    // relations and identical data-movement ledgers, across queries with
    // genuinely independent tasks (Q3/Q5/Q8), all three TPC-H table
    // distributions, and both cost-chosen and all-materialized movements.
    let moved = |cluster: &Cluster| -> Vec<_> {
        cluster
            .ledger
            .snapshot()
            .into_iter()
            .filter(|t| {
                matches!(
                    t.purpose,
                    Purpose::InterDbmsPipeline | Purpose::Materialization
                )
            })
            .map(|t| (t.from, t.to, t.purpose, t.bytes, t.encoded_bytes, t.rows))
            .collect()
    };
    for td in [TableDist::Td1, TableDist::Td2, TableDist::Td3] {
        for q in [TpchQuery::Q3, TpchQuery::Q5, TpchQuery::Q8] {
            for force_movement in [None, Some(Movement::Explicit)] {
                let federation = || {
                    let cluster = build_cluster(
                        td,
                        SF,
                        Scenario::OnPremise,
                        &ProfileAssignment::uniform(EngineProfile::postgres()),
                    )
                    .unwrap();
                    let catalog = GlobalCatalog::discover(&cluster).unwrap();
                    (cluster, catalog)
                };
                let options = XdbOptions {
                    annotate: AnnotateOptions {
                        force_movement,
                        ..Default::default()
                    },
                    ..Default::default()
                };

                let (cluster, catalog) = federation();
                let xdb = Xdb::new(&cluster, &catalog).with_options(options.clone());
                let submitted = xdb.submit(q.sql()).unwrap().relation;
                let submitted_moved = moved(&cluster);

                let (cluster, catalog) = federation();
                let xdb = Xdb::new(&cluster, &catalog).with_options(options);
                let (_, script, _, _) = xdb.plan(q.sql()).unwrap();
                cluster.ledger.clear();
                for step in &script.steps {
                    cluster.execute(step.node.as_str(), &step.sql).unwrap();
                }
                let (by_hand, _) = cluster
                    .query(script.root_node.as_str(), &script.xdb_query)
                    .unwrap();

                let what = format!("{} on {td:?}, forced {force_movement:?}", q.name());
                assert_eq!(submitted, by_hand, "{what}: results diverged");
                assert_eq!(submitted_moved, moved(&cluster), "{what}: ledgers diverged");
            }
        }
    }
}

#[test]
fn one_client_is_safe_across_threads_too() {
    // A single Xdb instance (one shared query-id counter) used from many
    // threads must still hand out unique object names.
    let cluster = Arc::new(
        build_cluster(
            TableDist::Td1,
            SF,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap(),
    );
    let catalog = Arc::new(GlobalCatalog::discover(&cluster).unwrap());
    let xdb = Xdb::new(&cluster, &catalog);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let xdb = &xdb;
            s.spawn(move || {
                for _ in 0..3 {
                    xdb.submit(TpchQuery::Q3.sql()).unwrap();
                }
            });
        }
    });
}
