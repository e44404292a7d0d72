//! Concurrency: the federation is shared infrastructure — multiple clients
//! submit cross-database queries against the same engines simultaneously.
//! Catalog locking, per-query object naming, and the transfer ledger must
//! all hold up.

use std::sync::{Arc, Barrier};
use xdb::core::annotate::AnnotateOptions;
use xdb::core::{GlobalCatalog, PhaseBreakdown, QueryOutcome, Xdb, XdbOptions};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::net::{Movement, Purpose, Scenario};
use xdb::obs::SpanKind;
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
    // thread has its own client; object names stay unique because every
    // query id comes from the cluster.
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
    // A single Xdb instance used from many threads must still hand out
    // unique object names.
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

/// Operator tracing travels with the statement, not with the engines: two
/// clients share one federation, one with `trace_operators` and one
/// without, and submit TD1 Q3 / Q5 side by side from two threads that meet
/// at a barrier every round. The untraced client's traces carry no
/// Operator span, the traced client's carry exactly the ones its solo run
/// does, and both see their solo rows and breakdowns.
#[test]
fn operator_tracing_is_per_handle() {
    const ROUNDS: usize = 8;
    let queries = [TpchQuery::Q3, TpchQuery::Q5];
    // Static pricing, so that no round's feedback moves a later plan.
    let options = |trace_operators| XdbOptions {
        trace_operators,
        learned_costs: false,
        ..Default::default()
    };
    let cluster = || {
        build_cluster(
            TableDist::Td1,
            SF,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap()
    };
    // What a client observes of one submit: rows, breakdown, and its
    // Operator spans (none of which names a query id).
    let observe = |o: QueryOutcome| -> (String, PhaseBreakdown, Vec<String>) {
        let operators = o
            .trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Operator)
            .map(|s| {
                format!(
                    "{} @{} {}+{} {:?}",
                    s.name, s.lane, s.start_ms, s.dur_ms, s.attrs
                )
            })
            .collect();
        (format!("{:?}", o.relation), o.breakdown, operators)
    };
    // The solo runs: each query warm (its second submit), alone on a
    // federation of its own.
    let solo = |trace_operators: bool| -> Vec<_> {
        queries
            .iter()
            .map(|q| {
                let cluster = cluster();
                let catalog = GlobalCatalog::discover(&cluster).unwrap();
                let xdb = Xdb::new(&cluster, &catalog).with_options(options(trace_operators));
                xdb.submit(q.sql()).unwrap();
                observe(xdb.submit(q.sql()).unwrap())
            })
            .collect()
    };
    let (solo_untraced, solo_traced) = (solo(false), solo(true));
    assert!(solo_untraced.iter().all(|(_, _, ops)| ops.is_empty()));
    assert!(solo_traced.iter().all(|(_, _, ops)| !ops.is_empty()));

    // One federation; each client plans through a catalog of its own,
    // warmed by one submit of each query.
    let shared = cluster();
    let barrier = Barrier::new(2);
    let runs: Vec<Vec<_>> = std::thread::scope(|s| {
        let threads: Vec<_> = [false, true]
            .into_iter()
            .map(|trace_operators| {
                let (shared, barrier) = (&shared, &barrier);
                s.spawn(move || {
                    let catalog = GlobalCatalog::discover(shared).unwrap();
                    let xdb = Xdb::new(shared, &catalog).with_options(options(trace_operators));
                    for q in queries {
                        xdb.submit(q.sql()).unwrap();
                    }
                    (0..ROUNDS)
                        .map(|round| {
                            let k = (round + usize::from(trace_operators)) % queries.len();
                            barrier.wait();
                            (k, observe(xdb.submit(queries[k].sql()).unwrap()))
                        })
                        .collect()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (runs, solo, traced) in [
        (&runs[0], &solo_untraced, false),
        (&runs[1], &solo_traced, true),
    ] {
        for (round, (k, seen)) in runs.iter().enumerate() {
            let what = format!("{} round {round}, traced {traced}", queries[*k].name());
            assert_eq!(seen.0, solo[*k].0, "{what}: rows");
            assert_eq!(seen.1, solo[*k].1, "{what}: breakdown");
            assert_eq!(seen.2, solo[*k].2, "{what}: operator spans");
        }
    }
}
