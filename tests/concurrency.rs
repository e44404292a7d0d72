//! Concurrency: the federation is shared infrastructure — multiple clients
//! submit cross-database queries against the same engines simultaneously.
//! Catalog locking, per-query object naming, and the transfer ledger must
//! all hold up, and what a query did (its plan, its transfers, its probe
//! counts) is its own.

use std::sync::{Arc, Barrier};
use xdb::baselines::{Mediator, MediatorConfig, Sclera};
use xdb::core::annotate::{plan_fingerprint, AnnotateOptions};
use xdb::core::{GlobalCatalog, PhaseBreakdown, QueryOutcome, Xdb, XdbOptions};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::net::{Movement, Purpose, Scenario, Transfer};
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
    // And the transfers the submit owns are the records it appended to the
    // shared ledger, in its order.
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
                let outcome = xdb.submit(q.sql()).unwrap();
                let debug = |t: &Transfer| format!("{t:?}");
                let owned = outcome.transfers.iter().map(debug);
                let ledger = cluster.ledger.snapshot();
                assert!(owned.eq(ledger.iter().map(debug)), "{} on {td:?}", q.name());
                let submitted = outcome.relation;
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

/// Operator tracing and the transport chunk size travel with the
/// statement, not with the engines: two clients share one federation, one
/// untraced at chunk 16 and one traced with unbounded edges (chunk 0), and
/// submit TD1 Q3 / Q5 side by side from two threads that meet at a barrier
/// every round. The untraced client's traces carry no Operator span, the
/// traced client's carry exactly the ones its solo run does, both see their
/// solo rows and breakdowns, and the transport chunks they move together
/// are the sum of their solo runs' (a chunk size one client set for every
/// engine would reach the other's edges).
#[test]
fn operator_tracing_is_per_handle() {
    const ROUNDS: usize = 8;
    let queries = [TpchQuery::Q3, TpchQuery::Q5];
    // (trace_operators, stream_chunk_rows) of the two clients.
    let clients = [(false, 16), (true, 0)];
    // Static pricing, so that no round's feedback moves a later plan.
    let options = |(trace_operators, stream_chunk_rows)| XdbOptions {
        trace_operators,
        stream_chunk_rows,
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
    // federation of its own, with the chunks of its cold and its warm
    // submit.
    let solo = |client| -> Vec<_> {
        queries
            .iter()
            .map(|q| {
                let cluster = cluster();
                let catalog = GlobalCatalog::discover(&cluster).unwrap();
                let xdb = Xdb::new(&cluster, &catalog).with_options(options(client));
                xdb.submit(q.sql()).unwrap();
                let cold = chunks(&cluster);
                let seen = observe(xdb.submit(q.sql()).unwrap());
                (seen, cold, chunks(&cluster) - cold)
            })
            .collect()
    };
    let solos = clients.map(solo);
    assert!(solos[0].iter().all(|((_, _, ops), _, _)| ops.is_empty()));
    assert!(solos[1].iter().all(|((_, _, ops), _, _)| !ops.is_empty()));
    assert!(solos[0][0].2 > solos[1][0].2, "chunk 16 moves more chunks");

    // One federation; each client plans through a catalog of its own,
    // warmed by one submit of each query.
    let shared = cluster();
    let barrier = Barrier::new(2);
    let runs: Vec<Vec<_>> = std::thread::scope(|s| {
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let (shared, barrier) = (&shared, &barrier);
                s.spawn(move || {
                    let catalog = GlobalCatalog::discover(shared).unwrap();
                    let xdb = Xdb::new(shared, &catalog).with_options(options(client));
                    for q in queries {
                        xdb.submit(q.sql()).unwrap();
                    }
                    (0..ROUNDS)
                        .map(|round| {
                            let k = (round + c) % queries.len();
                            barrier.wait();
                            (k, observe(xdb.submit(queries[k].sql()).unwrap()))
                        })
                        .collect()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let mut expected_chunks = 0.0;
    for ((runs, solo), client) in runs.iter().zip(&solos).zip(clients) {
        expected_chunks += solo.iter().map(|(_, cold, _)| cold).sum::<f64>();
        for (round, (k, seen)) in runs.iter().enumerate() {
            let what = format!("{} round {round}, client {client:?}", queries[*k].name());
            let (want, _, warm) = &solo[*k];
            assert_eq!(seen.0, want.0, "{what}: rows");
            assert_eq!(seen.1, want.1, "{what}: breakdown");
            assert_eq!(seen.2, want.2, "{what}: operator spans");
            expected_chunks += warm;
        }
    }
    assert_eq!(chunks(&shared), expected_chunks, "transport chunks");
}

/// Transport chunks a federation moved so far, over every purpose.
fn chunks(cluster: &Cluster) -> f64 {
    let snapshot = cluster.telemetry().metrics.snapshot();
    snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("net.chunks"))
        .map(|(_, v)| v)
        .sum()
}

/// An XDB submit leaves no setting behind on the engines: Garlic and Sclera
/// run after a submit at chunk 16 move exactly the transport chunks they
/// move on a fresh federation.
#[test]
fn a_submit_leaves_no_chunk_size_behind() {
    let q = TpchQuery::Q3;
    let baselines = |cluster: &Cluster, catalog: &GlobalCatalog| -> [f64; 2] {
        let before = chunks(cluster);
        Mediator::new(cluster, catalog, MediatorConfig::garlic("mediator"))
            .submit(q.sql())
            .unwrap();
        let garlic = chunks(cluster);
        Sclera::new(cluster, catalog, "mediator")
            .submit(q.sql())
            .unwrap();
        [garlic - before, chunks(cluster) - garlic]
    };
    let federation = || {
        let mut cluster = build_cluster(
            TableDist::Td1,
            SF,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap();
        cluster.topology.add_node("mediator".into());
        let catalog = GlobalCatalog::discover(&cluster).unwrap();
        (cluster, catalog)
    };
    let (fresh, catalog) = federation();
    let want = baselines(&fresh, &catalog);
    let (used, xdb_catalog) = federation();
    Xdb::new(&used, &xdb_catalog)
        .with_options(XdbOptions {
            stream_chunk_rows: 16,
            ..Default::default()
        })
        .submit(q.sql())
        .unwrap();
    // The baselines plan through a catalog of their own, as on `fresh`.
    let catalog = GlobalCatalog::discover(&used).unwrap();
    assert_eq!(baselines(&used, &catalog), want, "[garlic, sclera] chunks");
}

/// One TPC-H federation at [`SF`] for `td`, with a `mediator` node for the
/// baselines, and its catalog.
fn federation(td: TableDist) -> (Cluster, GlobalCatalog) {
    let mut cluster = build_cluster(
        td,
        SF,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    cluster.topology.add_node("mediator".into());
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    (cluster, catalog)
}

/// Static pricing: no query's feedback moves a later plan.
fn static_pricing() -> XdbOptions {
    XdbOptions {
        learned_costs: false,
        ..Default::default()
    }
}

/// A plan owns its placeholder estimates. On one federation per TD, four
/// threads plan each of the six queries in turn, 60 rounds (1 440
/// `Xdb::plan` calls per TD), through one shared catalog, and every plan
/// has the fingerprint of the serial plan of its query.
#[test]
fn concurrent_plans_are_the_serial_plans() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 60;
    let queries = TpchQuery::ALL;
    for td in [TableDist::Td1, TableDist::Td2, TableDist::Td3] {
        let (cluster, catalog) = federation(td);
        let xdb = Xdb::new(&cluster, &catalog).with_options(static_pricing());
        let fingerprint = |q: TpchQuery| plan_fingerprint(&xdb.plan(q.sql()).unwrap().0);
        let serial = queries.map(fingerprint);
        let differ: usize = std::thread::scope(|s| {
            let threads: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (fingerprint, serial) = (&fingerprint, &serial);
                    s.spawn(move || {
                        let plans = (0..ROUNDS * queries.len()).map(|i| (i + t) % queries.len());
                        plans
                            .filter(|&k| fingerprint(queries[k]) != serial[k])
                            .count()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        let plans = THREADS * ROUNDS * queries.len();
        assert_eq!(differ, 0, "{td:?}: {differ} of {plans} plans differ");
    }
}

/// What a submit says it moved: its transfers and the edges of its cost
/// observation and of its history record.
type Moved = (Vec<String>, Vec<String>, Vec<String>);

fn moved(outcome: &QueryOutcome, sql: &str) -> Moved {
    let debug = |t: &dyn std::fmt::Debug| format!("{t:?}");
    let transfers = outcome.transfers.iter().map(|t| debug(t)).collect();
    let cost = outcome.cost.decisions.iter().map(|d| debug(&d.edges));
    let record = outcome.record(sql);
    let edges = record.edges.iter().map(|e| debug(e)).collect();
    (transfers, cost.collect(), edges)
}

/// A submit owns its transfers. On one TD1 federation, four threads submit
/// each of the six queries in turn, five rounds (120 submits), and every
/// submit's transfers, cost-observation edges and history edges are those
/// of the serial warm submit of its query (warm, so that it plans from the
/// cached state the concurrent submits find). The query ids all have three
/// digits, so that the control messages, whose DDL names the query, have
/// their serial sizes.
#[test]
fn concurrent_submits_own_their_transfers() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 5;
    let queries = TpchQuery::ALL;
    let (cluster, catalog) = federation(TableDist::Td1);
    while cluster.next_query_id() < 99 {}
    let xdb = Xdb::new(&cluster, &catalog).with_options(static_pricing());
    let warm = |q: TpchQuery| {
        xdb.submit(q.sql()).unwrap();
        xdb.submit(q.sql()).unwrap()
    };
    let serial: Vec<Moved> = queries.map(|q| moved(&warm(q), q.sql())).into();
    // One history edge per transfer, and every submit moved.
    assert!(serial
        .iter()
        .all(|m| m.0.len() > 1 && m.2.len() == m.0.len()));
    let submits: Vec<(usize, QueryOutcome)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let xdb = &xdb;
                s.spawn(move || {
                    let submits = (0..ROUNDS * queries.len()).map(|i| (i + t) % queries.len());
                    let submit = |k: usize| (k, xdb.submit(queries[k].sql()).unwrap());
                    submits.map(submit).collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    assert!(submits.iter().all(|(_, o)| o.query_id < 1000));
    let differ: Vec<String> = submits
        .iter()
        .filter(|(k, o)| moved(o, queries[*k].sql()) != serial[*k])
        .map(|(k, o)| format!("{} (query {})", queries[*k].name(), o.query_id))
        .collect();
    let n = submits.len();
    assert!(
        differ.is_empty(),
        "{} of {n} differ: {differ:?}",
        differ.len()
    );
}

/// A baseline counts its own probes. Garlic submits Q3 on a TD1 federation
/// while three threads plan every query through the same catalog, and
/// each Garlic record counts one metadata probe per table of the
/// federation (Garlic consults them all and prices nothing).
#[test]
fn a_garlic_record_counts_only_its_own_probes() {
    const ROUNDS: usize = 12;
    let (cluster, catalog) = federation(TableDist::Td1);
    let tables = catalog.table_names().len() as u64;
    let planning = std::sync::atomic::AtomicBool::new(true);
    let garlic = std::thread::scope(|s| {
        for _ in 0..3 {
            let (cluster, catalog, planning) = (&cluster, &catalog, &planning);
            s.spawn(move || {
                let xdb = Xdb::new(cluster, catalog).with_options(static_pricing());
                while planning.load(std::sync::atomic::Ordering::Relaxed) {
                    for q in TpchQuery::ALL {
                        xdb.plan(q.sql()).unwrap();
                    }
                }
            });
        }
        let garlic = Mediator::new(&cluster, &catalog, MediatorConfig::garlic("mediator"));
        let submit = |_| garlic.submit(TpchQuery::Q3.sql()).unwrap().record;
        let records: Vec<_> = (0..ROUNDS).map(submit).collect();
        planning.store(false, std::sync::atomic::Ordering::Relaxed);
        records
    });
    for (round, r) in garlic.iter().enumerate() {
        let probes = (r.consult_hits + r.consult_misses, r.consult_roundtrips);
        assert_eq!(probes, (tables, 0), "round {round}");
    }
}
