//! Structural invariants of delegation plans and failure-injection tests
//! for the delegation engine, across all evaluated queries and table
//! distributions.

#[path = "../crates/core/tests/common/canonical.rs"]
mod canonical;

use canonical::canonical;
use xdb::core::annotate::{plan_fingerprint, AnnotateOptions, Annotator, PlacementPolicy};
use xdb::core::delegation::DdlStep;
use xdb::core::plan::DelegationPlan;
use xdb::core::{GlobalCatalog, QueryOutcome, Xdb, XdbOptions};
use xdb::engine::cluster::{Cluster, FaultSite};
use xdb::engine::profile::EngineProfile;
use xdb::engine::relation::Relation;
use xdb::engine::EngineError;
use xdb::net::{NodeId, Scenario, Topology};
use xdb::sql::algebra::LogicalPlan;
use xdb::sql::bind::bind_select;
use xdb::sql::optimize::{optimize, OptimizeOptions};
use xdb::sql::parse_select;
use xdb::tpch::{
    build_cluster, ProfileAssignment, TableDist, TpchGen, TpchQuery, TpchTable, NODES,
};

const SF: f64 = 0.002;

fn federation(td: TableDist) -> (Cluster, GlobalCatalog) {
    let cluster = build_cluster(
        td,
        SF,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap();
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    for t in catalog.table_names() {
        catalog.consult(&cluster, &t).unwrap();
    }
    (cluster, catalog)
}

fn annotate(
    cluster: &Cluster,
    catalog: &GlobalCatalog,
    sql: &str,
    options: AnnotateOptions,
) -> DelegationPlan {
    let bound = bind_select(&parse_select(sql).unwrap(), catalog).unwrap();
    let optimized = optimize(bound, catalog, OptimizeOptions::default());
    Annotator::new(catalog, cluster, options)
        .run(&optimized)
        .unwrap()
        .plan
}

/// Every scan in every task must reside on the task's DBMS — tasks never
/// read another DBMS's base tables directly (that is what placeholders are
/// for).
#[test]
fn tasks_scan_only_local_tables() {
    for td in TableDist::ALL {
        let (cluster, catalog) = federation(td);
        for q in TpchQuery::ALL {
            let plan = annotate(&cluster, &catalog, q.sql(), AnnotateOptions::default());
            for task in &plan.tasks {
                let mut stack = vec![&task.plan];
                while let Some(p) = stack.pop() {
                    if let LogicalPlan::Scan { relation, .. } = p {
                        let home = catalog.location(relation).unwrap();
                        assert_eq!(
                            home,
                            &task.dbms,
                            "{} {}: task t{} on {} scans {} (home {})",
                            td.name(),
                            q.name(),
                            task.id,
                            task.dbms,
                            relation,
                            home
                        );
                    }
                    stack.extend(p.children());
                }
            }
        }
    }
}

/// With pruning, cross-database operators are placed only on DBMSes that
/// host base data of the query (never on an uninvolved third party).
#[test]
fn pruned_placement_stays_on_input_dbmses() {
    for td in TableDist::ALL {
        let (cluster, catalog) = federation(td);
        for q in TpchQuery::ALL {
            let plan = annotate(&cluster, &catalog, q.sql(), AnnotateOptions::default());
            let homes: Vec<String> = q
                .tables()
                .iter()
                .map(|ab| {
                    let t = xdb::tpch::TpchTable::from_abbrev(ab).unwrap();
                    td.node_of(t).to_string()
                })
                .collect();
            for task in &plan.tasks {
                assert!(
                    homes.contains(&task.dbms.as_str().to_string()),
                    "{} {}: task on uninvolved node {}",
                    td.name(),
                    q.name(),
                    task.dbms
                );
            }
        }
    }
}

/// The edge set is exactly the placeholder references: every non-root task
/// has exactly one consumer, the root has none, and the DAG is connected.
#[test]
fn plan_dag_is_well_formed() {
    let (cluster, catalog) = federation(TableDist::Td3);
    for q in TpchQuery::ALL {
        let plan = annotate(&cluster, &catalog, q.sql(), AnnotateOptions::default());
        for task in &plan.tasks {
            let out_degree = plan.edges.iter().filter(|e| e.from == task.id).count();
            if task.id == plan.root {
                assert_eq!(out_degree, 0, "{}: root has a consumer", q.name());
            } else {
                assert_eq!(
                    out_degree,
                    1,
                    "{}: task t{} has {} consumers",
                    q.name(),
                    task.id,
                    out_degree
                );
            }
        }
        // Edges only point forward (bottom-up task ids are topological).
        for e in &plan.edges {
            assert!(e.from < e.to, "{}: edge t{} -> t{}", q.name(), e.from, e.to);
        }
    }
}

/// The per-subquery relations of a decomposition never contain
/// placeholders.
fn assert_subqueries_pure(plan: &DelegationPlan) {
    for task in &plan.tasks {
        if task.id == plan.root {
            continue;
        }
        let mut stack = vec![&task.plan];
        while let Some(p) = stack.pop() {
            assert!(
                !matches!(p, LogicalPlan::Placeholder { .. }),
                "sub-query task t{} contains a placeholder",
                task.id
            );
            stack.extend(p.children());
        }
    }
}

/// Mediator decomposition: the root lands on the mediator and hosts every
/// placeholder; sub-query tasks are placeholder-free.
#[test]
fn mediator_policy_produces_mw_shape() {
    let (cluster, catalog) = federation(TableDist::Td1);
    for q in TpchQuery::ALL {
        let plan = annotate(
            &cluster,
            &catalog,
            q.sql(),
            AnnotateOptions {
                placement: PlacementPolicy::Mediator("mediator".into()),
                ..Default::default()
            },
        );
        assert_eq!(plan.task(plan.root).dbms.as_str(), "mediator");
        assert_subqueries_pure(&plan);
    }
}

/// A placement candidate that is not an engine — here a cloud node of the
/// topology, admitted by `allowed_placements` — fails the query at
/// annotation with an error naming the node and the allowed set. Nothing
/// was deployed: every engine holds as many live objects as before.
#[test]
fn non_engine_candidate_is_an_annotation_error() {
    let (mut cluster, catalog) = federation(TableDist::Td1);
    cluster.topology.add_cloud_node(NodeId::new("cloud"));
    let telemetry = cluster.telemetry();
    let live = || -> Vec<f64> {
        xdb::tpch::NODES
            .iter()
            .map(|n| {
                telemetry
                    .metrics
                    .value("ddl.objects_live", &[("engine", n)])
            })
            .collect()
    };
    let baseline = live();
    let xdb = Xdb::new(&cluster, &catalog).with_options(XdbOptions {
        annotate: AnnotateOptions {
            allowed_placements: Some(vec![NodeId::new("cloud"), NodeId::new("db3")]),
            ..Default::default()
        },
        ..Default::default()
    });
    let err = xdb.submit(TpchQuery::Q3.sql()).unwrap_err();
    assert_eq!(
        err,
        EngineError::Catalog(
            "placement candidate \"cloud\" is not an engine of the cluster \
             (allowed_placements: [\"cloud\", \"db3\"])"
                .to_string()
        )
    );
    assert_eq!(live(), baseline);
}

/// Failure injection: the creation of the root view fails mid-deployment;
/// submit must return the error, naming that statement, and leave no
/// short-lived objects behind.
#[test]
fn failed_delegation_cleans_up() {
    let (cluster, catalog) = federation(TableDist::Td1);
    let xdb = Xdb::new(&cluster, &catalog);
    // Plan once to learn the script the next query will run (the cluster
    // numbers its queries sequentially): its last statement on the root
    // node creates the root view.
    let (plan, script, _, _) = xdb.plan(TpchQuery::Q3.sql()).unwrap();
    let root_node = plan.task(plan.root).dbms.clone();
    let on_root = |s: &&DdlStep| s.node == root_node;
    let index = script.steps.iter().rposition(|s| on_root(&s)).unwrap();
    let nth = script.steps[..index].iter().filter(on_root).count();
    cluster.fail_once(root_node.as_str(), nth, FaultSite::Statement);
    let err = xdb.submit(TpchQuery::Q3.sql()).unwrap_err();
    let EngineError::Statement(failed) = err else {
        panic!("{err}");
    };
    let at = (failed.query_id, failed.node.as_str(), failed.index);
    assert_eq!(at, (script.query_id + 1, root_node.as_str(), index));
    assert!(
        matches!(failed.cause, EngineError::Execution(_)),
        "{failed:?}"
    );
    assert_eq!(failed.cleanup, []);
    // Everything was rolled back.
    for node in xdb::tpch::NODES {
        let names = cluster.engine(node).unwrap().with_catalog(|c| c.names());
        let leaked: Vec<&String> = names.iter().filter(|n| n.starts_with("xdb_q")).collect();
        assert!(leaked.is_empty(), "{node} leaked {leaked:?}");
    }
    // The fault fired once: the same query succeeds again.
    xdb.submit(TpchQuery::Q3.sql()).unwrap();
}

/// A federation of `td` on fresh engines and a fresh catalog, its tables
/// copied from `tables` (generated once per distribution).
fn fresh_federation(td: TableDist, tables: &[(TpchTable, Relation)]) -> (Cluster, GlobalCatalog) {
    let mut cluster = Cluster::new(Topology::lan(&NODES));
    for node in NODES {
        cluster.add_engine(node, EngineProfile::postgres());
    }
    for (table, rows) in tables {
        let engine = cluster.engine(td.node_of(*table)).unwrap();
        engine.load_table(table.name(), rows.clone()).unwrap();
    }
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    (cluster, catalog)
}

/// Everything a submit of `sql` shows: its query id, plan, rows,
/// breakdown, canonical trace and history record, and what its federation
/// learned from it (the learned cost profiles).
fn submit_fingerprint(o: &QueryOutcome, sql: &str, catalog: &GlobalCatalog) -> String {
    let rows = &o.relation;
    let mut fp = format!("q{} {}\n", o.query_id, plan_fingerprint(&o.delegation));
    for i in 0..rows.len() {
        for c in 0..rows.width() {
            fp.push_str(&format!("{:?}|", rows.value(i, c)));
        }
        fp.push('\n');
    }
    fp.push_str(&format!("{:?}\n{}", o.breakdown, canonical(&o.trace)));
    fp.push_str(&o.record(sql).to_json());
    fp + &catalog.profiles_snapshot().describe()
}

/// The failure invariant, enumerated: for every TPC-H query on TD1–TD3 and
/// every statement its submit sends (each step of its script, then the XDB
/// query), a fresh federation whose that statement fails once returns the
/// failure naming the query, the statement's index and its node; tears
/// down everything the query created; learns nothing from it; and then
/// answers the same SQL exactly as a fresh federation that planned it once
/// (the failed submit's planning used a query id) and then submitted it.
/// 174 (query, statement) pairs at sf 0.002: TD1 52, TD2 58, TD3 64 (each
/// query as a fresh federation plans it; submitted one after the other on
/// one federation, learned costs re-plan some and the scripts hold 172).
#[test]
fn every_failing_statement_is_undone_and_forgotten() {
    let mut pairs = Vec::new();
    for td in TableDist::ALL {
        let gen = TpchGen::new(SF);
        let tables: Vec<_> = TpchTable::ALL.map(|t| (t, gen.table(t))).into();
        let mut count = 0;
        for q in TpchQuery::ALL {
            let sql = q.sql();
            let (cluster, catalog) = fresh_federation(td, &tables);
            let xdb = Xdb::new(&cluster, &catalog);
            let (_, script, _, _) = xdb.plan(sql).unwrap();
            let reference = submit_fingerprint(&xdb.submit(sql).unwrap(), sql, &catalog);
            let statements = script.steps.iter().map(|s| &s.node);
            for (index, node) in statements.chain([&script.root_node]).enumerate() {
                let what = format!("{} on {td:?}, statement {index} on {node}", q.name());
                let (cluster, catalog) = fresh_federation(td, &tables);
                let live = || -> Vec<f64> {
                    let metrics = &cluster.telemetry().metrics;
                    let live = |n| metrics.value("ddl.objects_live", &[("engine", n)]);
                    NODES.iter().map(|n| live(n)).collect()
                };
                let baseline = live();
                let nth = script.steps[..index]
                    .iter()
                    .filter(|s| &s.node == node)
                    .count();
                cluster.fail_once(node.as_str(), nth, FaultSite::Statement);
                let xdb = Xdb::new(&cluster, &catalog);
                let err = xdb.submit(sql).unwrap_err();
                let EngineError::Statement(failed) = err else {
                    panic!("{what}: {err}");
                };
                let at = (failed.query_id, failed.node.as_str(), failed.index);
                assert_eq!(at, (script.query_id, node.as_str(), index), "{what}");
                let cause = &failed.cause;
                assert!(
                    matches!(cause, EngineError::Execution(_)),
                    "{what}: {cause}"
                );
                assert_eq!(failed.cleanup, [], "{what}");
                assert_eq!(live(), baseline, "{what}");
                for n in NODES {
                    let names = cluster.engine(n).unwrap().with_catalog(|c| c.names());
                    let left: Vec<_> = names.iter().filter(|n| n.starts_with("xdb_q")).collect();
                    assert!(left.is_empty(), "{what}: {n} kept {left:?}");
                }
                assert_eq!(catalog.profiles_snapshot().samples(), 0, "{what}");
                let again = xdb.submit(sql).unwrap();
                let again = submit_fingerprint(&again, sql, &catalog);
                assert!(again == reference, "{what}: the next submit differs");
                count += 1;
            }
        }
        pairs.push(count);
    }
    assert_eq!(pairs, [52, 58, 64]);
}

/// A cleanup DROP that fails after a successful submit is not silent: the
/// one teardown counts it (`ddl.drop_failures{engine}`) and logs one Warn
/// event naming the node and the DROP of the object it leaked; the submit
/// still answers, and so does the next one, beside the leaked object.
#[test]
fn a_failing_cleanup_drop_after_a_successful_submit_is_reported() {
    let gen = TpchGen::new(SF);
    let tables: Vec<_> = TpchTable::ALL.map(|t| (t, gen.table(t))).into();
    let sql = TpchQuery::Q3.sql();
    let (planner, planner_catalog) = fresh_federation(TableDist::Td1, &tables);
    let planner = Xdb::new(&planner, &planner_catalog);
    let (_, script, _, _) = planner.plan(sql).unwrap();
    let reference = planner.submit(sql).unwrap().relation;
    // The first cleanup DROP is the statement on its node after the
    // script's and the XDB query's.
    let (node, drop) = &script.cleanup[0];
    let nth = script.steps.iter().filter(|s| &s.node == node).count()
        + usize::from(&script.root_node == node);
    let (cluster, catalog) = fresh_federation(TableDist::Td1, &tables);
    cluster.fail_once(node.as_str(), nth, FaultSite::Statement);
    let xdb = Xdb::new(&cluster, &catalog);
    let first = xdb.submit(sql).unwrap();
    assert!(first.relation == reference, "the submit's rows");
    let failures = || {
        let metrics = &cluster.telemetry().metrics;
        metrics.value("ddl.drop_failures", &[("engine", node.as_str())])
    };
    assert_eq!(failures(), 1.0);
    let events = cluster.telemetry().events.snapshot();
    let reported: Vec<_> = events
        .iter()
        .filter(|e| e.target == "engine.teardown")
        .collect();
    assert_eq!(reported.len(), 1, "{reported:?}");
    assert_eq!(reported[0].level, xdb::obs::Level::Warn);
    let field = |k: &str| {
        let f = reported[0].fields.iter().find(|(key, _)| key == k);
        f.map(|(_, v)| v.as_str())
    };
    assert_eq!(field("node"), Some(node.as_str()));
    assert_eq!(field("sql"), Some(drop.as_str()));
    let names = cluster
        .engine(node.as_str())
        .unwrap()
        .with_catalog(|c| c.names());
    let leaked: Vec<_> = names.iter().filter(|n| n.starts_with("xdb_q")).collect();
    assert_eq!(leaked.len(), 1, "{node} kept {leaked:?}");
    assert!(drop.contains(leaked[0].as_str()), "{drop} names {leaked:?}");
    let again = xdb.submit(sql).unwrap();
    assert!(again.relation == reference, "the next submit's rows");
    assert_eq!(failures(), 1.0, "the next submit dropped everything");
}

/// Dead connector mid-execution: queries against a vanished server fail
/// with a Remote error, not a panic, and the client's cleanup still runs.
#[test]
fn vanished_server_reported_cleanly() {
    let (cluster, catalog) = federation(TableDist::Td1);
    // Point a foreign table at a server that does not exist and query
    // through it.
    cluster
        .execute(
            "db1",
            "CREATE FOREIGN TABLE ghost (x BIGINT) SERVER db99 OPTIONS (remote 'nope')",
        )
        .unwrap();
    let err = cluster.query("db1", "SELECT * FROM ghost").unwrap_err();
    assert!(matches!(err, xdb::engine::EngineError::Remote(_)));
    // The federation still works for real queries afterwards.
    let xdb = Xdb::new(&cluster, &catalog);
    xdb.submit(TpchQuery::Q3.sql()).unwrap();
}
