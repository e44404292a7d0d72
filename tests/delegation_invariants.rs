//! Structural invariants of delegation plans and failure-injection tests
//! for the delegation engine, across all evaluated queries and table
//! distributions.

use xdb::core::annotate::{AnnotateOptions, Annotator, PlacementPolicy};
use xdb::core::plan::DelegationPlan;
use xdb::core::{GlobalCatalog, Xdb, XdbOptions};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::engine::EngineError;
use xdb::net::{NodeId, Scenario};
use xdb::sql::algebra::LogicalPlan;
use xdb::sql::bind::bind_select;
use xdb::sql::optimize::{optimize, OptimizeOptions};
use xdb::sql::parse_select;
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

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
    catalog.clear_placeholders();
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

/// Failure injection: a name collision makes a delegation DDL fail
/// mid-deployment; submit must return the error and leave no short-lived
/// objects behind.
#[test]
fn failed_delegation_cleans_up() {
    let (cluster, catalog) = federation(TableDist::Td1);
    let xdb = Xdb::new(&cluster, &catalog);
    // Plan once to learn the names the next query will use (the cluster
    // numbers its queries sequentially), then squat on the root view name.
    let (plan, script, _, _) = xdb.plan(TpchQuery::Q3.sql()).unwrap();
    let root_node = plan.task(plan.root).dbms.clone();
    let squatted = script
        .steps
        .iter()
        .rev()
        .find(|s| s.node == root_node)
        .unwrap()
        .sql
        .clone();
    // Extract the view name from "CREATE VIEW <name> AS ...", then squat
    // on the *next* query id's name.
    let observed = squatted.split_whitespace().nth(2).unwrap().to_string();
    let qid = script.query_id;
    let squatter = observed.replace(&format!("_q{qid}_"), &format!("_q{}_", qid + 1));
    cluster
        .execute(
            root_node.as_str(),
            &format!("CREATE TABLE {squatter} (x BIGINT)"),
        )
        .unwrap();
    let err = xdb.submit(TpchQuery::Q3.sql());
    assert!(err.is_err(), "expected delegation failure");
    // Everything else was rolled back: only the squatter remains.
    for node in xdb::tpch::NODES {
        let names = cluster.engine(node).unwrap().with_catalog(|c| c.names());
        let leaked: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("xdb_q") && **n != squatter)
            .collect();
        assert!(leaked.is_empty(), "{node} leaked {leaked:?}");
    }
    // After removing the obstruction, the same query succeeds again.
    cluster
        .execute(root_node.as_str(), &format!("DROP TABLE {squatter}"))
        .unwrap();
    xdb.submit(TpchQuery::Q3.sql()).unwrap();
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
