//! The logical plans the system builds, held to a constant: what the
//! middleware binds and optimises for the twelve TPC-H queries under every
//! join-ordering option, and what each receiving engine binds and
//! optimises for every view body, `CREATE TABLE AS` query and root query of
//! their TD1–TD3 delegation scripts, cost-chosen and with every edge forced
//! explicit. A rewrite of `sql::bind` or `sql::optimize` that changes any
//! node, name, type, predicate or join order moves the hash. Each
//! federation numbers its queries from 1, so the `xdb_q<id>_` names are
//! pinned too.
//!
//! The annotator's decisions are held the same way: every placement, every
//! costed candidate with its Eq. 1–3 parts, and the consult accounting,
//! under every placement policy.

use std::fmt::Write as _;
use std::hash::Hasher;
use xdb::core::annotate::{plan_fingerprint, AnnotateOptions, Annotation, PlacementPolicy};
use xdb::core::{Annotator, CostProfiles, GlobalCatalog, Xdb, XdbOptions};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::net::{Movement, NodeId, Scenario};
use xdb::sql::ast::SelectStmt;
use xdb::sql::bind::bind_select;
use xdb::sql::hash::Fnv;
use xdb::sql::optimize::{optimize, JoinShape, OptimizeOptions};
use xdb::sql::{parse_select, parse_statement, Statement};
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

fn queries() -> impl Iterator<Item = TpchQuery> {
    TpchQuery::ALL.into_iter().chain(TpchQuery::EXTENDED)
}

/// The plan `node` builds for `query` against its own catalog, as it does
/// before it runs the statement.
fn engine_plan(cluster: &Cluster, node: &str, query: &SelectStmt) -> String {
    let engine = cluster.engine(node).unwrap();
    let plan = engine.with_catalog(|c| {
        let bound = bind_select(query, c).unwrap_or_else(|e| panic!("{node}: {e}"));
        optimize(bound, c, OptimizeOptions::default())
    });
    format!("{plan:?}")
}

#[test]
fn plans_are_pinned() {
    let mut hash = Fnv::default();
    let mut plans = 0usize;
    for td in [TableDist::Td1, TableDist::Td2, TableDist::Td3] {
        let cluster = build_cluster(
            td,
            0.001,
            Scenario::OnPremise,
            &ProfileAssignment::uniform(EngineProfile::postgres()),
        )
        .unwrap();
        let catalog = GlobalCatalog::discover(&cluster).unwrap();
        for table in catalog.table_names() {
            catalog.consult(&cluster, &table).unwrap();
        }
        // (a) The middleware's plans.
        for q in queries() {
            let select = parse_select(q.sql()).unwrap();
            for join_shape in [JoinShape::LeftDeep, JoinShape::Bushy] {
                for reorder_joins in [true, false] {
                    let options = OptimizeOptions {
                        reorder_joins,
                        prune_columns: true,
                        join_shape,
                    };
                    let bound = bind_select(&select, &catalog).unwrap();
                    let plan = optimize(bound, &catalog, options);
                    hash.write(format!("{plan:?}").as_bytes());
                    plans += 1;
                }
            }
        }
        // (b) The engines' plans, each built while the script is deployed
        // up to the statement that carries it.
        for explicit in [false, true] {
            let mut options = XdbOptions::default();
            if explicit {
                options.annotate.force_movement = Some(Movement::Explicit);
            }
            let xdb = Xdb::new(&cluster, &catalog).with_options(options);
            for q in queries() {
                let (_, script, _, _) = xdb.plan(q.sql()).unwrap();
                for step in &script.steps {
                    let node = step.node.as_str();
                    match parse_statement(&step.sql).unwrap() {
                        Statement::CreateView { query, .. }
                        | Statement::CreateTableAs { query, .. } => {
                            hash.write(engine_plan(&cluster, node, &query).as_bytes());
                            plans += 1;
                        }
                        _ => {}
                    }
                    cluster.execute(node, &step.sql).unwrap();
                }
                let root = parse_select(&script.xdb_query).unwrap();
                hash.write(engine_plan(&cluster, script.root_node.as_str(), &root).as_bytes());
                plans += 1;
                for (node, sql) in &script.cleanup {
                    cluster.execute(node.as_str(), sql).unwrap();
                }
            }
        }
    }
    assert_eq!(
        (plans, hash.finish()),
        (537, 11_935_098_077_522_026_043),
        "a plan the middleware or an engine builds changed"
    );
}

/// A learned store with wire and compute samples on several edges and
/// engines, so that learned pricing moves candidates on every TD.
fn fixed_profiles() -> CostProfiles {
    let mut profiles = CostProfiles::default();
    for _ in 0..40 {
        profiles.observe_wire("db1", "db2", Movement::Implicit, 0.35);
        profiles.observe_wire("db2", "db1", Movement::Explicit, 0.8);
        profiles.observe_wire("db3", "db1", Movement::Implicit, 0.5);
        profiles.observe_compute("db2", 1.6);
        profiles.observe_compute("db5", 0.7);
    }
    profiles
}

/// Every field of an annotation the rest of the system reads, by name, with
/// floats as bits.
fn write_annotation(out: &mut String, ann: &Annotation) {
    let _ = writeln!(
        out,
        "fingerprint={} consults={} cache_hits={}",
        plan_fingerprint(&ann.plan),
        ann.consults,
        ann.cache_hits
    );
    out.push_str(&ann.plan.describe());
    for t in &ann.plan.tasks {
        let _ = writeln!(out, "task t{} est_rows={:x}", t.id, t.est_rows.to_bits());
    }
    for d in &ann.decisions {
        let c = &d.chosen;
        let _ = writeln!(
            out,
            "chosen={}/{}/{} cost={:x} paid_consults={} out_rows={:x}",
            c.dbms,
            c.left_move,
            c.right_move,
            c.cost.to_bits(),
            d.paid_consults,
            d.out_rows.to_bits()
        );
        for side in [&d.left, &d.right] {
            let _ = writeln!(
                out,
                "side={} rows={:x} bytes={:x}",
                side.dbms,
                side.rows.to_bits(),
                side.bytes.to_bits()
            );
        }
        for cand in &d.candidates {
            let p = &cand.components;
            let _ = writeln!(
                out,
                "candidate={}/{}/{} cost={:x} wire={:x},{:x} move={:x},{:x} exec={:x} startup={:x}",
                cand.dbms,
                cand.left_move,
                cand.right_move,
                cand.cost.to_bits(),
                p.wire_left_ms.to_bits(),
                p.wire_right_ms.to_bits(),
                p.move_left_ms.to_bits(),
                p.move_right_ms.to_bits(),
                p.exec_ms.to_bits(),
                p.startup_ms.to_bits()
            );
        }
    }
}

#[test]
fn annotations_are_pinned() {
    let mediator = || PlacementPolicy::Mediator("mediator".into());
    let policies: Vec<AnnotateOptions> = vec![
        AnnotateOptions::default(),
        AnnotateOptions {
            no_pruning: true,
            ..Default::default()
        },
        AnnotateOptions {
            allowed_placements: Some(vec![NodeId::new("db1"), NodeId::new("db2")]),
            ..Default::default()
        },
        AnnotateOptions {
            placement: PlacementPolicy::LeftInput,
            ..Default::default()
        },
        AnnotateOptions {
            placement: mediator(),
            ..Default::default()
        },
        AnnotateOptions {
            placement: mediator(),
            no_colocated_fusion: true,
            ..Default::default()
        },
    ];
    let mut hash = Fnv::default();
    let mut annotations = 0usize;
    for td in [TableDist::Td1, TableDist::Td2, TableDist::Td3] {
        let cluster = build_cluster(
            td,
            0.001,
            Scenario::OnPremise,
            &ProfileAssignment::heterogeneous(),
        )
        .unwrap();
        let catalog = GlobalCatalog::discover(&cluster).unwrap();
        for table in catalog.table_names() {
            catalog.consult(&cluster, &table).unwrap();
        }
        for learned in [CostProfiles::default(), fixed_profiles()] {
            catalog.set_profiles(learned);
            for q in queries() {
                let select = parse_select(q.sql()).unwrap();
                for join_shape in [JoinShape::LeftDeep, JoinShape::Bushy] {
                    let options = OptimizeOptions {
                        join_shape,
                        ..Default::default()
                    };
                    let bound = bind_select(&select, &catalog).unwrap();
                    let plan = optimize(bound, &catalog, options);
                    for policy in &policies {
                        for force_movement in [None, Some(Movement::Explicit)] {
                            let options = AnnotateOptions {
                                force_movement,
                                ..policy.clone()
                            };
                            let ann = Annotator::new(&catalog, &cluster, options)
                                .run(&plan)
                                .unwrap();
                            let mut text = String::new();
                            write_annotation(&mut text, &ann);
                            hash.write(text.as_bytes());
                            annotations += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        (annotations, hash.finish()),
        (1728, 4_463_122_215_918_796_971),
        "a placement decision or its accounting changed"
    );
}
