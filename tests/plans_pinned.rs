//! The logical plans the system builds, held to a constant: what the
//! middleware binds and optimises for the twelve TPC-H queries under every
//! join-ordering option, and what each receiving engine binds and
//! optimises for every view body, `CREATE TABLE AS` query and root query of
//! their TD1–TD3 delegation scripts, cost-chosen and with every edge forced
//! explicit. A rewrite of `sql::bind` or `sql::optimize` that changes any
//! node, name, type, predicate or join order moves the hash.

use std::hash::Hasher;
use xdb::core::{GlobalCatalog, Xdb, XdbOptions};
use xdb::engine::cluster::Cluster;
use xdb::engine::profile::EngineProfile;
use xdb::net::{Movement, Scenario};
use xdb::sql::ast::SelectStmt;
use xdb::sql::bind::bind_select;
use xdb::sql::hash::Fnv;
use xdb::sql::optimize::{optimize, JoinShape, OptimizeOptions};
use xdb::sql::{parse_select, parse_statement, Statement};
use xdb::tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

/// Query ids come from a process-global counter: `xdb_q<id>_` → `xdb_q0_`.
fn without_query_id(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("xdb_q") {
        let (head, tail) = rest.split_at(at + "xdb_q".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

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
    without_query_id(&format!("{plan:?}"))
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
        (537, 9_784_866_353_328_299_410),
        "a plan the middleware or an engine builds changed"
    );
}
