//! Micro-benchmarks of the text round trip every delegated task goes
//! through: `tokenize`, `parse_statement`, `render_statement`,
//! `bind_select` and `optimize`, once over the six TPC-H queries as the
//! middleware sees them and once over the statements of their TD3
//! delegation scripts as the engines see them. A diagnostic: nothing gates
//! on it. For an A/B build this target once per commit
//! (`cargo bench --no-run --bench sql_frontend`) and alternate the two
//! executables.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use xdb_core::{GlobalCatalog, Xdb};
use xdb_engine::cluster::Cluster;
use xdb_engine::profile::EngineProfile;
use xdb_net::Scenario;
use xdb_sql::algebra::LogicalPlan;
use xdb_sql::ast::{SelectStmt, Statement};
use xdb_sql::bind::bind_select;
use xdb_sql::display::{render_statement, Dialect};
use xdb_sql::lexer::tokenize;
use xdb_sql::optimize::{optimize, OptimizeOptions};
use xdb_sql::parse_statement;
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

/// Every statement a TD3 submit of the six queries sends, with the node it
/// goes to. The DDL steps are run as they are collected, so afterwards each
/// engine's catalog holds the views and foreign tables the view bodies of
/// later steps bind against.
fn deploy_scripts(cluster: &Cluster, catalog: &GlobalCatalog) -> Vec<(String, String)> {
    let xdb = Xdb::new(cluster, catalog);
    let mut sent = Vec::new();
    for q in TpchQuery::ALL {
        let (_, script, _, _) = xdb.plan(q.sql()).expect("TPC-H query plans");
        for step in &script.steps {
            cluster
                .execute(step.node.as_str(), &step.sql)
                .expect("script step runs");
            sent.push((step.node.to_string(), step.sql.clone()));
        }
        sent.push((script.root_node.to_string(), script.xdb_query.clone()));
        sent.extend(
            script
                .cleanup
                .iter()
                .map(|(node, sql)| (node.to_string(), sql.clone())),
        );
    }
    sent
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sql_frontend");
    g.sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let cluster = build_cluster(
        TableDist::Td3,
        0.001,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .expect("TD3 cluster builds");
    let catalog = GlobalCatalog::discover(&cluster).expect("catalog discovers");
    for table in catalog.table_names() {
        catalog.consult(&cluster, &table).expect("consult");
    }
    let queries: Vec<&str> = TpchQuery::ALL.iter().map(|q| q.sql()).collect();
    let script = deploy_scripts(&cluster, &catalog);

    let parse = |sql: &str| parse_statement(sql).expect("statement parses");
    let query_asts: Vec<Statement> = queries.iter().map(|sql| parse(sql)).collect();
    let script_asts: Vec<Statement> = script.iter().map(|(_, sql)| parse(sql)).collect();
    let selects: Vec<&SelectStmt> = query_asts
        .iter()
        .map(|s| match s {
            Statement::Select(s) => &**s,
            other => panic!("not a SELECT: {other:?}"),
        })
        .collect();
    // The view bodies, each with the engine that validates and later binds it.
    let view_bodies: Vec<(&str, &SelectStmt)> = script
        .iter()
        .zip(&script_asts)
        .filter_map(|((node, _), ast)| match ast {
            Statement::CreateView { query, .. } => Some((node.as_str(), &**query)),
            _ => None,
        })
        .collect();
    let bind_view = |node: &str, body: &SelectStmt| -> LogicalPlan {
        cluster
            .engine(node)
            .expect("node exists")
            .with_catalog(|c| bind_select(body, c))
            .expect("view body binds")
    };
    let bound_queries: Vec<LogicalPlan> = selects
        .iter()
        .map(|s| bind_select(s, &catalog).expect("query binds"))
        .collect();
    let bound_views: Vec<(&str, LogicalPlan)> = view_bodies
        .iter()
        .map(|&(node, body)| (node, bind_view(node, body)))
        .collect();

    g.bench_function("tokenize/queries", |b| {
        b.iter(|| {
            for sql in &queries {
                black_box(tokenize(sql).expect("lexes").len());
            }
        })
    });
    g.bench_function("tokenize/td3_scripts", |b| {
        b.iter(|| {
            for (_, sql) in &script {
                black_box(tokenize(sql).expect("lexes").len());
            }
        })
    });
    g.bench_function("parse_statement/queries", |b| {
        b.iter(|| {
            for sql in &queries {
                black_box(parse(sql));
            }
        })
    });
    g.bench_function("parse_statement/td3_scripts", |b| {
        b.iter(|| {
            for (_, sql) in &script {
                black_box(parse(sql));
            }
        })
    });
    g.bench_function("render_statement/queries", |b| {
        b.iter(|| {
            for ast in &query_asts {
                black_box(render_statement(ast, Dialect::PostgresLike));
            }
        })
    });
    g.bench_function("render_statement/td3_scripts", |b| {
        b.iter(|| {
            for ast in &script_asts {
                black_box(render_statement(ast, Dialect::PostgresLike));
            }
        })
    });
    g.bench_function("bind_select/queries", |b| {
        b.iter(|| {
            for s in &selects {
                black_box(bind_select(s, &catalog).expect("query binds"));
            }
        })
    });
    g.bench_function("bind_select/td3_view_bodies", |b| {
        b.iter(|| {
            for &(node, body) in &view_bodies {
                black_box(bind_view(node, body));
            }
        })
    });
    g.bench_function("optimize/queries", |b| {
        b.iter(|| {
            for plan in &bound_queries {
                black_box(optimize(plan.clone(), &catalog, OptimizeOptions::default()));
            }
        })
    });
    g.bench_function("optimize/td3_view_bodies", |b| {
        b.iter(|| {
            for (node, plan) in &bound_views {
                let engine = cluster.engine(node).expect("node exists");
                black_box(
                    engine.with_catalog(|c| optimize(plan.clone(), c, OptimizeOptions::default())),
                );
            }
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
