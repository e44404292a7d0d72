//! The logical plan cache: a text planned on a warm catalog plans exactly as
//! it does the first time on a fresh one, and a plan is rebuilt once the
//! statistics it was built over change.
//!
//! Cold equals warm: for every TPC-H query (`ALL` ∪ `EXTENDED`) on TD1–TD3
//! under the four optimizer shapes (default, no join reordering, no column
//! pruning, bushy joins), 144 cases at sf 0.002, one catalog per table
//! distribution plans each text twice, the second time from its cache, and
//! a fresh catalog plans it once. The two agree on the optimised logical
//! plan, the plan fingerprint, the delegation script (query id
//! normalised), the phase breakdown and the consult counts. The fresh
//! catalog first plans the text with a leading space, a key of its own, so
//! that both sides consult warm caches and only the logical plan cache
//! tells them apart. One catalog serves all four shapes, so a key without
//! the optimizer options hands one shape another's plan.
//!
//! Invalidation: an `INSERT` into a table a query reads makes the next plan
//! of that query bind anew, over the new row count, and plan as a fresh
//! catalog does over the changed data (the twelve queries on TD1–TD3, 36
//! cases). Together about 3 s in a debug build on a 2-vCPU host.

use std::sync::Arc;
use xdb_core::annotate::plan_fingerprint;
use xdb_core::global::LogicalEntry;
use xdb_core::{GlobalCatalog, PhaseBreakdown, Xdb, XdbOptions};
use xdb_engine::cluster::Cluster;
use xdb_engine::profile::EngineProfile;
use xdb_net::Scenario;
use xdb_sql::ast::Expr;
use xdb_sql::display::{render_expr_string, Dialect};
use xdb_sql::stats::StatsProvider;
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

const SF: f64 = 0.002;

fn federation(td: TableDist) -> Cluster {
    build_cluster(
        td,
        SF,
        Scenario::OnPremise,
        &ProfileAssignment::uniform(EngineProfile::postgres()),
    )
    .unwrap()
}

fn queries() -> impl Iterator<Item = TpchQuery> {
    TpchQuery::ALL.into_iter().chain(TpchQuery::EXTENDED)
}

/// The four optimizer shapes, by name.
fn shapes() -> [(&'static str, XdbOptions); 4] {
    let with = |f: fn(&mut XdbOptions)| {
        let mut o = XdbOptions::default();
        f(&mut o);
        o
    };
    [
        ("default", XdbOptions::default()),
        ("no_join_reorder", with(|o| o.no_join_reorder = true)),
        ("no_column_pruning", with(|o| o.no_column_pruning = true)),
        ("bushy_joins", with(|o| o.bushy_joins = true)),
    ]
}

/// What one `Xdb::plan` of a text shows, and the cache entry it planned
/// from.
struct View {
    entry: Arc<LogicalEntry>,
    fingerprint: String,
    script: String,
    breakdown: PhaseBreakdown,
    consults: u64,
}

impl View {
    fn assert_eq(&self, other: &View, case: &str) {
        assert_eq!(self.entry.plan, other.entry.plan, "{case}: logical plan");
        assert_eq!(self.entry.tables, other.entry.tables, "{case}: tables");
        assert_eq!(
            self.entry.node_count, other.entry.node_count,
            "{case}: plan nodes"
        );
        assert_eq!(self.fingerprint, other.fingerprint, "{case}: fingerprint");
        assert_eq!(self.script, other.script, "{case}: script");
        assert_eq!(self.breakdown, other.breakdown, "{case}: breakdown");
        assert_eq!(self.consults, other.consults, "{case}: consults");
    }
}

fn plan(cluster: &Cluster, catalog: &GlobalCatalog, sql: &str, options: &XdbOptions) -> View {
    let (delegation, script, breakdown, consults) = Xdb::new(cluster, catalog)
        .with_options(options.clone())
        .plan(sql)
        .unwrap();
    let entry = catalog
        .logical_plan(sql, options.optimize_options())
        .expect("a planned text is kept");
    // Query ids differ between catalogs sharing a federation.
    let id = script.query_id;
    let script = format!("{script:?}")
        .replace(&format!("xdb_q{id}_"), "xdb_q#_")
        .replace(&format!("query_id: {id},"), "query_id: #,");
    View {
        entry,
        fingerprint: plan_fingerprint(&delegation),
        script,
        breakdown,
        consults,
    }
}

/// `sql`'s first plan on a fresh catalog whose consultation caches were
/// warmed by the same text under another key.
fn fresh(cluster: &Cluster, sql: &str, options: &XdbOptions) -> View {
    let catalog = GlobalCatalog::discover(cluster).unwrap();
    plan(cluster, &catalog, &format!(" {sql}"), options);
    let key = options.optimize_options();
    assert!(catalog.logical_plan(sql, key).is_none());
    plan(cluster, &catalog, sql, options)
}

#[test]
fn a_warm_plan_equals_a_fresh_catalogs_first() {
    let mut cases = 0;
    for td in TableDist::ALL {
        let cluster = federation(td);
        let warm = GlobalCatalog::discover(&cluster).unwrap();
        for q in queries() {
            for (shape, options) in shapes() {
                let case = format!("{}/{}/{shape}", q.name(), td.name());
                let first = plan(&cluster, &warm, q.sql(), &options);
                let repeat = plan(&cluster, &warm, q.sql(), &options);
                assert!(
                    Arc::ptr_eq(&first.entry, &repeat.entry),
                    "{case}: the repeat is planned from the cache"
                );
                repeat.assert_eq(&fresh(&cluster, q.sql(), &options), &case);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 144);
}

/// Run, on `node`, one `INSERT INTO table` of `copies` copies of its first
/// row; returns the statement, its rows elided.
fn insert_copies(cluster: &Cluster, node: &str, table: &str, copies: usize) -> String {
    let (first, _) = cluster
        .execute(node, &format!("SELECT * FROM {table} LIMIT 1"))
        .unwrap()
        .into_rows()
        .unwrap();
    let values: Vec<String> = (0..first.width())
        .map(|c| render_expr_string(&Expr::lit(first.value(0, c)), Dialect::Generic))
        .collect();
    let row = format!("({})", values.join(", "));
    let sql = format!(
        "INSERT INTO {table} VALUES {}",
        vec![row.as_str(); copies].join(", ")
    );
    cluster.execute(node, &sql).unwrap();
    format!("INSERT INTO {table} VALUES {row}, … ({copies} rows)")
}

/// Each query's smallest table grows elevenfold (by at most 3 000 rows);
/// 12 of the 36 plans move, so a stale plan also shows as a plan unlike
/// the fresh catalog's.
#[test]
fn an_insert_makes_the_next_plan_bind_over_the_new_rows() {
    let options = XdbOptions::default();
    let mut moved = 0;
    for td in TableDist::ALL {
        let cluster = federation(td);
        let warm = GlobalCatalog::discover(&cluster).unwrap();
        for q in queries() {
            let case = format!("{}/{}", q.name(), td.name());
            plan(&cluster, &warm, q.sql(), &options);
            let before = plan(&cluster, &warm, q.sql(), &options).entry;
            let rows = |t: &String| warm.table_rows(t).unwrap();
            let table = before
                .tables
                .iter()
                .min_by(|a, b| rows(a).total_cmp(&rows(b)))
                .unwrap();
            let had = rows(table);
            let node = warm.location(table).unwrap().as_str();
            let copies = (10 * had as usize).min(3000);
            let insert = insert_copies(&cluster, node, table, copies);
            let after = plan(&cluster, &warm, q.sql(), &options).entry;
            assert!(
                !Arc::ptr_eq(&before, &after) && after.epoch > before.epoch,
                "{case}: `{insert}` left the plan of epoch {} in place",
                before.epoch
            );
            assert_eq!(rows(table), had + copies as f64, "{case}");
            moved += usize::from(after.plan != before.plan);
            let repeat = plan(&cluster, &warm, q.sql(), &options);
            assert!(Arc::ptr_eq(&after, &repeat.entry), "{case}");
            repeat.assert_eq(&fresh(&cluster, q.sql(), &options), &case);
        }
    }
    assert_eq!(moved, 12);
}

#[test]
fn a_failed_plan_is_not_kept() {
    let cluster = federation(TableDist::Td1);
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    let key = XdbOptions::default().optimize_options();
    for sql in [
        "SELECT * FROM nothere",
        "SELECT nothere FROM nation",
        "SELEC 1",
        "DROP TABLE nation",
    ] {
        let xdb = Xdb::new(&cluster, &catalog);
        assert!(xdb.plan(sql).is_err(), "{sql}");
        assert!(xdb.plan(sql).is_err(), "{sql}");
        assert!(catalog.logical_plan(sql, key).is_none(), "{sql}");
    }
}
