//! Allocation budgets of the middleware's per-query questions, counted by
//! an allocator of this test binary's own (as `crates/sql/tests/alloc_budget.rs`
//! counts the frontend's): a consultation-cache hit lowers, renders and
//! allocates nothing, lowering a delegation plan's task bodies to SQL
//! moves what it no longer needs instead of cloning it, a folding
//! window's plan-cache hit shares the cached plan instead of copying it,
//! a repeated text is not parsed, bound or optimised again, and a warm
//! submit's trace keeps time and nothing its outcome already holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xdb_core::{ConsultCache, GlobalCatalog, Probe, QueryServer, SessionOptions, Submission, Xdb};
use xdb_engine::cluster::Cluster;
use xdb_net::{NodeId, Scenario};
use xdb_sql::algebra::plan_to_select;
use xdb_sql::bind::bind_select;
use xdb_sql::optimize::{optimize, OptimizeOptions};
use xdb_sql::parse_select;
use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator neither allocates nor outlives the thread.
    // Per thread: the harness runs the tests of this binary side by side.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (alloc, alloc_zeroed, realloc) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// TD3 at sf 0.001 with every table consulted once, as preparation leaves
/// it.
fn td3() -> (Cluster, GlobalCatalog) {
    let cluster = build_cluster(
        TableDist::Td3,
        0.001,
        Scenario::OnPremise,
        &ProfileAssignment::heterogeneous(),
    )
    .unwrap();
    let catalog = GlobalCatalog::discover(&cluster).unwrap();
    for table in catalog.table_names() {
        catalog.consult(&cluster, &table).unwrap();
    }
    (cluster, catalog)
}

/// Before probes were keyed by structure, a plan probe's hit lowered and
/// rendered the probe first (191 allocations for Q8's optimised plan), a
/// metadata probe formatted its text (1), and the catalog's metadata hit
/// formatted that text and its metric's key (2).
#[test]
fn a_consult_cache_hit_allocates_nothing() {
    let (cluster, catalog) = td3();
    let select = parse_select(TpchQuery::Q8.sql()).unwrap();
    let plan = optimize(
        bind_select(&select, &catalog).unwrap(),
        &catalog,
        OptimizeOptions::default(),
    );
    let cache = ConsultCache::new();
    let node = NodeId::new("db1");
    cache.store(&node, &Probe::plan(&plan), 3);
    cache.store(&node, &Probe::metadata("lineitem"), 3);
    let (hits, count) = allocations(|| {
        [
            cache.lookup(&node, &Probe::plan(&plan), 3),
            cache.lookup(&node, &Probe::metadata("lineitem"), 3),
        ]
    });
    assert_eq!(hits, [true, true]);
    assert_eq!(count, 0, "a plan probe and a metadata probe that hit");

    // The catalog's own metadata consult, metric included: the first hit
    // creates the `consult.probes{result="hit"}` series.
    assert!(catalog.consult(&cluster, "lineitem").unwrap());
    let (hit, count) = allocations(|| catalog.consult(&cluster, "lineitem").unwrap());
    assert!(hit);
    assert_eq!(count, 0, "GlobalCatalog::consult that hits");
}

/// 249 when the join arm cloned both sides' output lists, and a derived
/// table and the final projection cloned the expressions of the outputs
/// they replace.
#[test]
fn lowering_q8s_td3_task_bodies_stays_in_budget() {
    let (cluster, catalog) = td3();
    let (plan, ..) = Xdb::new(&cluster, &catalog)
        .plan(TpchQuery::Q8.sql())
        .unwrap();
    assert!(plan.tasks.len() >= 5, "{}", plan.describe());
    let (lowered, count) = allocations(|| {
        plan.tasks
            .iter()
            .map(|t| plan_to_select(&t.plan).unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(lowered.len(), plan.tasks.len());
    assert!(
        count <= 238,
        "lowering Q8's TD3 task bodies made {count} allocations"
    );
}

/// 255 when a plan-cache hit deep-copied the cached delegation plan and
/// its fragment keys, a node name was a `String` of its own, and a trace
/// copied every attribute key and every counter name it bumped; 62 while
/// the fan-out's final-result transfer was also drawn as a Transfer span.
#[test]
fn a_plan_cache_hit_stays_in_budget() {
    let (cluster, catalog) = td3();
    let server = QueryServer::new(&cluster, &catalog, SessionOptions::default());
    let q8 = Submission::new("t", TpchQuery::Q8.sql());
    let once = [q8.clone()];
    let twice = [q8.clone(), q8];
    // Warm-up: the first windows create the metric series.
    server.run(&twice).unwrap();
    server.run(&once).unwrap();

    // The second submission of a window plans through the cache and folds
    // fully onto the first one's result.
    let (report, alone) = allocations(|| server.run(&once).unwrap());
    assert_eq!(report.plan_cache_hits, 0);
    let (report, both) = allocations(|| server.run(&twice).unwrap());
    assert_eq!(report.plan_cache_hits, 1);
    let hit = both - alone;
    assert!(
        hit <= 49,
        "a plan-cache hit and its fan-out made {hit} allocations"
    );
}

/// A repeated `Xdb::plan` of a text takes its optimised logical plan from
/// the catalog's cache: no parse, bind or logical optimisation. 942
/// allocations; 1 097 while each placement's Consult span carried its
/// decision as text (`chosen`, `paid_consults`, one `cand.{j}` per
/// candidate), and 1 589 when every plan parsed, bound and optimised (Q8's
/// parse is budgeted at 113 and its bind and optimise at 344 by
/// `crates/sql/tests/alloc_budget.rs`).
#[test]
fn a_warm_plan_skips_the_front_end() {
    let (cluster, catalog) = td3();
    let xdb = Xdb::new(&cluster, &catalog);
    // The first plan fills the cache, the consultation caches and the
    // metric series.
    xdb.plan(TpchQuery::Q8.sql()).unwrap();
    let (_, count) = allocations(|| xdb.plan(TpchQuery::Q8.sql()).unwrap());
    assert!(
        count <= 942,
        "a warm plan of Q8 on TD3 made {count} allocations"
    );
}

/// A warm `Xdb::submit` of Q8 on TD3: the plan comes from the catalog's
/// cache, every probe hits, and the script deploys, runs and is dropped.
/// 3 280 allocations; 3 724 while the trace also drew one Transfer span
/// per ledger record, wrote each placement's decision as text and kept
/// per-node row and byte counters.
#[test]
fn a_warm_submit_stays_in_budget() {
    let (cluster, catalog) = td3();
    let xdb = Xdb::new(&cluster, &catalog);
    // The first submits fill the plan cache, the consultation caches, the
    // learned profiles and the metric series; the ledger is emptied after
    // each, so that it never grows inside the count.
    for _ in 0..3 {
        xdb.submit(TpchQuery::Q8.sql()).unwrap();
        cluster.ledger.clear();
    }
    let (_, count) = allocations(|| xdb.submit(TpchQuery::Q8.sql()).unwrap());
    assert!(
        count <= 3280,
        "a warm submit of Q8 on TD3 made {count} allocations"
    );
}
