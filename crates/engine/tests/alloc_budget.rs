//! Allocation budget of a materialization, counted by an allocator of this
//! test binary's own (as `crates/core/tests/alloc_budget.rs` counts the
//! middleware's): a `CREATE TABLE AS` stores its relation and computes no
//! column statistics, which are filled on first read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xdb_engine::{Engine, EngineProfile, NoRemote};
use xdb_tpch::{TpchGen, TpchTable};

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

/// All sixteen columns of half of TPC-H's `lineitem` at sf 0.001,
/// materialized as an explicit-movement edge materializes its input.
const CTAS: &str = "CREATE TABLE xdb_q1_m AS SELECT * FROM lineitem WHERE l_quantity < 25";

/// 252 when every `CREATE TABLE AS` computed distinct counts, min and
/// max of every column it stored.
#[test]
fn a_create_table_as_stays_in_budget() {
    let engine = Engine::new("db1", EngineProfile::postgres());
    let lineitem = TpchGen::new(0.001).table(TpchTable::Lineitem);
    engine.load_table("lineitem", lineitem).unwrap();
    // The first statement creates the engine's metric series.
    engine.execute_sql(CTAS, &NoRemote).unwrap();
    engine
        .execute_sql("DROP TABLE xdb_q1_m", &NoRemote)
        .unwrap();

    let (_, count) = allocations(|| engine.execute_sql(CTAS, &NoRemote).unwrap());
    let rows = engine.consult_stats("xdb_q1_m").unwrap().0;
    assert!(rows > 2000.0, "{rows} rows materialized");
    assert!(count <= 143, "a CREATE TABLE AS made {count} allocations");
}
