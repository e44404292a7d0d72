//! Allocation budget of a metric update, counted by an allocator of this
//! test binary's own: an update to a series that exists finds it by hash
//! and compares it in place, so it builds no key and allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xdb_obs::metrics::{Metric, MetricRegistry};

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator neither allocates nor outlives the thread.
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

/// 400 when every update rendered its series' key into a new `String`: one
/// allocation per update, labelled or not.
#[test]
fn updating_an_existing_series_allocates_nothing() {
    let r = MetricRegistry::new();
    let hit = [("result", "hit")];
    let engine = [("engine", "db1")];
    let query = [("query", "Q8"), ("td", "TD3")];
    let update = || {
        r.counter_add("consult.probes", &hit, 1.0);
        r.counter_add("ddl.statements", &[], 1.0);
        r.gauge_set("ddl.objects_live", &engine, 3.0);
        // 5 and 6 share the histogram's (4, 8] bucket.
        r.observe("latency_ms", &query, 5.0);
    };
    update();
    let ((), count) = allocations(|| {
        for _ in 0..100 {
            update();
        }
    });
    assert_eq!(count, 0, "100 rounds of four updates");
    assert_eq!(r.len(), 4);
    assert_eq!(r.value("consult.probes", &hit), 101.0);
    assert_eq!(r.high_water("ddl.objects_live", &engine), 3.0);
    let Some(Metric::Histogram(h)) = r.get("latency_ms", &query) else {
        panic!("histogram missing");
    };
    assert_eq!(h.count, 101);
}

/// A new series is the one update that allocates: its name and labels.
#[test]
fn a_new_series_allocates() {
    let r = MetricRegistry::new();
    let ((), count) = allocations(|| r.counter_add("c", &[("k", "v")], 1.0));
    assert!(count > 0);
}
