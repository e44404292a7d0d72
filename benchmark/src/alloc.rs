//! Counting global allocator: a wrapper around [`System`] that counts
//! heap allocations (alloc + alloc_zeroed + realloc) and the bytes they
//! request, over all threads.
//!
//! Allocation traffic is this program's host-cost driver and, unlike the
//! host clock, it repeats within 0.02% from run to run, so the benchmark
//! gates it at 1% (`allocs_per_query`, `alloc_kb_per_query`).
//!
//! The reference kernel shares the heap but must not show up in those
//! counts: it runs under [`uncounted`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator neither allocates nor outlives the thread.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// The allocator installed by `lib.rs`.
pub struct Counting;

#[inline]
fn note(size: usize) {
    if !UNCOUNTED.try_with(Cell::get).unwrap_or(true) {
        // Statistics only: they publish no other data.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl Counts {
    /// The counters now (all threads, since process start).
    pub fn now() -> Counts {
        Counts {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Run `f` with this thread's allocations left out of the counters.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let before = UNCOUNTED.with(|u| u.replace(true));
    let out = f();
    UNCOUNTED.with(|u| u.set(before));
    out
}
