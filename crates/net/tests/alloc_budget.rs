//! Allocation budget of one dataflow edge through the wire codec, counted
//! by an allocator of this test binary's own (as
//! `crates/engine/tests/alloc_budget.rs` counts an engine's statements):
//! encoding a dense relation allocates each column's payload once, sized
//! by its plan, and stream-decoding it allocates the morsels and, for raw
//! strings, one string per row, but nothing per row for the null runs or
//! the bit-packed bodies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use xdb_net::wire::{self, Codec};
use xdb_sql::column::{Column, TypedCol};

thread_local! {
    // Const-initialised and without a destructor, so reading them from
    // inside the allocator neither allocates nor outlives the thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

/// One allocation of `bytes` (a realloc counts its new size).
fn note(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
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
        // SAFETY: `ptr` was returned by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (alloc, alloc_zeroed, realloc) `f` makes on this
/// thread, and the bytes they request (a realloc's new size).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, allocs - before.0, bytes - before.1)
}

const ROWS: usize = 10_000;
/// The default transport chunk (`XdbOptions::stream_chunk_rows`).
const CHUNK: usize = 4096;

/// A dense relation (no NULLs, as every TPC-H column) of the six column
/// shapes an edge carries: a frame-of-reference `Int` and `Date`, a
/// dictionary `Str`, a raw `Str` of distinct values, a `Float` and a
/// `Bool`.
fn relation() -> Vec<Column> {
    fn typed<T: Clone + Default>(f: impl Fn(usize) -> T) -> Arc<TypedCol<T>> {
        let mut col = TypedCol::with_capacity(ROWS);
        (0..ROWS).for_each(|i| col.push(f(i)));
        Arc::new(col)
    }
    let nations = ["FRANCE", "GERMANY", "JAPAN", "KENYA", "PERU"];
    vec![
        Column::Int(typed(|i| 1_000 + (i * 7919 % 6007) as i64)),
        Column::Date(typed(|i| 8_036 + (i * 31 % 2526) as i32)),
        Column::Str(typed(|i| Arc::from(nations[i % nations.len()])).into()),
        Column::Str(typed(|i| Arc::from(format!("comment {i:05} of the edge"))).into()),
        Column::Float(typed(|i| i as f64 * 0.25 - 900.0)),
        Column::Bool(typed(|i| i / 100 % 3 == 0)),
    ]
}

/// 91 allocations of 1 695 241 bytes when each typed column's payload grew
/// from a null-run vector and a pushed prefix and each bit-packed body
/// grew in a buffer of its own before being copied in; 45 of 1 621 297
/// since a payload is allocated once at its planned size and packed in
/// place. Six of them are the payloads; most of the rest are the index and
/// vectors `plan_dict` builds for the two `Str` columns.
#[test]
fn encoding_an_edge_stays_in_budget() {
    let cols = relation();
    let (enc, allocs, bytes) = allocations(|| wire::encode(&cols, ROWS));
    let codecs: Vec<Codec> = enc.columns().iter().map(|c| c.codec()).collect();
    assert_eq!(
        codecs,
        [
            Codec::ForPack,
            Codec::ForPack,
            Codec::Dict,
            Codec::Raw,
            Codec::Raw,
            Codec::Rle
        ]
    );
    assert!(allocs <= 45, "encoding made {allocs} allocations");
    assert!(bytes <= 1_621_297, "encoding allocated {bytes} bytes");
}

/// 10 071 allocations of 1 021 736 bytes when every typed column copied
/// its null runs into a vector; 10 065 of 1 021 544 since they are read
/// in place. 10 000 of them are the raw `Str` column's strings; the rest
/// are the morsels' columns and the decoded dictionary.
#[test]
fn stream_decoding_an_edge_stays_in_budget() {
    let cols = relation();
    let enc = wire::encode(&cols, ROWS);
    let (rows, allocs, bytes) = allocations(|| {
        let mut dec = wire::StreamDecoder::with_morsel_capacity(&enc, CHUNK);
        let mut rows = 0;
        while dec.remaining() > 0 {
            rows += dec.take_columns(CHUNK)[0].len();
        }
        rows
    });
    assert_eq!(rows, ROWS);
    assert!(allocs <= 10_065, "decoding made {allocs} allocations");
    assert!(bytes <= 1_021_544, "decoding allocated {bytes} bytes");
}
