//! Allocation budgets of the text round trip, counted by an allocator of
//! this test binary's own. Allocation counts repeat exactly from run to
//! run, so a budget is "at most this many", not a timing: a copy that
//! creeps back into the lexer, the parser or the renderer fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xdb_sql::display::{render_statement, Dialect};
use xdb_sql::{parse_statement, Statement};

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

const Q8: &str = include_str!("fixtures/q8.sql");
/// The statements a TD3 submit of Q8 sends, one a line: 15 DDL steps, the
/// 15 drops that undo them, and the root query.
const Q8_TD3_SCRIPT: &str = include_str!("fixtures/q8_td3_script.sql");

fn script() -> Vec<Statement> {
    Q8_TD3_SCRIPT
        .lines()
        .map(|sql| parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}")))
        .collect()
}

/// 528 when every keyword test, every step over a token and every
/// identifier on its way into the AST made a `String`.
#[test]
fn parsing_q8_stays_in_budget() {
    let (ast, count) = allocations(|| parse_statement(Q8));
    ast.unwrap();
    assert!(count <= 113, "parse_statement(Q8) made {count} allocations");
}

#[test]
fn parsing_the_q8_script_stays_in_budget() {
    let (statements, count) = allocations(script);
    assert_eq!(statements.len(), 31);
    // The collecting `Vec` is in the count.
    assert!(
        count <= 367,
        "parsing Q8's TD3 script made {count} allocations"
    );
}

#[test]
fn rendering_the_q8_script_only_grows_the_statement() {
    let statements = script();
    for dialect in [Dialect::PostgresLike, Dialect::MariaDbLike] {
        let (rendered, count) = allocations(|| {
            statements
                .iter()
                .map(|s| render_statement(s, dialect).len())
                .sum::<usize>()
        });
        assert!(rendered > 3_000);
        // Nothing but each statement's output buffer and its doublings.
        assert!(
            count <= 47,
            "rendering Q8's TD3 script made {count} allocations"
        );
    }
}

/// A statement with four times the identifiers, half of them quoted,
/// costs the renderer two more doublings of its buffer and nothing else.
#[test]
fn rendering_allocates_nothing_per_identifier() {
    let select_of = |columns: usize| {
        let list: Vec<String> = (0..columns)
            .map(|i| format!("t.c{i} AS \"select\", \"Weird \"\"{i}\" + c{i}"))
            .collect();
        parse_statement(&format!("SELECT {} FROM t", list.join(", "))).unwrap()
    };
    let (small, large) = (select_of(64), select_of(256));
    let (small_len, small_count) = allocations(|| render_statement(&small, Dialect::Generic).len());
    let (large_len, large_count) = allocations(|| render_statement(&large, Dialect::Generic).len());
    assert!(large_len > 3 * small_len);
    // The buffer, and its doublings from 128 bytes up.
    let doublings = |len: usize| u64::from(len.next_power_of_two().trailing_zeros()) - 6;
    assert!(small_count <= doublings(small_len), "{small_count}");
    assert!(large_count <= doublings(large_len), "{large_count}");
    assert!(
        large_count <= small_count + 2,
        "{small_count} -> {large_count}"
    );
}
