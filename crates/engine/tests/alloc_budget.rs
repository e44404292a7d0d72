//! Allocation budgets of an engine's statements, counted by an allocator
//! of this test binary's own (as `crates/core/tests/alloc_budget.rs` counts
//! the middleware's): a `CREATE TABLE AS` stores its relation and computes
//! no column statistics, which are filled on first read; a hash join packs
//! its keys and collects its pairs in buffers the engine pools, and gathers
//! its string columns as row ids; a stored selective result holds only its
//! own rows' strings; a join's residual holds a block of candidates at a
//! time, however many `l × r` are.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xdb_engine::exec::{Execution, MapResolver};
use xdb_engine::{Engine, EngineProfile, NoRemote, Relation};
use xdb_sql::algebra::LogicalPlan;
use xdb_sql::ast::{BinaryOp, Expr};
use xdb_sql::bind::intern_fields;
use xdb_sql::value::{DataType, Value};
use xdb_tpch::{TpchGen, TpchTable};

thread_local! {
    // Const-initialised and without a destructor, so reading them from
    // inside the allocator neither allocates nor outlives the thread.
    // Per thread: the harness runs the tests of this binary side by side.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since `peak_held` last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// One allocation of `bytes` (a realloc counts its new size).
fn note(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// `bytes` more (or, negative, fewer) bytes held.
fn hold(bytes: i64) {
    let _ = LIVE.try_with(|n| {
        n.set(n.get() + bytes);
        let _ = PEAK.try_with(|p| p.set(p.get().max(n.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        hold(layout.size() as i64);
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        hold(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
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

/// The most bytes `f` holds at once on this thread beyond those held when
/// it starts.
fn peak_held<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
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

    let (_, count, _) = allocations(|| engine.execute_sql(CTAS, &NoRemote).unwrap());
    let rows = engine.consult_stats("xdb_q1_m").unwrap().0;
    assert!(rows > 2000.0, "{rows} rows materialized");
    assert!(count <= 143, "a CREATE TABLE AS made {count} allocations");
}

/// `lineitem ⋈ orders` at sf 0.001: 6 000-odd probe rows against 1 500
/// build rows on a key that spans 13 bits, with four output columns.
const JOIN: &str = "SELECT l_orderkey, l_quantity, o_orderdate, o_totalprice \
                    FROM lineitem, orders WHERE l_orderkey = o_orderkey";

/// 484 469 bytes when each side of a word-keyed join first packed a
/// `Vec<Option<u64>>` of its keys and chained them into a hashed table,
/// and a gather pushed one null bit per row; 364 501 when the keys were
/// read where they lie and the pair buffers started empty on every join;
/// 233 469 since the packed keys, the pairs and the probe-major sort's
/// buffers live in the engine's pooled scratch beside the direct
/// chain-head table, all grown by the first run; 233 448 since the join
/// composes its pairs onto its inputs and the projection above gathers
/// the four columns.
#[test]
fn a_hash_join_stays_in_its_byte_budget() {
    let engine = Engine::new("db1", EngineProfile::postgres());
    let tpch = TpchGen::new(0.001);
    for table in [TpchTable::Lineitem, TpchTable::Orders] {
        engine.load_table(table.name(), tpch.table(table)).unwrap();
    }
    // The first run creates the engine's metric series and grows the
    // pooled scratch.
    engine.execute_sql(JOIN, &NoRemote).unwrap();

    let (out, _, bytes) = allocations(|| engine.execute_sql(JOIN, &NoRemote).unwrap());
    let rows = out.relation.map_or(0, |r| r.len());
    assert!(rows > 5000, "{rows} rows joined");
    assert!(bytes <= 234_000, "a hash join allocated {bytes} bytes");
}

/// `lineitem ⋈ orders` at sf 0.001 again, its output carrying three string
/// columns: two of the probe side and one of the build side.
const STRING_JOIN: &str = "SELECT l_shipmode, l_comment, o_orderpriority \
                           FROM lineitem, orders WHERE l_orderkey = o_orderkey";

/// 400 982 bytes when every gathered string cell cloned its `Arc<str>`
/// into a vector of its own; 185 230 since a gathered string column holds
/// a `u32` row id per cell into the columns it came from; 136 408 since
/// the join's output is its pairs, so each column is gathered once, by the
/// projection above it, and not first into the join's output.
#[test]
fn a_join_gathers_its_strings_as_ids() {
    let engine = Engine::new("db1", EngineProfile::postgres());
    let tpch = TpchGen::new(0.001);
    for table in [TpchTable::Lineitem, TpchTable::Orders] {
        engine.load_table(table.name(), tpch.table(table)).unwrap();
    }
    engine.execute_sql(STRING_JOIN, &NoRemote).unwrap();

    let (out, _, bytes) = allocations(|| engine.execute_sql(STRING_JOIN, &NoRemote).unwrap());
    let rows = out.relation.map_or(0, |r| r.len());
    assert!(rows > 5000, "{rows} rows joined");
    assert!(
        bytes <= 137_000,
        "a join of strings allocated {bytes} bytes"
    );
}

/// The few rows of `lineitem` whose order key is below 10.
const FEW: &str = "CREATE TABLE xdb_q1_few AS SELECT * FROM lineitem WHERE l_orderkey < 10";

/// A `CREATE TABLE AS` of a selective filter keeps no string of its
/// source alive: once `lineitem` (1 838 884 bytes loaded) is dropped, the
/// engine holds 14 642 bytes more than before it was loaded, as it did
/// when every gathered string cell cloned its `Arc<str>`. Stored string
/// columns that kept reading `lineitem`'s by row id would hold 1 378 066.
#[test]
fn a_stored_selective_result_keeps_only_its_strings() {
    let engine = Engine::new("db1", EngineProfile::postgres());
    let lineitem = || TpchGen::new(0.001).table(TpchTable::Lineitem);
    // The first round creates the engine's metric series.
    engine.load_table("lineitem", lineitem()).unwrap();
    engine.execute_sql(FEW, &NoRemote).unwrap();
    for table in ["xdb_q1_few", "lineitem"] {
        let drop = format!("DROP TABLE {table}");
        engine.execute_sql(&drop, &NoRemote).unwrap();
    }

    let before = LIVE.with(Cell::get);
    engine.load_table("lineitem", lineitem()).unwrap();
    let loaded = LIVE.with(Cell::get) - before;
    engine.execute_sql(FEW, &NoRemote).unwrap();
    engine
        .execute_sql("DROP TABLE lineitem", &NoRemote)
        .unwrap();
    let held = LIVE.with(Cell::get) - before;
    let rows = engine.consult_stats("xdb_q1_few").unwrap().0;
    assert!((10.0..100.0).contains(&rows), "{rows} rows stored");
    assert!(
        held <= 14_700,
        "the stored result holds {held} bytes of {loaded} loaded"
    );
}

/// `lineitem ⋈ orders` at sf 0.001, both sides filtered, under an
/// aggregate that reads two of the join's columns.
const FILTERED_JOIN: &str = "SELECT o_orderpriority, sum(l_quantity) AS q \
                             FROM lineitem, orders \
                             WHERE l_orderkey = o_orderkey AND o_totalprice > 100000 \
                             AND l_discount < 0.05 GROUP BY o_orderpriority";

/// 242 131 bytes in 233 allocations when each filter gathered every column
/// of its input and the join gathered every column of its pairs again;
/// 130 613 in 195 since a filter passes its selection, the join composes
/// its pairs onto it, and the aggregate gathers the two columns it reads.
#[test]
fn a_filtered_join_gathers_only_what_is_read() {
    let engine = Engine::new("db1", EngineProfile::postgres());
    let tpch = TpchGen::new(0.001);
    for table in [TpchTable::Lineitem, TpchTable::Orders] {
        engine.load_table(table.name(), tpch.table(table)).unwrap();
    }
    engine.execute_sql(FILTERED_JOIN, &NoRemote).unwrap();

    let (out, count, bytes) = allocations(|| engine.execute_sql(FILTERED_JOIN, &NoRemote).unwrap());
    let rows = out.relation.map_or(0, |r| r.len());
    assert_eq!(rows, 5, "one group per order priority");
    assert!(count <= 195, "a filtered join made {count} allocations");
    assert!(bytes <= 131_000, "a filtered join allocated {bytes} bytes");
}

/// A cross join and a `NOT EXISTS` without key pairs, 3 000 left rows
/// against `r` right rows, each with a residual that keeps a handful of
/// pairs: the rows they return, and the most bytes the execution holds
/// beyond its inputs.
fn residual_joins(r: i64) -> [(usize, i64); 2] {
    let mut resolver = MapResolver::new();
    let mut table = |name: &str, col: &str, n: i64, v: &dyn Fn(i64) -> i64| {
        let fields = vec![
            ("id".to_string(), DataType::Int),
            (col.to_string(), DataType::Int),
        ];
        let rows = (0..n).map(|i| {
            let v = if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(v(i))
            };
            vec![Value::Int(i), v]
        });
        resolver.insert(name, Relation::new(fields.clone(), rows.collect()));
        LogicalPlan::scan(name, name, intern_fields(&fields).iter().cloned())
    };
    let lhs = table("lhs", "x", 3000, &|i| (i * 7919) % 1000);
    let rhs = table("rhs", "y", r, &|i| (i * 104_729) % 1000);
    let above = |a: Expr, b: Expr, by: i64| {
        let b = Expr::binary(BinaryOp::Plus, b, Expr::lit(Value::Int(by)));
        Expr::binary(BinaryOp::Gt, a, b)
    };
    let (x, y) = (Expr::qcol("lhs", "x"), Expr::qcol("rhs", "y"));
    let cross = lhs
        .clone()
        .join_on(rhs.clone(), vec![], Some(above(x.clone(), y.clone(), 998)));
    let anti = LogicalPlan::SemiJoin {
        left: Box::new(lhs),
        right: Box::new(rhs),
        on: vec![],
        residual: Some(above(y, x, 990)),
        negated: true,
    };
    [cross, anti].map(|plan| {
        let (out, peak) = peak_held(|| Execution::new(&resolver).run(&plan).unwrap());
        (out.len(), peak)
    })
}

/// Doubling the right side doubles the candidate pairs (4.5 to 9 million)
/// but not what a residual join holds: it holds a block of candidates, the
/// right side's chain and keys, and its result. A block ends before a probe
/// row would carry it past its bound, so its pair buffers never double past
/// it: 2 168 070 bytes at 3 000 x 3 000 for either join (2 768 862 when a
/// block could overshoot; the nested loop it replaced held 2 375 782).
#[test]
fn a_residual_holds_a_block_of_candidates_not_every_pair() {
    let [(cross_half, cross_half_peak), (anti_half, anti_half_peak)] = residual_joins(1500);
    let [(cross, cross_peak), (anti, anti_peak)] = residual_joins(3000);
    assert!(
        cross_half > 0 && cross > cross_half && cross < 100,
        "{cross_half} {cross}"
    );
    assert!(anti_half > 2900 && anti <= anti_half, "{anti_half} {anti}");
    for (half, whole) in [(cross_half_peak, cross_peak), (anti_half_peak, anti_peak)] {
        eprintln!("peak held: {half} bytes at 3 000 x 1 500, {whole} at 3 000 x 3 000");
        assert!(whole < half + half / 4, "{half} -> {whole} bytes held");
        assert!(whole < 2_300_000, "{whole} bytes held");
    }
}
