//! Allocation budgets of the text round trip and of the logical pipeline,
//! counted by an allocator of this test binary's own. Allocation counts
//! repeat exactly from run to run, so a budget is "at most this many", not
//! a timing: a copy that creeps back into the lexer, the parser, the
//! renderer, the binder or the optimiser fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use xdb_sql::algebra::{AggCall, AggFunc, LogicalPlan, Miss};
use xdb_sql::ast::{BinaryOp, Expr};
use xdb_sql::bind::{bind_select, intern_fields, RelationFields, ResolvedRelation, SchemaProvider};
use xdb_sql::display::{render_statement, Dialect};
use xdb_sql::optimize::{optimize, OptimizeOptions};
use xdb_sql::stats::{ColumnStats, StatsProvider};
use xdb_sql::value::{DataType, Value};
use xdb_sql::{parse_select, parse_statement, Statement};

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

/// A table of the fixture: name, rows and columns.
type Table = (&'static str, f64, &'static [(&'static str, DataType)]);

/// The tables Q8 reads, with TPC-H's columns and scale-factor-1 row counts;
/// a key column has as many distinct values as the table it names has
/// rows, any other column a tenth of its own table's rows.
struct Q8Tables {
    tables: HashMap<&'static str, (RelationFields, f64)>,
}

impl Q8Tables {
    fn new() -> Q8Tables {
        use DataType::*;
        let tables: [Table; 7] = [
            (
                "region",
                5.0,
                &[("r_regionkey", Int), ("r_name", Str), ("r_comment", Str)],
            ),
            (
                "nation",
                25.0,
                &[
                    ("n_nationkey", Int),
                    ("n_name", Str),
                    ("n_regionkey", Int),
                    ("n_comment", Str),
                ],
            ),
            (
                "supplier",
                10_000.0,
                &[
                    ("s_suppkey", Int),
                    ("s_name", Str),
                    ("s_address", Str),
                    ("s_nationkey", Int),
                    ("s_phone", Str),
                    ("s_acctbal", Float),
                    ("s_comment", Str),
                ],
            ),
            (
                "part",
                200_000.0,
                &[
                    ("p_partkey", Int),
                    ("p_name", Str),
                    ("p_mfgr", Str),
                    ("p_brand", Str),
                    ("p_type", Str),
                    ("p_size", Int),
                    ("p_container", Str),
                    ("p_retailprice", Float),
                    ("p_comment", Str),
                ],
            ),
            (
                "customer",
                150_000.0,
                &[
                    ("c_custkey", Int),
                    ("c_name", Str),
                    ("c_address", Str),
                    ("c_nationkey", Int),
                    ("c_phone", Str),
                    ("c_acctbal", Float),
                    ("c_mktsegment", Str),
                    ("c_comment", Str),
                ],
            ),
            (
                "orders",
                1_500_000.0,
                &[
                    ("o_orderkey", Int),
                    ("o_custkey", Int),
                    ("o_orderstatus", Str),
                    ("o_totalprice", Float),
                    ("o_orderdate", Date),
                    ("o_orderpriority", Str),
                    ("o_clerk", Str),
                    ("o_shippriority", Int),
                    ("o_comment", Str),
                ],
            ),
            (
                "lineitem",
                6_000_000.0,
                &[
                    ("l_orderkey", Int),
                    ("l_partkey", Int),
                    ("l_suppkey", Int),
                    ("l_linenumber", Int),
                    ("l_quantity", Float),
                    ("l_extendedprice", Float),
                    ("l_discount", Float),
                    ("l_tax", Float),
                    ("l_returnflag", Str),
                    ("l_linestatus", Str),
                    ("l_shipdate", Date),
                    ("l_commitdate", Date),
                    ("l_receiptdate", Date),
                    ("l_shipinstruct", Str),
                    ("l_shipmode", Str),
                    ("l_comment", Str),
                ],
            ),
        ];
        Q8Tables {
            tables: tables
                .into_iter()
                .map(|(name, rows, cols)| (name, (intern_fields(cols), rows)))
                .collect(),
        }
    }

    fn rows_of(&self, table: &str) -> Option<f64> {
        self.tables.get(table).map(|(_, rows)| *rows)
    }
}

impl SchemaProvider for Q8Tables {
    fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
        self.tables
            .get(name)
            .map(|(fields, _)| ResolvedRelation::Base {
                fields: Arc::clone(fields),
            })
    }
}

impl StatsProvider for Q8Tables {
    fn table_rows(&self, relation: &str) -> Option<f64> {
        self.rows_of(relation)
    }

    fn column_stats(&self, relation: &str, column: &str) -> Option<ColumnStats> {
        let own = self.rows_of(relation)?;
        let named = match column.split_once('_')?.1 {
            "regionkey" => self.rows_of("region"),
            "nationkey" => self.rows_of("nation"),
            "suppkey" => self.rows_of("supplier"),
            "partkey" => self.rows_of("part"),
            "custkey" => self.rows_of("customer"),
            "orderkey" => self.rows_of("orders"),
            _ => None,
        };
        Some(ColumnStats {
            n_distinct: named.unwrap_or((own / 10.0).max(1.0)),
            min: None,
            max: None,
        })
    }
}

/// 723 when a lookup that missed built its error text, every rebuilt
/// `Project` / `Aggregate` and every alias allocated its names again, and
/// pruning copied its requirement lists and the projections it kept.
#[test]
fn binding_and_optimising_q8_stays_in_budget() {
    let tables = Q8Tables::new();
    let select = parse_select(Q8).unwrap();
    let (plan, count) = allocations(|| {
        let bound = bind_select(&select, &tables).unwrap();
        optimize(bound, &tables, OptimizeOptions::default())
    });
    assert_eq!(plan.schema().len(), 2);
    assert!(
        count <= 344,
        "binding and optimising Q8 made {count} allocations"
    );
}

#[test]
fn a_lookup_that_misses_allocates_nothing() {
    let select = parse_select("SELECT n_name, n_regionkey AS n_name FROM nation").unwrap();
    let plan = bind_select(&select, &Q8Tables::new()).unwrap();
    let schema = plan.schema();
    let (misses, count) = allocations(|| {
        [
            schema.lookup(None, "n_comment"),
            schema.lookup(Some("nation"), "n_name"),
            schema.lookup(None, "n_name"),
        ]
    });
    assert_eq!(
        misses,
        [Err(Miss::Unknown), Err(Miss::Unknown), Err(Miss::Ambiguous)]
    );
    assert_eq!(count, 0);
}

/// Each output field shares the name in the node's list, so a rebuild
/// allocates the new schema's field slice and the box its input moves into,
/// however many outputs there are and whether or not their columns resolve.
#[test]
fn rebuilding_a_project_or_an_aggregate_allocates_one_field_slice() {
    let select = parse_select("SELECT * FROM lineitem").unwrap();
    let scan = bind_select(&select, &Q8Tables::new()).unwrap();
    let LogicalPlan::Project { input, .. } = scan else {
        panic!("SELECT * binds to a projection");
    };
    let price = Expr::qcol("lineitem", "l_extendedprice");
    let discounted = Expr::binary(BinaryOp::Mul, price.clone(), Expr::lit(Value::Float(0.9)));
    let project = input.project(vec![
        (price.clone(), "price".into()),
        (discounted, "discounted".into()),
        (Expr::col("nowhere"), "unresolved".into()),
    ]);
    let LogicalPlan::Project { input, exprs, .. } = project else {
        unreachable!("project() builds a Project");
    };
    let (project, count) = allocations(|| input.project(exprs));
    assert_eq!(project.schema().len(), 3);
    assert_eq!(count, 2, "rebuilding a Project");

    let LogicalPlan::Project { input, .. } = project else {
        unreachable!("project() builds a Project");
    };
    let sum = AggCall {
        func: AggFunc::Sum,
        arg: Some(price),
        distinct: false,
    };
    let aggregate = input.aggregate(
        vec![(Expr::qcol("lineitem", "l_returnflag"), "flag".into())],
        vec![(sum, "revenue".into())],
    );
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggregates,
        ..
    } = aggregate
    else {
        unreachable!("aggregate() builds an Aggregate");
    };
    let (aggregate, count) = allocations(|| input.aggregate(group_by, aggregates));
    assert_eq!(aggregate.schema().len(), 2);
    assert_eq!(count, 2, "rebuilding an Aggregate");
}
