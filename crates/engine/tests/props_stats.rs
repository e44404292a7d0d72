//! Lazily filled column statistics against the eager oracle.
//!
//! A stored table computes a column's statistics the first time somebody
//! reads them. Random relations of every column layout (Int, Float with NaN,
//! ±0.0 and ±inf, Str, Date, Bool, `Mixed`, and all-NULL typed columns),
//! with names that differ only in case and with no rows at all, must report
//! through `Catalog::column_stats` and `Engine::consult_stats` exactly what
//! the eager computation reports: every column, at the moment the data is
//! set, keyed by its lower-cased name, a later field replacing an earlier
//! one. So must an `insert_rows` after a read, a snapshot taken before it,
//! and two threads reading one snapshot.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xdb_engine::catalog::{Catalog, CatalogEntry, TableData};
use xdb_engine::{Engine, EngineProfile, NoRemote, Relation};
use xdb_sql::ast::ColumnDef;
use xdb_sql::column::{Column, TypedCol};
use xdb_sql::stats::{ColumnStats, StatsProvider};
use xdb_sql::value::{DataType, Value};

// ------------------------------------------------------------- the oracle

/// The eager computation: every column's statistics at once, keyed by
/// lower-cased name, a later field replacing an earlier one.
fn eager(rel: &Relation) -> HashMap<String, ColumnStats> {
    let mut columns = HashMap::with_capacity(rel.width());
    for ((name, _), col) in rel.fields.iter().zip(rel.columns()) {
        columns.insert(name.to_ascii_lowercase(), column_oracle(col));
    }
    columns
}

/// One column's statistics through `Value`: NULLs skipped, min and max by
/// `total_cmp` with the first of equals kept, distinct by `Value`'s
/// grouping equality.
fn column_oracle(col: &Column) -> ColumnStats {
    let mut distinct: HashSet<Value> = HashSet::new();
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    for v in col.iter().filter(|v| !v.is_null()) {
        if min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
            min = Some(v.clone());
        }
        if max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
            max = Some(v.clone());
        }
        distinct.insert(v);
    }
    ColumnStats {
        n_distinct: distinct.len() as f64,
        min,
        max,
    }
}

/// Equal as `Value` equality has it (floats by bits) and as printed (which
/// tells `Int(1)` from `Float(1.0)`).
fn same(a: &ColumnStats, b: &ColumnStats) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

fn same_maps(a: &HashMap<String, ColumnStats>, b: &HashMap<String, ColumnStats>) -> bool {
    a.len() == b.len() && a.iter().all(|(k, v)| b.get(k).is_some_and(|w| same(v, w)))
}

// ------------------------------------------------------- random relations

/// How a generated column is stored.
#[derive(Clone, Copy, Debug)]
enum Layout {
    Int,
    Float,
    Str,
    Date,
    Bool,
    /// Int, Float and Str values side by side, `1` and `1.0` among them.
    Mixed,
    /// A typed column holding nothing but NULLs.
    NullInt,
    NullStr,
}

const LAYOUTS: [Layout; 8] = [
    Layout::Int,
    Layout::Float,
    Layout::Str,
    Layout::Date,
    Layout::Bool,
    Layout::Mixed,
    Layout::NullInt,
    Layout::NullStr,
];

/// Column names: several differ only in case.
const NAMES: [&str; 6] = ["a", "A", "b", "B", "key", "Key"];

const FLOATS: [f64; 7] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
];

fn value(layout: Layout, rng: &mut TestRng) -> Value {
    if rng.below(6) == 0 {
        return Value::Null;
    }
    let n = rng.below(9) as i64 - 4;
    match layout {
        Layout::Int => Value::Int(n),
        Layout::Float if rng.bool() => Value::Float(FLOATS[rng.below(7) as usize]),
        Layout::Float => Value::Float(n as f64),
        Layout::Str => Value::str(format!("s{n}")),
        Layout::Date => Value::Date(n as i32),
        Layout::Bool => Value::Bool(n % 2 == 0),
        Layout::Mixed => match rng.below(3) {
            0 => Value::Int(n),
            1 => Value::Float(n as f64),
            _ => Value::str(format!("s{n}")),
        },
        Layout::NullInt | Layout::NullStr => Value::Null,
    }
}

fn data_type(layout: Layout) -> DataType {
    match layout {
        Layout::Int | Layout::Mixed | Layout::NullInt => DataType::Int,
        Layout::Float => DataType::Float,
        Layout::Str | Layout::NullStr => DataType::Str,
        Layout::Date => DataType::Date,
        Layout::Bool => DataType::Bool,
    }
}

/// A typed column of `values` (all of one variant or NULL) in `layout`.
fn typed<T>(values: &[Value], get: impl Fn(&Value) -> T) -> TypedCol<T>
where
    T: Clone + Default,
{
    let mut col = TypedCol::with_capacity(values.len());
    for v in values {
        if v.is_null() {
            col.push_null();
        } else {
            col.push(get(v));
        }
    }
    col
}

fn column(layout: Layout, values: &[Value]) -> Column {
    match layout {
        Layout::Int => Column::Int(Arc::new(typed(values, |v| match v {
            Value::Int(x) => *x,
            _ => unreachable!(),
        }))),
        Layout::Float => Column::Float(Arc::new(typed(values, |v| match v {
            Value::Float(x) => *x,
            _ => unreachable!(),
        }))),
        Layout::Str => Column::Str(
            typed(values, |v| match v {
                Value::Str(x) => Arc::clone(x),
                _ => unreachable!(),
            })
            .into(),
        ),
        Layout::Date => Column::Date(Arc::new(typed(values, |v| match v {
            Value::Date(x) => *x,
            _ => unreachable!(),
        }))),
        Layout::Bool => Column::Bool(Arc::new(typed(values, |v| match v {
            Value::Bool(x) => *x,
            _ => unreachable!(),
        }))),
        Layout::Mixed => Column::Mixed(Arc::new(values.to_vec())),
        Layout::NullInt => Column::Int(Arc::new(typed(values, |_| 0))),
        Layout::NullStr => Column::Str(typed(values, |_| Arc::from("")).into()),
    }
}

/// A random relation of up to five columns and `rows` rows, plus a batch
/// of rows to insert into it later.
fn relation(seed: u64, rows: usize) -> (Relation, Vec<Vec<Value>>) {
    let mut rng = TestRng::deterministic(seed);
    let width = rng.below(6) as usize;
    let layouts: Vec<Layout> = (0..width)
        .map(|_| LAYOUTS[rng.below(LAYOUTS.len() as u64) as usize])
        .collect();
    let fields = layouts
        .iter()
        .map(|&l| {
            let name = NAMES[rng.below(NAMES.len() as u64) as usize];
            (name.to_string(), data_type(l))
        })
        .collect();
    let columns = layouts
        .iter()
        .map(|&l| {
            let values: Vec<Value> = (0..rows).map(|_| value(l, &mut rng)).collect();
            column(l, &values)
        })
        .collect();
    let extra = (0..rng.below(4))
        .map(|_| layouts.iter().map(|&l| value(l, &mut rng)).collect())
        .collect();
    (Relation::from_columns(fields, columns, rows), extra)
}

// ------------------------------------------------------------ observation

fn table<'a>(catalog: &'a Catalog, name: &str) -> &'a TableData {
    match catalog.get(name) {
        Some(CatalogEntry::Table(t)) => t,
        other => panic!("{name}: {other:?}"),
    }
}

/// Every name a reader could ask for: the fields as stored, upper-cased,
/// and one that is not there.
fn probes(rel: &Relation) -> Vec<String> {
    let mut names: Vec<String> = rel.fields.iter().map(|(n, _)| n.clone()).collect();
    names.extend(rel.fields.iter().map(|(n, _)| n.to_ascii_uppercase()));
    names.push("missing".to_string());
    names
}

/// Read `names` one at a time through the optimizer's `StatsProvider` and
/// compare each against the oracle.
fn check_reads(
    catalog: &Catalog,
    oracle: &HashMap<String, ColumnStats>,
    names: &[String],
) -> std::result::Result<(), TestCaseError> {
    for name in names {
        let lazy = catalog.column_stats("t", name);
        let expected = oracle.get(&name.to_ascii_lowercase());
        prop_assert!(
            match (&lazy, expected) {
                (Some(a), Some(b)) => same(a, b),
                (None, None) => true,
                _ => false,
            },
            "column {name}: {lazy:?} vs oracle {expected:?}"
        );
    }
    Ok(())
}

fn check(seed: u64, rows: usize) -> std::result::Result<(), TestCaseError> {
    let (rel, extra) = relation(seed, rows);
    let oracle = eager(&rel);
    let names = probes(&rel);

    // Read some columns (in an order of the seed's choosing), then all.
    let mut catalog = Catalog::new();
    catalog.create_table_from("t", rel.clone()).unwrap();
    prop_assert_eq!(catalog.table_rows("t"), Some(rows as f64));
    let mut rng = TestRng::deterministic(seed ^ 0x5eed);
    let first: Vec<String> = names.iter().filter(|_| rng.bool()).rev().cloned().collect();
    check_reads(&catalog, &oracle, &first)?;
    prop_assert!(same_maps(&table(&catalog, "t").all_column_stats(), &oracle));
    check_reads(&catalog, &oracle, &names)?;

    // A snapshot taken after the read keeps the old statistics; the table
    // itself reports those of its new data.
    let snapshot = catalog.clone();
    catalog.insert_rows("t", extra.clone()).unwrap();
    let grown = eager(&table(&catalog, "t").data);
    check_reads(&catalog, &grown, &names)?;
    prop_assert!(same_maps(&table(&catalog, "t").all_column_stats(), &grown));
    check_reads(&snapshot, &oracle, &names)?;

    // The engine's consultation answers the same map, read or unread.
    let engine = Engine::new("db1", EngineProfile::postgres());
    engine.load_table("t", rel).unwrap();
    let (rows_seen, consulted) = engine.consult_stats("t").unwrap();
    prop_assert_eq!(rows_seen, rows as f64);
    prop_assert!(
        same_maps(&consulted, &oracle),
        "{consulted:?} vs {oracle:?}"
    );
    engine
        .with_catalog_mut(|c| c.insert_rows("t", extra))
        .unwrap();
    let (_, consulted) = engine.consult_stats("t").unwrap();
    prop_assert!(same_maps(&consulted, &grown), "{consulted:?} vs {grown:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lazy_statistics_equal_the_eager_oracle(seed in any::<u64>(), rows in 0usize..40) {
        check(seed, rows)?;
    }

    #[test]
    fn empty_relations_report_empty_statistics(seed in any::<u64>()) {
        check(seed, 0)?;
    }
}

// ----------------------------------------------------------- fixed cases

fn cols(defs: &[(&str, DataType)]) -> Vec<ColumnDef> {
    defs.iter()
        .map(|(n, t)| ColumnDef {
            name: n.to_string(),
            data_type: *t,
        })
        .collect()
}

/// A table created empty reports no column statistics until rows arrive,
/// not even those of an empty column.
#[test]
fn an_empty_create_table_reports_no_column_statistics() {
    let mut catalog = Catalog::new();
    catalog
        .create_table("t", &cols(&[("a", DataType::Int), ("B", DataType::Str)]))
        .unwrap();
    assert_eq!(catalog.table_rows("t"), Some(0.0));
    assert_eq!(catalog.column_stats("t", "a"), None);
    assert!(table(&catalog, "t").all_column_stats().is_empty());

    catalog
        .insert_rows("t", vec![vec![Value::Int(3), Value::str("x")]])
        .unwrap();
    let oracle = eager(&table(&catalog, "t").data);
    assert!(same_maps(&table(&catalog, "t").all_column_stats(), &oracle));
    assert_eq!(
        catalog.column_stats("t", "b").map(|s| s.n_distinct),
        Some(1.0)
    );

    let engine = Engine::new("db1", EngineProfile::postgres());
    engine
        .execute_sql("CREATE TABLE e (a INT, b TEXT)", &NoRemote)
        .unwrap();
    assert_eq!(engine.consult_stats("e"), Some((0.0, HashMap::new())));
}

/// Two threads reading one snapshot, in opposite orders, fill its cells
/// once and agree with each other and with the oracle.
#[test]
fn two_threads_reading_one_snapshot_agree() {
    for seed in 0..32 {
        let (rel, _) = relation(seed, 200);
        let oracle = eager(&rel);
        let names = probes(&rel);
        let mut catalog = Catalog::new();
        catalog.create_table_from("t", rel).unwrap();
        let snapshot = Arc::new(catalog);
        let read = |order: Vec<String>| {
            order
                .into_iter()
                .map(|n| (n.to_ascii_lowercase(), snapshot.column_stats("t", &n)))
                .collect::<HashMap<_, _>>()
        };
        let (forward, backward) = std::thread::scope(|s| {
            let reversed: Vec<String> = names.iter().rev().cloned().collect();
            let a = s.spawn(|| read(names.clone()));
            let b = s.spawn(|| read(reversed));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(forward.len(), backward.len());
        for (name, stats) in &forward {
            let other = &backward[name];
            let expected = oracle.get(name);
            match (stats, other, expected) {
                (Some(a), Some(b), Some(c)) => assert!(same(a, b) && same(a, c), "{name}"),
                (None, None, None) => {}
                _ => panic!("{name}: {stats:?} / {other:?} / {expected:?}"),
            }
        }
    }
}

/// A `CREATE TABLE AS` computes no column's statistics; a read of one
/// column computes exactly that one, and a consultation the rest.
#[test]
fn a_materialization_computes_only_the_statistics_read() {
    let engine = Engine::new("db1", EngineProfile::postgres());
    let rel = Relation::from_columns(
        vec![
            ("k".to_string(), DataType::Int),
            ("v".to_string(), DataType::Float),
            ("s".to_string(), DataType::Str),
        ],
        vec![
            column(Layout::Int, &(0..50).map(Value::Int).collect::<Vec<_>>()),
            column(
                Layout::Float,
                &(0..50).map(|i| Value::Float(i as f64)).collect::<Vec<_>>(),
            ),
            column(
                Layout::Str,
                &(0..50)
                    .map(|i| Value::str(format!("s{i}")))
                    .collect::<Vec<_>>(),
            ),
        ],
        50,
    );
    engine.load_table("src", rel).unwrap();
    let computed = |name: &str| engine.with_catalog(|c| table(c, name).stats.computed_columns());
    assert_eq!(computed("src"), 0, "loading a table");

    engine
        .execute_sql(
            "CREATE TABLE xdb_q1_m AS SELECT k, v, s FROM src WHERE k < 30",
            &NoRemote,
        )
        .unwrap();
    assert_eq!(computed("xdb_q1_m"), 0, "CREATE TABLE AS");

    let k = engine.with_catalog(|c| c.column_stats("xdb_q1_m", "K"));
    assert_eq!(k.map(|s| s.n_distinct), Some(30.0));
    assert_eq!(computed("xdb_q1_m"), 1, "one column read");
    engine.with_catalog(|c| c.column_stats("xdb_q1_m", "k"));
    assert_eq!(computed("xdb_q1_m"), 1, "the same column read again");

    let (rows, columns) = engine.consult_stats("xdb_q1_m").unwrap();
    assert_eq!((rows, columns.len()), (30.0, 3));
    assert_eq!(computed("xdb_q1_m"), 3, "a consultation");
}
