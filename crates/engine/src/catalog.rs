//! Per-engine catalog: base tables (with statistics), views, and SQL/MED
//! foreign tables and servers.

use crate::error::{EngineError, Result};
use crate::relation::Relation;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use xdb_sql::ast::{lower_name, ColumnDef, ObjectKind, SelectStmt};
use xdb_sql::bind::{intern_fields, RelationFields, ResolvedRelation, SchemaProvider};
use xdb_sql::column::{Column, TypedCol};
use xdb_sql::hash::FastSet;
use xdb_sql::stats::{ColumnStats, StatsProvider};
use xdb_sql::value::{DataType, Value};

/// Statistics of one base table. The row count is known when the data is
/// set; a column's statistics are computed the first time somebody reads
/// them and kept. The cells belong to the stored data, like its `Arc`: every
/// catalog copy shares them, and setting new data replaces data and cells
/// together.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub row_count: f64,
    /// One cell per column of the data; none for a table created empty,
    /// which reports no column statistics until rows arrive.
    columns: Arc<[OnceLock<ColumnStats>]>,
}

impl TableStats {
    fn unread(rel: &Relation) -> TableStats {
        TableStats {
            row_count: rel.len() as f64,
            columns: (0..rel.width()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// How many columns have had their statistics computed so far.
    pub fn computed_columns(&self) -> usize {
        self.columns.iter().filter(|c| c.get().is_some()).count()
    }
}

/// A stored base table. The whole relation (schema + rows) is shared via
/// `Arc`, so identity scans can hand out the stored relation without
/// copying a single row.
#[derive(Debug, Clone)]
pub struct TableData {
    pub data: Arc<Relation>,
    pub stats: TableStats,
    /// `data.fields`, interned once for the binder.
    fields: RelationFields,
}

impl TableData {
    fn new(rel: Relation) -> TableData {
        TableData {
            stats: TableStats::unread(&rel),
            fields: intern_fields(&rel.fields),
            data: Arc::new(rel),
        }
    }

    /// Deep copy for callers that need an owned relation.
    pub fn to_relation(&self) -> Relation {
        (*self.data).clone()
    }

    /// Statistics of the column at `index`, computed on first read; `None`
    /// for a table created empty.
    fn stats_at(&self, index: usize) -> Option<&ColumnStats> {
        let cell = self.stats.columns.get(index)?;
        Some(cell.get_or_init(|| column_stats(&self.data.columns()[index])))
    }

    /// Statistics of the column `name` (case-insensitive; of duplicate
    /// names, the last field answers).
    fn column_stats(&self, name: &str) -> Option<&ColumnStats> {
        let index = self
            .data
            .fields
            .iter()
            .rposition(|(f, _)| f.eq_ignore_ascii_case(name))?;
        self.stats_at(index)
    }

    /// Every column's statistics, keyed by lower-cased name (of duplicate
    /// names, the last field's). Computes whatever was not read yet.
    pub fn all_column_stats(&self) -> HashMap<String, ColumnStats> {
        let mut columns = HashMap::with_capacity(self.stats.columns.len());
        for (index, (name, _)) in self.data.fields.iter().enumerate().rev() {
            let key = name.to_ascii_lowercase();
            if columns.contains_key(&key) {
                continue;
            }
            if let Some(stats) = self.stats_at(index) {
                columns.insert(key, stats.clone());
            }
        }
        columns
    }
}

/// One catalog entry.
#[derive(Debug, Clone)]
pub enum CatalogEntry {
    Table(TableData),
    /// A view stores its defining query; binding expands it in place.
    View {
        query: Arc<SelectStmt>,
    },
    /// A SQL/MED foreign table: schema + pointer to a relation on another
    /// server.
    ForeignTable {
        fields: RelationFields,
        server: String,
        remote_name: String,
    },
}

impl CatalogEntry {
    pub(crate) fn kind(&self) -> ObjectKind {
        match self {
            CatalogEntry::Table(_) => ObjectKind::Table,
            CatalogEntry::View { .. } => ObjectKind::View,
            CatalogEntry::ForeignTable { .. } => ObjectKind::ForeignTable,
        }
    }
}

/// The catalog of one engine. The engine keeps it behind an `Arc`: a
/// statement's snapshot is a reference-count bump, and a mutation while a
/// snapshot is out copies the entry map first (`Arc::make_mut`), which is
/// cheap because rows, column lists and view bodies are `Arc`-shared.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    entries: HashMap<String, CatalogEntry>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries.get(&*lower_name(name))
    }

    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.entries.keys().cloned().collect();
        v.sort();
        v
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total stored rows across all base tables (views and foreign tables
    /// hold no local rows). Feeds the per-engine `catalog.rows` gauge.
    pub(crate) fn total_rows(&self) -> u64 {
        self.entries
            .values()
            .map(|e| match e {
                CatalogEntry::Table(t) => t.data.len() as u64,
                _ => 0,
            })
            .sum()
    }

    fn insert_new(&mut self, name: &str, entry: CatalogEntry) -> Result<()> {
        let key = lower_name(name);
        if self.entries.contains_key(&*key) {
            return Err(EngineError::Catalog(format!(
                "relation {name:?} already exists"
            )));
        }
        self.entries.insert(key.into_owned(), entry);
        Ok(())
    }

    pub fn create_table(&mut self, name: &str, columns: &[ColumnDef]) -> Result<()> {
        let fields: Vec<(String, DataType)> = columns
            .iter()
            .map(|c| (c.name.clone(), c.data_type))
            .collect();
        // No per-column statistics until rows arrive.
        let table = TableData {
            stats: TableStats::default(),
            ..TableData::new(Relation::new(fields, Vec::new()))
        };
        self.insert_new(name, CatalogEntry::Table(table))
    }

    /// Create (or replace the contents of) a table directly from a
    /// materialized relation — the loader path and CREATE TABLE AS.
    pub fn create_table_from(&mut self, name: &str, rel: Relation) -> Result<()> {
        self.insert_new(name, CatalogEntry::Table(TableData::new(rel)))
    }

    pub fn insert_rows(&mut self, name: &str, new_rows: Vec<Vec<Value>>) -> Result<()> {
        let entry = self
            .entries
            .get_mut(&*lower_name(name))
            .ok_or_else(|| EngineError::Catalog(format!("unknown table {name:?}")))?;
        let CatalogEntry::Table(t) = entry else {
            return Err(EngineError::Catalog(format!(
                "{name:?} is not a base table"
            )));
        };
        for r in &new_rows {
            if r.len() != t.data.width() {
                return Err(EngineError::Catalog(format!(
                    "row width {} does not match table {name:?} width {}",
                    r.len(),
                    t.data.width()
                )));
            }
        }
        Arc::make_mut(&mut t.data).append_rows(new_rows);
        t.stats = TableStats::unread(&t.data);
        Ok(())
    }

    pub(crate) fn create_view(
        &mut self,
        name: &str,
        query: SelectStmt,
        or_replace: bool,
    ) -> Result<()> {
        let key = lower_name(name);
        if or_replace {
            if let Some(existing) = self.entries.get(&*key) {
                if existing.kind() != ObjectKind::View {
                    return Err(EngineError::Catalog(format!(
                        "{name:?} exists and is not a view"
                    )));
                }
                self.entries.remove(&*key);
            }
        }
        self.insert_new(
            name,
            CatalogEntry::View {
                query: Arc::new(query),
            },
        )
    }

    pub(crate) fn create_foreign_table(
        &mut self,
        name: &str,
        columns: &[ColumnDef],
        server: &str,
        remote_name: Option<&str>,
    ) -> Result<()> {
        self.insert_new(
            name,
            CatalogEntry::ForeignTable {
                fields: columns
                    .iter()
                    .map(|c| (c.name.as_str().into(), c.data_type))
                    .collect(),
                server: server.to_string(),
                remote_name: remote_name.unwrap_or(name).to_string(),
            },
        )
    }

    pub(crate) fn drop(&mut self, kind: ObjectKind, name: &str, if_exists: bool) -> Result<()> {
        let key = lower_name(name);
        match self.entries.get(&*key) {
            Some(entry) => {
                if entry.kind() != kind {
                    return Err(EngineError::Catalog(format!(
                        "{name:?} is a {:?}, not a {kind:?}",
                        entry.kind()
                    )));
                }
                self.entries.remove(&*key);
                Ok(())
            }
            None if if_exists => Ok(()),
            None => Err(EngineError::Catalog(format!("unknown object {name:?}"))),
        }
    }
}

impl SchemaProvider for Catalog {
    fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
        Some(match self.get(name)? {
            CatalogEntry::Table(TableData { fields, .. })
            | CatalogEntry::ForeignTable { fields, .. } => ResolvedRelation::Base {
                fields: Arc::clone(fields),
            },
            CatalogEntry::View { query } => ResolvedRelation::View {
                query: Arc::clone(query),
            },
        })
    }
}

impl StatsProvider for Catalog {
    fn table_rows(&self, relation: &str) -> Option<f64> {
        match self.get(relation)? {
            CatalogEntry::Table(t) => Some(t.stats.row_count),
            _ => None,
        }
    }

    fn column_stats(&self, relation: &str, column: &str) -> Option<ColumnStats> {
        match self.get(relation)? {
            CatalogEntry::Table(t) => t.column_stats(column).cloned(),
            _ => None,
        }
    }
}

/// min / max / n_distinct of one typed column's present values, entirely
/// on the native representation. `cmp` must match `Value::total_cmp` restricted to two
/// non-null values of this type; `key` must map equal-by-`Value::eq` values
/// to equal keys and distinct ones to distinct keys (so the set size equals
/// the `HashSet<Value>` size the generic path would produce).
fn typed_stats<'a, T: 'a, K: std::hash::Hash + Eq>(
    values: impl Iterator<Item = &'a T>,
    cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
    key: impl Fn(&T) -> K,
    wrap: impl Fn(&T) -> Value,
) -> ColumnStats {
    let mut distinct: FastSet<K> = FastSet::default();
    let mut min: Option<&T> = None;
    let mut max: Option<&T> = None;
    for v in values {
        match min {
            Some(m) if cmp(v, m) != std::cmp::Ordering::Less => {}
            _ => min = Some(v),
        }
        match max {
            Some(m) if cmp(v, m) != std::cmp::Ordering::Greater => {}
            _ => max = Some(v),
        }
        distinct.insert(key(v));
    }
    ColumnStats {
        n_distinct: distinct.len() as f64,
        min: min.map(&wrap),
        max: max.map(&wrap),
    }
}

/// A typed column's present values, in row order.
fn present<T: Clone + Default>(c: &TypedCol<T>) -> impl Iterator<Item = &T> {
    (0..c.len()).filter_map(|i| c.get(i))
}

/// Distinct count and min/max of one column: one pass over its typed vector
/// (values are cheap to clone: strings are `Arc`-shared). Only a table's
/// per-column cell calls it, on first read (`TableData::stats_at`).
fn column_stats(col: &Column) -> ColumnStats {
    match col {
        Column::Int(c) => typed_stats(present(c), |a, b| a.cmp(b), |v| *v, |v| Value::Int(*v)),
        // Float total_cmp: partial_cmp, with the NaN case degrading to the
        // type-tag tie (Equal); equality and hence distinctness is by bits.
        Column::Float(c) => typed_stats(
            present(c),
            |a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal),
            |v| v.to_bits(),
            |v| Value::Float(*v),
        ),
        Column::Str(c) => typed_stats(
            (0..c.len()).filter_map(|i| c.get(i)),
            |a, b| a.as_ref().cmp(b.as_ref()),
            Arc::clone,
            |v| Value::Str(Arc::clone(v)),
        ),
        Column::Date(c) => typed_stats(present(c), |a, b| a.cmp(b), |v| *v, |v| Value::Date(*v)),
        Column::Bool(c) => typed_stats(present(c), |a, b| a.cmp(b), |v| *v, |v| Value::Bool(*v)),
        Column::Mixed(_) => {
            // Heterogeneous values: keep the general Value-based path (the
            // cross-type Int/Float equality rules live in `Value::eq`).
            let mut distinct: std::collections::HashSet<Value> =
                std::collections::HashSet::with_capacity(1024);
            let mut min: Option<Value> = None;
            let mut max: Option<Value> = None;
            for v in col.iter() {
                if v.is_null() {
                    continue;
                }
                match &min {
                    Some(m) if v.total_cmp(m) != std::cmp::Ordering::Less => {}
                    _ => min = Some(v.clone()),
                }
                match &max {
                    Some(m) if v.total_cmp(m) != std::cmp::Ordering::Greater => {}
                    _ => max = Some(v.clone()),
                }
                distinct.insert(v);
            }
            ColumnStats {
                n_distinct: distinct.len() as f64,
                min,
                max,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_sql::parser::parse_select;

    fn cols(defs: &[(&str, DataType)]) -> Vec<ColumnDef> {
        defs.iter()
            .map(|(n, t)| ColumnDef {
                name: n.to_string(),
                data_type: *t,
            })
            .collect()
    }

    #[test]
    fn create_insert_stats() {
        let mut c = Catalog::new();
        c.create_table("t", &cols(&[("a", DataType::Int), ("b", DataType::Str)]))
            .unwrap();
        c.insert_rows(
            "t",
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("x")],
                vec![Value::Int(2), Value::Null],
            ],
        )
        .unwrap();
        assert_eq!(c.table_rows("t"), Some(3.0));
        let a = c.column_stats("t", "a").unwrap();
        assert_eq!(a.n_distinct, 2.0);
        assert_eq!(a.min, Some(Value::Int(1)));
        assert_eq!(a.max, Some(Value::Int(2)));
        let b = c.column_stats("t", "b").unwrap();
        assert_eq!(b.n_distinct, 1.0); // NULL ignored
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.create_table("t", &cols(&[("a", DataType::Int)])).unwrap();
        assert!(c.create_table("T", &cols(&[("a", DataType::Int)])).is_err());
    }

    #[test]
    fn row_width_checked() {
        let mut c = Catalog::new();
        c.create_table("t", &cols(&[("a", DataType::Int)])).unwrap();
        assert!(c.insert_rows("t", vec![vec![]]).is_err());
    }

    #[test]
    fn views_and_foreign_tables() {
        let mut c = Catalog::new();
        c.create_view("v", parse_select("SELECT 1 AS one").unwrap(), false)
            .unwrap();
        assert!(matches!(
            c.resolve_relation("V"),
            Some(ResolvedRelation::View { .. })
        ));
        // OR REPLACE works on views only.
        c.create_view("v", parse_select("SELECT 2 AS two").unwrap(), true)
            .unwrap();
        c.create_foreign_table(
            "ft",
            &cols(&[("x", DataType::Int)]),
            "db2",
            Some("remote_x"),
        )
        .unwrap();
        match c.get("ft") {
            Some(CatalogEntry::ForeignTable {
                server,
                remote_name,
                ..
            }) => {
                assert_eq!(server, "db2");
                assert_eq!(remote_name, "remote_x");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn drop_semantics() {
        let mut c = Catalog::new();
        c.create_table("t", &cols(&[("a", DataType::Int)])).unwrap();
        // Wrong kind errors.
        assert!(c.drop(ObjectKind::View, "t", false).is_err());
        c.drop(ObjectKind::Table, "t", false).unwrap();
        assert!(c.drop(ObjectKind::Table, "t", false).is_err());
        c.drop(ObjectKind::Table, "t", true).unwrap(); // IF EXISTS
    }

    #[test]
    fn snapshot_is_cheap_and_isolated() {
        let mut c = Catalog::new();
        c.create_table("t", &cols(&[("a", DataType::Int)])).unwrap();
        c.insert_rows("t", vec![vec![Value::Int(1)]]).unwrap();
        let snap = c.clone();
        c.insert_rows("t", vec![vec![Value::Int(2)]]).unwrap();
        assert_eq!(snap.table_rows("t"), Some(1.0));
        assert_eq!(c.table_rows("t"), Some(2.0));
    }
}
