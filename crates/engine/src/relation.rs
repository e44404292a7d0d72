//! In-memory relations (materialized operator outputs and table storage).
//!
//! Storage is columnar: a flat schema plus one typed column vector per
//! field (`xdb_sql::column::Column`), each `Arc`-shared so projections and
//! scans are pointer copies. Row order is part of a relation's identity —
//! every accessor presents rows exactly as a row-major layout would, so
//! results, ledgers and traces stay bit-identical with the old engine.

use std::sync::OnceLock;
use xdb_sql::column::{Column, ColumnBuilder, SchemaIndex};
use xdb_sql::value::{DataType, Value};

/// A materialized relation: a flat schema plus typed column vectors.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Output columns as (name, type) — qualifiers are a plan-level notion
    /// and never survive materialization.
    pub fields: Vec<(String, DataType)>,
    columns: Vec<Column>,
    /// Kept separately because zero-width relations (`SELECT` with no FROM)
    /// still have a row count.
    nrows: usize,
    /// Lazily built pre-lowered name → position map.
    index: OnceLock<SchemaIndex>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.fields == other.fields && self.nrows == other.nrows && self.columns == other.columns
    }
}

impl Relation {
    /// Build from row-major tuples (data generators, INSERT, tests). Every
    /// row must match the schema width.
    pub fn new(fields: Vec<(String, DataType)>, rows: Vec<Vec<Value>>) -> Relation {
        let nrows = rows.len();
        let width = fields.len();
        let mut builders: Vec<ColumnBuilder> = (0..width)
            .map(|_| ColumnBuilder::with_capacity(nrows))
            .collect();
        for mut row in rows {
            debug_assert_eq!(row.len(), width, "row width mismatch");
            for (b, v) in builders.iter_mut().zip(row.drain(..)) {
                b.push(v);
            }
        }
        Relation {
            fields,
            columns: builders.into_iter().map(ColumnBuilder::finish).collect(),
            nrows,
            index: OnceLock::new(),
        }
    }

    /// Build directly from columns. `nrows` is explicit so zero-width
    /// relations keep their cardinality.
    pub fn from_columns(
        fields: Vec<(String, DataType)>,
        columns: Vec<Column>,
        nrows: usize,
    ) -> Relation {
        debug_assert_eq!(fields.len(), columns.len());
        debug_assert!(columns.iter().all(|c| c.len() == nrows));
        Relation {
            fields,
            columns,
            nrows,
            index: OnceLock::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.nrows
    }

    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    pub fn width(&self) -> usize {
        self.fields.len()
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub(crate) fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The value at (row, column) — exact variant preservation.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materialize row `i` (display, residual fallback, tests).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Iterate rows in order as owned tuples — the row-major compatibility
    /// view. Column-at-a-time access is cheaper where it matters.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.nrows).map(|i| self.row(i))
    }

    /// Total size of this relation on the (simulated) wire. Computed
    /// per-column; totals are identical to the row-major model (4 bytes of
    /// framing per row plus per-value payloads).
    pub fn wire_bytes(&self) -> u64 {
        4 * self.nrows as u64 + self.columns.iter().map(Column::wire_bytes).sum::<u64>()
    }

    /// Pre-lowered name → position map, built once on first use.
    pub(crate) fn schema_index(&self) -> &SchemaIndex {
        self.index
            .get_or_init(|| SchemaIndex::build(self.fields.iter().map(|(n, _)| n.as_str())))
    }

    /// Index of a column by case-insensitive name (one hash probe).
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.schema_index().get(name)
    }

    /// Append row-major tuples (INSERT path — small batches).
    pub(crate) fn append_rows(&mut self, new_rows: Vec<Vec<Value>>) {
        if new_rows.is_empty() {
            return;
        }
        let mut all: Vec<Vec<Value>> = self.rows().collect();
        all.extend(new_rows);
        *self = Relation::new(std::mem::take(&mut self.fields), all);
    }

    /// Render as an aligned text table (examples and the repro binary).
    /// Only the first `max_rows` rows are ever materialized as strings.
    pub fn to_table_string(&self, max_rows: usize) -> String {
        let shown = self.nrows.min(max_rows);
        let mut widths: Vec<usize> = self.fields.iter().map(|(n, _)| n.len()).collect();
        let mut rendered: Vec<Vec<String>> = Vec::with_capacity(shown);
        for r in 0..shown {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.value(r).to_string())
                .collect();
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
            rendered.push(row);
        }
        let mut out = String::new();
        for (i, (n, _)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            out.push_str(&format!("{n:<w$}", w = widths[i]));
        }
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                out.push_str(&format!("{cell:<w$}", w = widths[i]));
            }
            out.push('\n');
        }
        if self.nrows > max_rows {
            out.push_str(&format!("... ({} rows total)\n", self.nrows));
        }
        out
    }

    /// Multiset equality: same fields (names, order) and the same bag of
    /// rows regardless of order. The correctness oracle for decentralized
    /// vs single-engine execution.
    pub fn same_bag(&self, other: &Relation) -> bool {
        if self.fields.len() != other.fields.len() || self.nrows != other.nrows {
            return false;
        }
        let mut a: Vec<Vec<Value>> = self.rows().collect();
        let mut b: Vec<Vec<Value>> = other.rows().collect();
        let cmp = |x: &Vec<Value>, y: &Vec<Value>| {
            for (vx, vy) in x.iter().zip(y.iter()) {
                let ord = vx.total_cmp(vy);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        };
        a.sort_by(cmp);
        b.sort_by(cmp);
        a.iter().zip(b.iter()).all(|(x, y)| approx_row_eq(x, y))
    }
}

/// Row equality with small float tolerance (aggregation order may differ
/// between plans).
fn approx_row_eq(a: &[Value], b: &[Value]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b.iter()).all(|(x, y)| match (x, y) {
        (Value::Float(fx), Value::Float(fy)) => {
            let scale = fx.abs().max(fy.abs()).max(1.0);
            (fx - fy).abs() <= 1e-6 * scale
        }
        _ => x == y,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(rows: Vec<Vec<Value>>) -> Relation {
        Relation::new(
            vec![
                ("a".to_string(), DataType::Int),
                ("b".to_string(), DataType::Str),
            ],
            rows,
        )
    }

    #[test]
    fn wire_bytes_counts_payload_and_framing() {
        let r = rel(vec![vec![Value::Int(1), Value::str("xy")]]);
        // framing 4 + int 8 + (4 + 2) string.
        assert_eq!(r.wire_bytes(), 18);
    }

    #[test]
    fn columnar_storage_roundtrips_rows() {
        let rows = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Null, Value::Null],
            vec![Value::Int(-5), Value::str("")],
        ];
        let r = rel(rows.clone());
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows().collect::<Vec<_>>(), rows);
        assert_eq!(r.value(2, 0), Value::Int(-5));
        assert_eq!(r.row(1), vec![Value::Null, Value::Null]);
        // Typed layout survived the nulls.
        assert!(r.column(0).as_int().is_some());
        assert!(matches!(r.column(1), Column::Str(_)));
    }

    #[test]
    fn zero_width_relation_keeps_row_count() {
        // `SELECT 1` evaluates over a one-row, zero-column relation.
        let r = Relation::new(vec![], vec![vec![]]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.width(), 0);
        assert_eq!(r.wire_bytes(), 4);
        assert_eq!(r.rows().collect::<Vec<_>>(), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn same_bag_ignores_order() {
        let r1 = rel(vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
        ]);
        let r2 = rel(vec![
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(1), Value::str("a")],
        ]);
        assert!(r1.same_bag(&r2));
        let r3 = rel(vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(1), Value::str("a")],
        ]);
        assert!(!r1.same_bag(&r3));
    }

    #[test]
    fn same_bag_float_tolerance() {
        let f1 = Relation::new(
            vec![("x".to_string(), DataType::Float)],
            vec![vec![Value::Float(1.000000001)]],
        );
        let f2 = Relation::new(
            vec![("x".to_string(), DataType::Float)],
            vec![vec![Value::Float(1.0)]],
        );
        assert!(f1.same_bag(&f2));
    }

    #[test]
    fn table_string_truncates() {
        let r = rel(vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("zzz")],
        ]);
        let s = r.to_table_string(1);
        assert!(s.contains("(2 rows total)"));
        // The second row's cells were never rendered.
        assert!(!s.contains("zzz"));
    }

    #[test]
    fn column_index_case_insensitive() {
        let r = rel(vec![]);
        assert_eq!(r.column_index("B"), Some(1));
        assert_eq!(r.column_index("nope"), None);
    }

    #[test]
    fn append_rows_extends_in_order() {
        let mut r = rel(vec![vec![Value::Int(1), Value::str("a")]]);
        r.append_rows(vec![vec![Value::Int(2), Value::str("b")]]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(1, 1), Value::str("b"));
        assert_eq!(r.fields.len(), 2);
    }
}
