//! Statistics interfaces and cardinality estimation.
//!
//! Both the local engines (for their own EXPLAIN-style costing) and the XDB
//! cross-database optimizer (which *consults* engines for statistics,
//! Section IV-B2) estimate plan cardinalities with the textbook heuristics
//! below. Keeping one implementation ensures that local and cross-database
//! cost estimates are comparable — the paper's "same cost unit" requirement
//! (footnote 6) — leaving calibration to scale factors only.

use crate::algebra::LogicalPlan;
use crate::ast::{BinaryOp, Expr};
use crate::value::Value;

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Estimated number of distinct values.
    pub n_distinct: f64,
    pub min: Option<Value>,
    pub max: Option<Value>,
}

/// Source of base-relation statistics, keyed by relation name.
pub trait StatsProvider {
    /// Row count of a base relation, if known.
    fn table_rows(&self, relation: &str) -> Option<f64>;

    /// Column statistics of a base relation, if known.
    fn column_stats(&self, relation: &str, column: &str) -> Option<ColumnStats>;
}

/// Provider that knows nothing; estimation falls back to defaults.
pub struct NoStats;

impl StatsProvider for NoStats {
    fn table_rows(&self, _relation: &str) -> Option<f64> {
        None
    }

    fn column_stats(&self, _relation: &str, _column: &str) -> Option<ColumnStats> {
        None
    }
}

/// Default row count assumed for relations without statistics.
pub const DEFAULT_TABLE_ROWS: f64 = 1000.0;
/// Default selectivity of an equality predicate without statistics.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Default selectivity of a range predicate.
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 0.33;
/// Default selectivity of a LIKE predicate.
pub const DEFAULT_LIKE_SELECTIVITY: f64 = 0.05;

/// Cardinality estimator over logical plans.
pub struct Estimator<'a> {
    pub stats: &'a dyn StatsProvider,
}

impl<'a> Estimator<'a> {
    pub fn new(stats: &'a dyn StatsProvider) -> Estimator<'a> {
        Estimator { stats }
    }

    /// Estimated output rows of a plan.
    pub fn rows(&self, plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Scan { relation, .. } => self
                .stats
                .table_rows(relation)
                .unwrap_or(DEFAULT_TABLE_ROWS)
                .max(1.0),
            // Placeholders stand in for another task's output: the
            // cross-database optimizer registers its estimate for them
            // under the placeholder name.
            LogicalPlan::Placeholder { name, .. } => self
                .stats
                .table_rows(name)
                .unwrap_or(DEFAULT_TABLE_ROWS)
                .max(1.0),
            LogicalPlan::OneRow => 1.0,
            LogicalPlan::Filter { input, predicate } => {
                let base = self.rows(input);
                (base * self.selectivity(predicate, input)).max(1.0)
            }
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. } => self.rows(input),
            LogicalPlan::Limit { input, fetch } => self.rows(input).min(*fetch as f64),
            LogicalPlan::Join {
                left,
                right,
                on,
                residual,
                ..
            } => {
                let l = self.rows(left);
                let r = self.rows(right);
                let mut card = l * r;
                for (le, re) in on {
                    let ld = self
                        .expr_distinct(le, left)
                        .unwrap_or(l * DEFAULT_EQ_SELECTIVITY);
                    let rd = self
                        .expr_distinct(re, right)
                        .unwrap_or(r * DEFAULT_EQ_SELECTIVITY);
                    card /= ld.max(rd).max(1.0);
                }
                if let Some(res) = residual {
                    // Rough: treat residual like a filter over the join.
                    card *= self.selectivity_over(res, None);
                }
                card.max(1.0)
            }
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                let in_rows = self.rows(input);
                if group_by.is_empty() {
                    return 1.0;
                }
                let mut groups = 1.0f64;
                for (e, _) in group_by {
                    groups *= self
                        .expr_distinct(e, input)
                        .unwrap_or(in_rows.sqrt().max(1.0));
                }
                groups.min(in_rows).max(1.0)
            }
            LogicalPlan::Distinct { input } => {
                let in_rows = self.rows(input);
                (in_rows * 0.5).max(1.0)
            }
            // Semi/anti joins keep a fraction of the left side.
            LogicalPlan::SemiJoin { left, .. } => (self.rows(left) * 0.5).max(1.0),
        }
    }

    /// Estimated average wire bytes per output row of a plan, derived from
    /// its schema (used for data-movement costing).
    pub(crate) fn row_bytes(&self, plan: &LogicalPlan) -> f64 {
        plan.schema()
            .fields
            .iter()
            .map(|f| match f.data_type {
                crate::value::DataType::Int => 8.0,
                crate::value::DataType::Float => 8.0,
                crate::value::DataType::Date => 4.0,
                crate::value::DataType::Bool => 1.0,
                // Average string payload guess (TPC-H comments skew larger,
                // names smaller).
                crate::value::DataType::Str => 24.0,
            })
            .sum::<f64>()
            .max(1.0)
    }

    /// Estimated output bytes of a plan.
    pub fn bytes(&self, plan: &LogicalPlan) -> f64 {
        self.rows(plan) * self.row_bytes(plan)
    }

    /// Number of distinct values an expression takes over a plan's output.
    pub(crate) fn expr_distinct(&self, e: &Expr, input: &LogicalPlan) -> Option<f64> {
        if let Expr::Column { qualifier, name } = e {
            if let Some((relation, column)) = resolve_base_column(input, qualifier.as_deref(), name)
            {
                if let Some(cs) = self.stats.column_stats(relation, column) {
                    return Some(cs.n_distinct.max(1.0));
                }
            }
        }
        None
    }

    /// Selectivity of a predicate against a plan.
    pub(crate) fn selectivity(&self, predicate: &Expr, input: &LogicalPlan) -> f64 {
        self.selectivity_over(predicate, Some(input))
    }

    fn selectivity_over(&self, predicate: &Expr, input: Option<&LogicalPlan>) -> f64 {
        match predicate {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => self.selectivity_over(left, input) * self.selectivity_over(right, input),
            Expr::Binary {
                op: BinaryOp::Or,
                left,
                right,
            } => {
                let l = self.selectivity_over(left, input);
                let r = self.selectivity_over(right, input);
                (l + r - l * r).min(1.0)
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                // Column-vs-literal comparisons get statistics treatment.
                let (col, lit, op) = match (&**left, &**right) {
                    (Expr::Column { .. }, Expr::Literal(v)) => (left, v, *op),
                    (Expr::Literal(v), Expr::Column { .. }) => (right, v, op.mirror()),
                    _ => {
                        return match op {
                            BinaryOp::Eq => DEFAULT_EQ_SELECTIVITY,
                            BinaryOp::NotEq => 1.0 - DEFAULT_EQ_SELECTIVITY,
                            _ => DEFAULT_RANGE_SELECTIVITY,
                        }
                    }
                };
                match op {
                    BinaryOp::Eq => {
                        if let Some(d) = input.and_then(|p| self.expr_distinct(col, p)) {
                            (1.0 / d).min(1.0)
                        } else {
                            DEFAULT_EQ_SELECTIVITY
                        }
                    }
                    BinaryOp::NotEq => 1.0 - DEFAULT_EQ_SELECTIVITY,
                    BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
                        self.range_fraction(col, lit, op, input)
                    }
                    _ => DEFAULT_RANGE_SELECTIVITY,
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let frac = match (&**low, &**high) {
                    (Expr::Literal(lo), Expr::Literal(hi)) => {
                        let a = self.range_fraction(expr, hi, BinaryOp::LtEq, input);
                        let b = self.range_fraction(expr, lo, BinaryOp::Lt, input);
                        (a - b).clamp(0.01, 1.0)
                    }
                    _ => DEFAULT_RANGE_SELECTIVITY,
                };
                if *negated {
                    1.0 - frac
                } else {
                    frac
                }
            }
            Expr::Like {
                pattern, negated, ..
            } => {
                let base = if pattern.starts_with('%') {
                    DEFAULT_LIKE_SELECTIVITY
                } else {
                    DEFAULT_LIKE_SELECTIVITY * 2.0
                };
                if *negated {
                    1.0 - base
                } else {
                    base
                }
            }
            Expr::InList { list, negated, .. } => {
                let base = (DEFAULT_EQ_SELECTIVITY * list.len() as f64).min(1.0);
                if *negated {
                    1.0 - base
                } else {
                    base
                }
            }
            Expr::IsNull { negated, .. } => {
                if *negated {
                    0.95
                } else {
                    0.05
                }
            }
            Expr::Unary {
                op: crate::ast::UnaryOp::Not,
                expr,
            } => 1.0 - self.selectivity_over(expr, input),
            Expr::Literal(Value::Bool(true)) => 1.0,
            Expr::Literal(Value::Bool(false)) => 0.0,
            _ => DEFAULT_RANGE_SELECTIVITY,
        }
    }

    /// Fraction of rows with `col <op> lit`, using min/max statistics when
    /// available (uniformity assumption).
    fn range_fraction(
        &self,
        col: &Expr,
        lit: &Value,
        op: BinaryOp,
        input: Option<&LogicalPlan>,
    ) -> f64 {
        let stats = input.and_then(|p| {
            if let Expr::Column { qualifier, name } = col {
                resolve_base_column(p, qualifier.as_deref(), name)
                    .and_then(|(rel, c)| self.stats.column_stats(rel, c))
            } else {
                None
            }
        });
        let Some(stats) = stats else {
            return DEFAULT_RANGE_SELECTIVITY;
        };
        let (Some(min), Some(max)) = (stats.min.as_ref(), stats.max.as_ref()) else {
            return DEFAULT_RANGE_SELECTIVITY;
        };
        let to_f = |v: &Value| -> Option<f64> {
            match v {
                Value::Int(i) => Some(*i as f64),
                Value::Float(f) => Some(*f),
                Value::Date(d) => Some(*d as f64),
                _ => None,
            }
        };
        let (Some(lo), Some(hi), Some(x)) = (to_f(min), to_f(max), to_f(lit)) else {
            return DEFAULT_RANGE_SELECTIVITY;
        };
        if hi <= lo {
            return DEFAULT_RANGE_SELECTIVITY;
        }
        let below = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
        match op {
            BinaryOp::Lt | BinaryOp::LtEq => below.clamp(0.001, 1.0),
            BinaryOp::Gt | BinaryOp::GtEq => (1.0 - below).clamp(0.001, 1.0),
            _ => DEFAULT_RANGE_SELECTIVITY,
        }
    }
}

/// Trace a column reference through pass-through operators down to the base
/// relation it scans, for statistics lookup. Returns `(relation, column)`.
pub(crate) fn resolve_base_column<'a>(
    plan: &'a LogicalPlan,
    qualifier: Option<&str>,
    name: &str,
) -> Option<(&'a str, &'a str)> {
    match plan {
        LogicalPlan::Scan {
            relation,
            alias,
            schema,
        } => {
            if let Some(q) = qualifier {
                if !q.eq_ignore_ascii_case(alias) {
                    return None;
                }
            }
            schema
                .fields
                .iter()
                .find(|f| f.name.eq_ignore_ascii_case(name))
                .map(|f| (relation.as_str(), &*f.name))
        }
        LogicalPlan::Placeholder { .. } | LogicalPlan::OneRow => None,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input } => resolve_base_column(input, qualifier, name),
        LogicalPlan::SubqueryAlias { input, alias, .. } => {
            if let Some(q) = qualifier {
                if !q.eq_ignore_ascii_case(alias) {
                    return None;
                }
            }
            resolve_base_column(input, None, name)
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let (e, _) = exprs.iter().find(|(_, n)| n.eq_ignore_ascii_case(name))?;
            if let Expr::Column {
                qualifier: q,
                name: n,
            } = e
            {
                resolve_base_column(input, q.as_deref(), n)
            } else {
                None
            }
        }
        LogicalPlan::Join { left, right, .. } => resolve_base_column(left, qualifier, name)
            .or_else(|| resolve_base_column(right, qualifier, name)),
        // Semi-join output is the left side only.
        LogicalPlan::SemiJoin { left, .. } => resolve_base_column(left, qualifier, name),
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let (e, _) = group_by
                .iter()
                .find(|(_, n)| n.eq_ignore_ascii_case(name))?;
            if let Expr::Column {
                qualifier: q,
                name: n,
            } = e
            {
                resolve_base_column(input, q.as_deref(), n)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;
    use std::collections::HashMap;

    struct MapStats {
        rows: HashMap<String, f64>,
        cols: HashMap<(String, String), ColumnStats>,
    }

    impl StatsProvider for MapStats {
        fn table_rows(&self, relation: &str) -> Option<f64> {
            self.rows.get(relation).copied()
        }

        fn column_stats(&self, relation: &str, column: &str) -> Option<ColumnStats> {
            self.cols
                .get(&(relation.to_string(), column.to_string()))
                .cloned()
        }
    }

    fn scan(rel: &str, alias: &str, cols: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::scan(rel, alias, cols.iter().map(|(n, t)| ((*n).into(), *t)))
    }

    fn stats() -> MapStats {
        let mut rows = HashMap::new();
        rows.insert("orders".to_string(), 15000.0);
        rows.insert("customer".to_string(), 1500.0);
        let mut cols = HashMap::new();
        cols.insert(
            ("orders".to_string(), "o_custkey".to_string()),
            ColumnStats {
                n_distinct: 1000.0,
                min: Some(Value::Int(1)),
                max: Some(Value::Int(1500)),
            },
        );
        cols.insert(
            ("customer".to_string(), "c_custkey".to_string()),
            ColumnStats {
                n_distinct: 1500.0,
                min: Some(Value::Int(1)),
                max: Some(Value::Int(1500)),
            },
        );
        cols.insert(
            ("orders".to_string(), "o_orderdate".to_string()),
            ColumnStats {
                n_distinct: 2400.0,
                min: Some(Value::Date(8035)),  // ~1992-01-01
                max: Some(Value::Date(10592)), // ~1998-12-31
            },
        );
        MapStats { rows, cols }
    }

    #[test]
    fn scan_uses_table_rows() {
        let s = stats();
        let est = Estimator::new(&s);
        assert_eq!(est.rows(&scan("orders", "o", &[])), 15000.0);
        assert_eq!(est.rows(&scan("unknown", "u", &[])), DEFAULT_TABLE_ROWS);
    }

    #[test]
    fn equality_uses_distinct() {
        let s = stats();
        let est = Estimator::new(&s);
        let plan = scan("orders", "o", &[("o_custkey", DataType::Int)]).filter(Expr::eq(
            Expr::qcol("o", "o_custkey"),
            Expr::lit(Value::Int(5)),
        ));
        let rows = est.rows(&plan);
        assert!((rows - 15.0).abs() < 1.0, "{rows}"); // 15000/1000
    }

    #[test]
    fn range_uses_min_max() {
        let s = stats();
        let est = Estimator::new(&s);
        // Mid-range cut: should be near half.
        let mid = Value::Date((8035 + 10592) / 2);
        let plan = scan("orders", "o", &[("o_orderdate", DataType::Date)]).filter(Expr::binary(
            BinaryOp::Lt,
            Expr::qcol("o", "o_orderdate"),
            Expr::lit(mid),
        ));
        let frac = est.rows(&plan) / 15000.0;
        assert!((frac - 0.5).abs() < 0.05, "{frac}");
    }

    #[test]
    fn join_cardinality_pk_fk() {
        let s = stats();
        let est = Estimator::new(&s);
        let o = scan("orders", "o", &[("o_custkey", DataType::Int)]);
        let c = scan("customer", "c", &[("c_custkey", DataType::Int)]);
        let j = o.join(
            c,
            vec![(Expr::qcol("o", "o_custkey"), Expr::qcol("c", "c_custkey"))],
        );
        // 15000 * 1500 / max(1000, 1500) = 15000.
        let rows = est.rows(&j);
        assert!((rows - 15000.0).abs() < 1.0, "{rows}");
    }

    #[test]
    fn aggregate_group_count() {
        let s = stats();
        let est = Estimator::new(&s);
        let plan = scan("orders", "o", &[("o_custkey", DataType::Int)])
            .aggregate(vec![(Expr::qcol("o", "o_custkey"), "k".into())], vec![]);
        assert_eq!(est.rows(&plan), 1000.0);
        // No grouping → one row.
        let total = scan("orders", "o", &[]).aggregate(vec![], vec![]);
        assert_eq!(est.rows(&total), 1.0);
    }

    #[test]
    fn limit_caps() {
        let s = stats();
        let est = Estimator::new(&s);
        let plan = LogicalPlan::Limit {
            input: Box::new(scan("orders", "o", &[])),
            fetch: 10,
        };
        assert_eq!(est.rows(&plan), 10.0);
    }

    #[test]
    fn and_or_compose() {
        let est = Estimator::new(&NoStats);
        let p = scan("t", "t", &[("a", DataType::Int)]);
        let and = Expr::and(
            Expr::eq(Expr::qcol("t", "a"), Expr::lit(Value::Int(1))),
            Expr::eq(Expr::qcol("t", "a"), Expr::lit(Value::Int(2))),
        );
        let sel_and = est.selectivity(&and, &p);
        assert!((sel_and - 0.01).abs() < 1e-9);
        let or = Expr::binary(
            BinaryOp::Or,
            Expr::eq(Expr::qcol("t", "a"), Expr::lit(Value::Int(1))),
            Expr::eq(Expr::qcol("t", "a"), Expr::lit(Value::Int(2))),
        );
        let sel_or = est.selectivity(&or, &p);
        assert!(sel_or > sel_and && sel_or < 0.2, "{sel_or}");
    }

    #[test]
    fn resolve_through_alias_and_project() {
        let inner = scan("orders", "o", &[("o_custkey", DataType::Int)])
            .project(vec![(Expr::qcol("o", "o_custkey"), "k".into())]);
        let aliased = inner.alias("sub");
        assert_eq!(
            resolve_base_column(&aliased, Some("sub"), "k"),
            Some(("orders", "o_custkey"))
        );
        assert_eq!(resolve_base_column(&aliased, Some("other"), "k"), None);
    }
}
