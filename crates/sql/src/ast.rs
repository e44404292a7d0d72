//! Abstract syntax tree for the SQL dialect understood by every system in
//! the federation (XDB itself, the embedded engines, and the baselines).
//!
//! The AST is designed to round-trip: `parse(render(ast)) == ast` for every
//! statement the parser accepts, which is what makes *delegation by query
//! rewriting* possible (Section V of the paper).

use crate::value::{DataType, Value};
use std::borrow::Cow;

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Box<SelectStmt>),
    /// `EXPLAIN <select>` — returns the engine's cost estimate, used by the
    /// XDB optimizer's "consulting" approach (Section IV-B2).
    Explain(Box<SelectStmt>),
    /// `CREATE TABLE name (col type, ...)`
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        if_not_exists: bool,
    },
    /// `CREATE [OR REPLACE] VIEW name AS <select>` — the paper's
    /// *virtual relation* (DDL 1 / DDL 2-2 in Figure 7).
    CreateView {
        name: String,
        query: Box<SelectStmt>,
        or_replace: bool,
    },
    /// `CREATE FOREIGN TABLE name (col type, ...) SERVER srv [OPTIONS
    /// (remote 'rel')]` — the SQL/MED foreign table (DDL 2-1 in Figure 7).
    CreateForeignTable {
        name: String,
        columns: Vec<ColumnDef>,
        server: String,
        /// Name of the relation on the remote server this table points at.
        /// Defaults to `name` when omitted.
        remote_name: Option<String>,
    },
    /// `CREATE TABLE name AS <select>` — explicit materialization of an
    /// intermediate relation (Section V-A, "Enforcing Explicit Data
    /// Movements").
    CreateTableAs {
        name: String,
        query: Box<SelectStmt>,
    },
    /// `INSERT INTO name VALUES (...), (...)` — used by tests and loaders.
    Insert {
        table: String,
        rows: Vec<Vec<Expr>>,
    },
    /// `DROP TABLE|VIEW|FOREIGN TABLE [IF EXISTS] name` — delegation
    /// cleanup ("short-lived relations", Section III).
    Drop {
        kind: ObjectKind,
        name: String,
        if_exists: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    Table,
    View,
    ForeignTable,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
}

/// A `SELECT` query block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    /// Comma-separated FROM items; each may itself be a join tree.
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByExpr>,
    pub limit: Option<u64>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table, view, or foreign table reference with optional alias.
    Table { name: String, alias: Option<String> },
    /// Derived table: `(SELECT ...) AS alias`.
    Derived {
        query: Box<SelectStmt>,
        alias: String,
    },
    /// `left [INNER] JOIN right ON cond` (analytical subset: inner only).
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        on: Box<Expr>,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderByExpr {
    pub expr: Expr,
    pub desc: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Plus,
    Minus,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl BinaryOp {
    pub(crate) fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// Mirror of a comparison when its operands are swapped (`a < b` ≡ `b > a`).
    pub(crate) fn mirror(self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => other,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DateField {
    Year,
    Month,
    Day,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalUnit {
    Year,
    Month,
    Day,
}

/// A relation or column name, interned: the catalogs allocate it once per
/// relation, and every schema and column reference that mentions it shares
/// that allocation.
pub type Name = std::sync::Arc<str>;

/// `name` in the lower case the catalogs key relations and columns by.
/// Only a name that holds an upper-case ASCII letter is copied; the TPC-H
/// names and every generated `xdb_q*` name are handed back as they are.
pub fn lower_name(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `[qualifier.]name`
    Column {
        qualifier: Option<Name>,
        name: Name,
    },
    Literal(Value),
    /// `INTERVAL '<n>' <unit>`; only meaningful added to / subtracted from
    /// a date.
    Interval {
        n: i64,
        unit: IntervalUnit,
    },
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    /// Scalar or aggregate function call. Aggregates (`SUM`, `AVG`,
    /// `COUNT`, `MIN`, `MAX`) are recognized by name downstream.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    /// `COUNT(*)`
    CountStar,
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)` — only valid in WHERE/HAVING position;
    /// the binder turns it into a semi/anti join.
    Exists {
        query: Box<SelectStmt>,
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)` — binder turns it into a semi/anti join
    /// on equality with the subquery's single output column.
    InSubquery {
        expr: Box<Expr>,
        query: Box<SelectStmt>,
        negated: bool,
    },
    /// `EXTRACT(field FROM expr)`
    Extract {
        field: DateField,
        expr: Box<Expr>,
    },
    Cast {
        expr: Box<Expr>,
        data_type: DataType,
    },
}

impl Expr {
    pub fn col(name: impl Into<Name>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    pub fn qcol(qualifier: impl Into<Name>, name: impl Into<Name>) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::Eq, left, right)
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::And, left, right)
    }

    /// Conjoin a list of predicates; `None` if empty.
    pub fn conjoin(preds: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        preds.into_iter().reduce(Expr::and)
    }

    /// Split a predicate tree into its top-level AND conjuncts.
    pub(crate) fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary {
                    op: BinaryOp::And,
                    left,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Same as [`Expr::conjuncts`] but consuming, returning owned conjuncts.
    pub fn into_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                let mut v = left.into_conjuncts();
                v.extend(right.into_conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Visit every sub-expression (pre-order), including `self`.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Extract { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Like { expr, .. } => expr.walk(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            // Subqueries are separate scopes; their internals are not
            // walked as part of the enclosing expression.
            Expr::Exists { .. } | Expr::InSubquery { .. } => {
                if let Expr::InSubquery { expr, .. } = self {
                    expr.walk(f);
                }
            }
            Expr::Column { .. } | Expr::Literal(_) | Expr::Interval { .. } | Expr::CountStar => {}
        }
    }

    /// Transform every sub-expression bottom-up.
    pub fn transform(self, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Binary { op, left, right } => Expr::Binary {
                op,
                left: Box::new(left.transform(f)),
                right: Box::new(right.transform(f)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op,
                expr: Box::new(expr.transform(f)),
            },
            Expr::Function {
                name,
                args,
                distinct,
            } => Expr::Function {
                name,
                args: args.into_iter().map(|a| a.transform(f)).collect(),
                distinct,
            },
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => Expr::Case {
                operand: operand.map(|o| Box::new(o.transform(f))),
                branches: branches
                    .into_iter()
                    .map(|(w, t)| (w.transform(f), t.transform(f)))
                    .collect(),
                else_expr: else_expr.map(|e| Box::new(e.transform(f))),
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(expr.transform(f)),
                low: Box::new(low.transform(f)),
                high: Box::new(high.transform(f)),
                negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.transform(f)),
                pattern,
                negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.into_iter().map(|e| e.transform(f)).collect(),
                negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform(f)),
                negated,
            },
            Expr::Extract { field, expr } => Expr::Extract {
                field,
                expr: Box::new(expr.transform(f)),
            },
            Expr::Cast { expr, data_type } => Expr::Cast {
                expr: Box::new(expr.transform(f)),
                data_type,
            },
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => Expr::InSubquery {
                expr: Box::new(expr.transform(f)),
                query,
                negated,
            },
            leaf @ (Expr::Column { .. }
            | Expr::Literal(_)
            | Expr::Interval { .. }
            | Expr::CountStar
            | Expr::Exists { .. }) => leaf,
        };
        f(rebuilt)
    }

    /// True if the expression contains an aggregate function call anywhere.
    pub(crate) fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| match e {
            Expr::CountStar => found = true,
            Expr::Function { name, .. } if is_aggregate_name(name) => found = true,
            _ => {}
        });
        found
    }
}

/// Whether a function name denotes one of the supported aggregates.
pub fn is_aggregate_name(name: &str) -> bool {
    ["sum", "avg", "count", "min", "max"]
        .iter()
        .any(|agg| agg.eq_ignore_ascii_case(name))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every column reference `(qualifier, name)` in `e`, in walk order.
    pub(crate) fn referenced_columns(e: &Expr) -> Vec<(Option<&str>, &str)> {
        let mut out = Vec::new();
        e.walk(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                out.push((qualifier.as_deref(), &**name));
            }
        });
        out
    }

    #[test]
    fn conjunct_splitting() {
        let e = Expr::and(
            Expr::and(Expr::col("a"), Expr::col("b")),
            Expr::binary(BinaryOp::Or, Expr::col("c"), Expr::col("d")),
        );
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        let owned = e.clone().into_conjuncts();
        assert_eq!(owned.len(), 3);
        assert_eq!(Expr::conjoin(owned), Some(e));
    }

    #[test]
    fn referenced_columns_walks_everything() {
        let e = Expr::Case {
            operand: None,
            branches: vec![(
                Expr::binary(
                    BinaryOp::Lt,
                    Expr::qcol("c", "age"),
                    Expr::lit(Value::Int(30)),
                ),
                Expr::lit(Value::str("20-30")),
            )],
            else_expr: Some(Box::new(Expr::col("fallback"))),
        };
        let cols = referenced_columns(&e);
        assert_eq!(cols, vec![(Some("c"), "age"), (None, "fallback")]);
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Function {
            name: "sum".into(),
            args: vec![Expr::col("x")],
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        assert!(Expr::CountStar.contains_aggregate());
        let scalar = Expr::Function {
            name: "abs".into(),
            args: vec![Expr::col("x")],
            distinct: false,
        };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn mirror_ops() {
        assert_eq!(BinaryOp::Lt.mirror(), BinaryOp::Gt);
        assert_eq!(BinaryOp::Eq.mirror(), BinaryOp::Eq);
    }

    #[test]
    fn transform_rewrites_leaves() {
        let e = Expr::and(Expr::col("a"), Expr::col("b"));
        let rewritten = e.transform(&mut |x| match x {
            Expr::Column { name, .. } if &*name == "a" => Expr::col("z"),
            other => other,
        });
        assert_eq!(rewritten, Expr::and(Expr::col("z"), Expr::col("b")));
    }
}
