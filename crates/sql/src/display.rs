//! Rendering ASTs back to SQL text, per target dialect.
//!
//! Delegation works by *query rewriting* (Section V): the delegation engine
//! renders task expressions as DBMS-specific DDL/SELECT statements. Each
//! simulated vendor gets its own [`Dialect`] so the connectors exercise the
//! same translation layer a real deployment would need.

use crate::ast::*;
use crate::keywords::keyword;
use crate::value::Value;
use std::fmt::Write;

/// Identifier-quoting and literal-syntax rules for a DBMS family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// Internal canonical dialect (double-quoted identifiers when needed).
    Generic,
    /// PostgreSQL-like: `"ident"`, `DATE 'lit'`.
    PostgresLike,
    /// MariaDB/MySQL-like: `` `ident` ``, `DATE 'lit'`.
    MariaDbLike,
    /// Hive-like: `` `ident` ``, dates as `DATE 'lit'`.
    HiveLike,
}

impl Dialect {
    fn quote_char(self) -> char {
        match self {
            Dialect::Generic | Dialect::PostgresLike => '"',
            Dialect::MariaDbLike | Dialect::HiveLike => '`',
        }
    }

    /// Append `name` to `out`, quoted unless it is a plain name: letters,
    /// digits and `_`, not starting with a digit, and not a word of the
    /// parser's keyword table. A quote character inside a quoted name is
    /// doubled.
    pub(crate) fn write_ident(self, name: &str, out: &mut String) {
        let bytes = name.as_bytes();
        let plain = bytes
            .first()
            .is_some_and(|&b| b == b'_' || b.is_ascii_alphabetic())
            && bytes
                .iter()
                .all(|&b| b == b'_' || b.is_ascii_alphanumeric())
            && keyword(name).is_none();
        if plain {
            out.push_str(name);
        } else {
            push_quoted(out, name, self.quote_char());
        }
    }

    /// [`Dialect::write_ident`] into a string of its own.
    pub fn ident(self, name: &str) -> String {
        let mut out = String::with_capacity(name.len() + 2);
        self.write_ident(name, &mut out);
        out
    }
}

/// Append `text` between two `quote`s, doubling every `quote` inside it.
fn push_quoted(out: &mut String, text: &str, quote: char) {
    out.push(quote);
    for (i, part) in text.split(quote).enumerate() {
        if i > 0 {
            out.push(quote);
            out.push(quote);
        }
        out.push_str(part);
    }
    out.push(quote);
}

/// Where a statement's output buffer starts: the shortest statements fit,
/// and the longest get there in two or three doublings instead of seven.
const STATEMENT_CAPACITY: usize = 128;

/// Render a statement in the given dialect.
pub fn render_statement(stmt: &Statement, dialect: Dialect) -> String {
    let mut out = String::with_capacity(STATEMENT_CAPACITY);
    match stmt {
        Statement::Select(s) => render_select(s, dialect, &mut out),
        Statement::Explain(s) => {
            out.push_str("EXPLAIN ");
            render_select(s, dialect, &mut out);
        }
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            out.push_str("CREATE TABLE ");
            if *if_not_exists {
                out.push_str("IF NOT EXISTS ");
            }
            dialect.write_ident(name, &mut out);
            render_column_defs(columns, dialect, &mut out);
        }
        Statement::CreateView {
            name,
            query,
            or_replace,
        } => {
            out.push_str("CREATE ");
            if *or_replace {
                out.push_str("OR REPLACE ");
            }
            out.push_str("VIEW ");
            dialect.write_ident(name, &mut out);
            out.push_str(" AS ");
            render_select(query, dialect, &mut out);
        }
        Statement::CreateForeignTable {
            name,
            columns,
            server,
            remote_name,
        } => {
            out.push_str("CREATE FOREIGN TABLE ");
            dialect.write_ident(name, &mut out);
            render_column_defs(columns, dialect, &mut out);
            out.push_str(" SERVER ");
            dialect.write_ident(server, &mut out);
            if let Some(remote) = remote_name {
                out.push_str(" OPTIONS (remote ");
                push_quoted(&mut out, remote, '\'');
                out.push(')');
            }
        }
        Statement::CreateTableAs { name, query } => {
            out.push_str("CREATE TABLE ");
            dialect.write_ident(name, &mut out);
            out.push_str(" AS ");
            render_select(query, dialect, &mut out);
        }
        Statement::Insert { table, rows } => {
            out.push_str("INSERT INTO ");
            dialect.write_ident(table, &mut out);
            out.push_str(" VALUES ");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('(');
                for (j, e) in row.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    render_expr(e, dialect, &mut out);
                }
                out.push(')');
            }
        }
        Statement::Drop {
            kind,
            name,
            if_exists,
        } => {
            out.push_str("DROP ");
            out.push_str(match kind {
                ObjectKind::Table => "TABLE ",
                ObjectKind::View => "VIEW ",
                ObjectKind::ForeignTable => "FOREIGN TABLE ",
            });
            if *if_exists {
                out.push_str("IF EXISTS ");
            }
            dialect.write_ident(name, &mut out);
        }
    }
    out
}

fn render_column_defs(columns: &[ColumnDef], dialect: Dialect, out: &mut String) {
    out.push_str(" (");
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        dialect.write_ident(&c.name, out);
        out.push(' ');
        let _ = write!(out, "{}", c.data_type);
    }
    out.push(')');
}

/// Render a SELECT statement.
pub fn render_select_string(s: &SelectStmt, dialect: Dialect) -> String {
    let mut out = String::with_capacity(STATEMENT_CAPACITY);
    render_select(s, dialect, &mut out);
    out
}

fn render_select(s: &SelectStmt, dialect: Dialect, out: &mut String) {
    out.push_str("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in s.projection.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(q) => {
                dialect.write_ident(q, out);
                out.push_str(".*");
            }
            SelectItem::Expr { expr, alias } => {
                render_expr(expr, dialect, out);
                if let Some(a) = alias {
                    out.push_str(" AS ");
                    dialect.write_ident(a, out);
                }
            }
        }
    }
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        for (i, t) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_table_ref(t, dialect, out);
        }
    }
    if let Some(w) = &s.selection {
        out.push_str(" WHERE ");
        render_expr(w, dialect, out);
    }
    if !s.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, g) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_expr(g, dialect, out);
        }
    }
    if let Some(h) = &s.having {
        out.push_str(" HAVING ");
        render_expr(h, dialect, out);
    }
    if !s.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, o) in s.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_expr(&o.expr, dialect, out);
            if o.desc {
                out.push_str(" DESC");
            }
        }
    }
    if let Some(n) = s.limit {
        let _ = write!(out, " LIMIT {n}");
    }
}

fn render_table_ref(t: &TableRef, dialect: Dialect, out: &mut String) {
    match t {
        TableRef::Table { name, alias } => {
            dialect.write_ident(name, out);
            if let Some(a) = alias {
                out.push_str(" AS ");
                dialect.write_ident(a, out);
            }
        }
        TableRef::Derived { query, alias } => {
            out.push('(');
            render_select(query, dialect, out);
            out.push_str(") AS ");
            dialect.write_ident(alias, out);
        }
        TableRef::Join { left, right, on } => {
            render_table_ref(left, dialect, out);
            out.push_str(" JOIN ");
            // Parenthesize a right-nested join to preserve shape.
            if matches!(**right, TableRef::Join { .. }) {
                out.push('(');
                render_table_ref(right, dialect, out);
                out.push(')');
            } else {
                render_table_ref(right, dialect, out);
            }
            out.push_str(" ON ");
            render_expr(on, dialect, out);
        }
    }
}

/// Binding strength for parenthesization. Higher binds tighter.
fn precedence(e: &Expr) -> u8 {
    match e {
        Expr::Binary { op, .. } => match op {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            op if op.is_comparison() => 4,
            BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Concat => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
            _ => 4,
        },
        Expr::Unary {
            op: UnaryOp::Not, ..
        } => 3,
        Expr::Between { .. } | Expr::Like { .. } | Expr::InList { .. } | Expr::IsNull { .. } => 4,
        Expr::Unary {
            op: UnaryOp::Neg, ..
        } => 7,
        _ => 10,
    }
}

/// Render an expression in the given dialect.
pub fn render_expr_string(e: &Expr, dialect: Dialect) -> String {
    let mut out = String::new();
    render_expr(e, dialect, &mut out);
    out
}

fn render_child(child: &Expr, parent_prec: u8, dialect: Dialect, out: &mut String) {
    if precedence(child) < parent_prec {
        out.push('(');
        render_expr(child, dialect, out);
        out.push(')');
    } else {
        render_expr(child, dialect, out);
    }
}

fn render_expr(e: &Expr, dialect: Dialect, out: &mut String) {
    match e {
        Expr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                dialect.write_ident(q, out);
                out.push('.');
            }
            dialect.write_ident(name, out);
        }
        Expr::Literal(v) => render_literal(v, out),
        Expr::Interval { n, unit } => {
            let unit_s = match unit {
                IntervalUnit::Year => "YEAR",
                IntervalUnit::Month => "MONTH",
                IntervalUnit::Day => "DAY",
            };
            let _ = write!(out, "INTERVAL '{n}' {unit_s}");
        }
        Expr::Binary { op, left, right } => {
            let prec = precedence(e);
            // Comparisons are non-associative: a same-precedence left
            // child (another comparison or a postfix predicate) must keep
            // its parentheses.
            let left_prec = if op.is_comparison() { prec + 1 } else { prec };
            render_child(left, left_prec, dialect, out);
            out.push_str(match op {
                BinaryOp::Plus => " + ",
                BinaryOp::Minus => " - ",
                BinaryOp::Mul => " * ",
                BinaryOp::Div => " / ",
                BinaryOp::Mod => " % ",
                BinaryOp::Eq => " = ",
                BinaryOp::NotEq => " <> ",
                BinaryOp::Lt => " < ",
                BinaryOp::LtEq => " <= ",
                BinaryOp::Gt => " > ",
                BinaryOp::GtEq => " >= ",
                BinaryOp::And => " AND ",
                BinaryOp::Or => " OR ",
                BinaryOp::Concat => " || ",
            });
            // Right side needs a strictly-higher precedence to preserve
            // left-associativity of `-`, `/` on round-trips.
            render_child(right, prec + 1, dialect, out);
        }
        Expr::Unary { op, expr } => {
            match op {
                UnaryOp::Neg => out.push('-'),
                UnaryOp::Not => out.push_str("NOT "),
            }
            render_child(expr, precedence(e) + 1, dialect, out);
        }
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            out.push_str(name);
            out.push('(');
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(a, dialect, out);
            }
            out.push(')');
        }
        Expr::CountStar => out.push_str("count(*)"),
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            out.push_str("CASE");
            if let Some(op) = operand {
                out.push(' ');
                render_expr(op, dialect, out);
            }
            for (w, t) in branches {
                out.push_str(" WHEN ");
                render_expr(w, dialect, out);
                out.push_str(" THEN ");
                render_expr(t, dialect, out);
            }
            if let Some(el) = else_expr {
                out.push_str(" ELSE ");
                render_expr(el, dialect, out);
            }
            out.push_str(" END");
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            render_child(expr, 5, dialect, out);
            if *negated {
                out.push_str(" NOT");
            }
            out.push_str(" BETWEEN ");
            render_child(low, 5, dialect, out);
            out.push_str(" AND ");
            render_child(high, 5, dialect, out);
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            render_child(expr, 5, dialect, out);
            if *negated {
                out.push_str(" NOT");
            }
            out.push_str(" LIKE ");
            push_quoted(out, pattern, '\'');
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            render_child(expr, 5, dialect, out);
            if *negated {
                out.push_str(" NOT");
            }
            out.push_str(" IN (");
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr(item, dialect, out);
            }
            out.push(')');
        }
        Expr::IsNull { expr, negated } => {
            render_child(expr, 5, dialect, out);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        Expr::Exists { query, negated } => {
            if *negated {
                out.push_str("NOT ");
            }
            out.push_str("EXISTS (");
            render_select(query, dialect, out);
            out.push(')');
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            render_child(expr, 5, dialect, out);
            if *negated {
                out.push_str(" NOT");
            }
            out.push_str(" IN (");
            render_select(query, dialect, out);
            out.push(')');
        }
        Expr::Extract { field, expr } => {
            out.push_str("EXTRACT(");
            out.push_str(match field {
                DateField::Year => "YEAR",
                DateField::Month => "MONTH",
                DateField::Day => "DAY",
            });
            out.push_str(" FROM ");
            render_expr(expr, dialect, out);
            out.push(')');
        }
        Expr::Cast { expr, data_type } => {
            out.push_str("CAST(");
            render_expr(expr, dialect, out);
            let _ = write!(out, " AS {data_type})");
        }
    }
}

fn render_literal(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("NULL"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.fract() == 0.0 && f.abs() < 1e15 {
                let _ = write!(out, "{f:.1}");
            } else {
                let _ = write!(out, "{f}");
            }
        }
        Value::Str(s) => push_quoted(out, s, '\''),
        Value::Date(d) => {
            let _ = write!(out, "DATE '{}'", crate::value::date::format_days(*d));
        }
        Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_select, parse_statement};

    fn roundtrip_select(sql: &str) {
        let ast = parse_select(sql).unwrap();
        let rendered = render_select_string(&ast, Dialect::Generic);
        let reparsed = parse_select(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
        assert_eq!(ast, reparsed, "round-trip mismatch for {rendered:?}");
    }

    fn roundtrip_expr(sql: &str) {
        let ast = parse_expr(sql).unwrap();
        let rendered = render_expr_string(&ast, Dialect::Generic);
        let reparsed = parse_expr(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
        assert_eq!(ast, reparsed, "round-trip mismatch for {rendered:?}");
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip_select("SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY b DESC LIMIT 5");
    }

    #[test]
    fn roundtrip_exprs() {
        roundtrip_expr("a + b * c - d / e");
        roundtrip_expr("(a + b) * c");
        roundtrip_expr("a - (b - c)");
        roundtrip_expr("a / (b / c)");
        roundtrip_expr("not (a = 1 or b = 2)");
        roundtrip_expr("case when x < 1 then 'lo' else 'hi' end");
        roundtrip_expr("x between 1 and 10");
        roundtrip_expr("name like '%green%'");
        roundtrip_expr("x in (1, 2, 3)");
        roundtrip_expr("x is not null");
        roundtrip_expr("extract(year from d)");
        roundtrip_expr("cast(x as bigint)");
        roundtrip_expr("sum(l_extendedprice * (1 - l_discount))");
        roundtrip_expr("d + interval '3' month");
    }

    #[test]
    fn roundtrip_tpch_q3() {
        roundtrip_select(
            "select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue, o_orderdate, o_shippriority \
             from customer, orders, lineitem \
             where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey \
               and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15' \
             group by l_orderkey, o_orderdate, o_shippriority \
             order by revenue desc, o_orderdate limit 10",
        );
    }

    #[test]
    fn roundtrip_derived_and_joins() {
        roundtrip_select(
            "select x from (select a as x from t where a > 0) as d join u on d.x = u.y",
        );
    }

    #[test]
    fn roundtrip_ddl() {
        for sql in [
            "CREATE VIEW v AS SELECT a FROM t",
            "CREATE OR REPLACE VIEW v AS SELECT a FROM t",
            "CREATE TABLE t (a BIGINT, b VARCHAR, c DATE)",
            "CREATE TABLE m AS SELECT * FROM v",
            "CREATE FOREIGN TABLE f (a BIGINT) SERVER s OPTIONS (remote 'r')",
            "DROP VIEW IF EXISTS v",
            "INSERT INTO t VALUES (1, 'x', DATE '1995-01-01')",
        ] {
            let ast = parse_statement(sql).unwrap();
            let rendered = render_statement(&ast, Dialect::Generic);
            let reparsed = parse_statement(&rendered)
                .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
            assert_eq!(ast, reparsed, "round-trip mismatch for {rendered:?}");
        }
    }

    #[test]
    fn dialect_quoting() {
        assert_eq!(Dialect::PostgresLike.ident("simple"), "simple");
        assert_eq!(Dialect::PostgresLike.ident("Weird Col"), "\"Weird Col\"");
        assert_eq!(Dialect::MariaDbLike.ident("Weird Col"), "`Weird Col`");
        assert_eq!(Dialect::Generic.ident("select"), "\"select\"");
        assert_eq!(Dialect::Generic.ident("1abc"), "\"1abc\"");
    }

    #[test]
    fn string_escaping() {
        let e = Expr::lit(Value::str("it's"));
        assert_eq!(render_expr_string(&e, Dialect::Generic), "'it''s'");
    }
}
