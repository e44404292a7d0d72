//! SQL frontend edge cases: lexical oddities, quoting, precedence corners,
//! and error reporting across lexer → parser → binder.

use xdb_sql::algebra::plan_to_select;
use xdb_sql::bind::{bind_select, intern_fields, ResolvedRelation, SchemaProvider};
use xdb_sql::display::{render_select_string, render_statement, Dialect};
use xdb_sql::value::DataType;
use xdb_sql::{parse_expr, parse_script, parse_select, parse_statement};

struct OneTable;

impl SchemaProvider for OneTable {
    fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
        name.eq_ignore_ascii_case("t")
            .then(|| ResolvedRelation::Base {
                fields: intern_fields(&[
                    ("a", DataType::Int),
                    ("b", DataType::Str),
                    ("select", DataType::Int), // reserved-word column
                ]),
            })
    }
}

#[test]
fn quoted_keywords_as_identifiers() {
    let s = parse_select("SELECT \"select\" FROM t WHERE \"select\" > 1").unwrap();
    let plan = bind_select(&s, &OneTable).unwrap();
    assert_eq!(&*plan.schema().fields[0].name, "select");
    // Round-trip keeps the quoting.
    let rendered = render_select_string(&s, Dialect::Generic);
    assert!(rendered.contains("\"select\""), "{rendered}");
    parse_select(&rendered).unwrap();
}

#[test]
fn backtick_quoting_in_mariadb_dialect() {
    let s = parse_select("SELECT `select` FROM t").unwrap();
    let rendered = render_select_string(&s, Dialect::MariaDbLike);
    assert!(rendered.contains("`select`"), "{rendered}");
}

#[test]
fn unicode_string_literals() {
    let e = parse_expr("'héllo wörld — ±∞'").unwrap();
    let rendered = xdb_sql::display::render_expr_string(&e, Dialect::Generic);
    assert_eq!(parse_expr(&rendered).unwrap(), e);
}

#[test]
fn deeply_nested_parentheses() {
    let mut sql = String::from("1");
    for _ in 0..60 {
        sql = format!("({sql} + 1)");
    }
    parse_expr(&sql).unwrap();
    // Far past the nesting bound the answer is an error, not a dead process.
    let hopeless = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
    let err = parse_expr(&hopeless).unwrap_err();
    assert_eq!(err.message, "expression nested too deeply");
    let err = parse_select(&format!("SELECT {hopeless} FROM t")).unwrap_err();
    assert_eq!(err.message, "expression nested too deeply");
}

#[test]
fn comments_everywhere() {
    let s = parse_select("SELECT /* head */ a -- trailing\n FROM /* mid */ t WHERE a > 0 -- tail")
        .unwrap();
    assert_eq!(s.projection.len(), 1);
}

#[test]
fn semicolon_handling_in_scripts() {
    assert_eq!(parse_script(";;;").unwrap().len(), 0);
    assert_eq!(
        parse_script("SELECT 1 AS x;; SELECT 2 AS y;")
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn not_precedence_binds_tighter_than_and() {
    // NOT a AND b  ==  (NOT a) AND b
    let e = parse_expr("not a = 1 and b = 2").unwrap();
    match e {
        xdb_sql::Expr::Binary {
            op: xdb_sql::ast::BinaryOp::And,
            ..
        } => {}
        other => panic!("expected AND at top, got {other:?}"),
    }
}

#[test]
fn between_binds_its_and() {
    // BETWEEN's AND must not be confused with logical AND.
    let e = parse_expr("a between 1 and 2 and b = 3").unwrap();
    match e {
        xdb_sql::Expr::Binary {
            op: xdb_sql::ast::BinaryOp::And,
            left,
            ..
        } => assert!(matches!(*left, xdb_sql::Expr::Between { .. })),
        other => panic!("expected AND(between, eq), got {other:?}"),
    }
}

#[test]
fn chained_comparison_rejected() {
    assert!(parse_expr("a = b = c").is_err());
}

#[test]
fn error_offsets_point_into_input() {
    let err = parse_select("SELECT a FROM t WHERE").unwrap_err();
    assert!(err.offset >= "SELECT a FROM t WHERE".len() - 1);
    let err = parse_select("SELECT a FRUM t").unwrap_err();
    assert!(err.offset > 0);
}

#[test]
fn binder_reports_bad_ordinals() {
    let s = parse_select("SELECT a FROM t GROUP BY 7").unwrap();
    let err = bind_select(&s, &OneTable).unwrap_err();
    assert!(err.message.contains("ordinal"), "{}", err.message);
    let s = parse_select("SELECT a, count(*) FROM t GROUP BY a ORDER BY 9").unwrap();
    let err = bind_select(&s, &OneTable).unwrap_err();
    assert!(err.message.contains("ordinal"), "{}", err.message);
}

#[test]
fn ambiguous_column_reported() {
    struct TwoTables;
    impl SchemaProvider for TwoTables {
        fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
            matches!(name, "x" | "y").then(|| ResolvedRelation::Base {
                fields: intern_fields(&[("k", DataType::Int)]),
            })
        }
    }
    let s = parse_select("SELECT k FROM x, y").unwrap();
    let err = bind_select(&s, &TwoTables).unwrap_err();
    assert!(err.message.contains("ambiguous"), "{}", err.message);
}

#[test]
fn plan_to_select_roundtrips_reserved_columns() {
    let s = parse_select("SELECT \"select\" AS s2 FROM t WHERE \"select\" IN (1, 2)").unwrap();
    let plan = bind_select(&s, &OneTable).unwrap();
    let lowered = plan_to_select(&plan).unwrap();
    let sql = render_select_string(&lowered, Dialect::Generic);
    // Must re-parse and re-bind.
    let reparsed = parse_select(&sql).unwrap();
    bind_select(&reparsed, &OneTable).unwrap();
}

#[test]
fn ddl_dialect_rendering_quotes_consistently() {
    let stmt = parse_statement(
        "CREATE FOREIGN TABLE \"weird name\" (a BIGINT) SERVER s OPTIONS (remote 'r''s')",
    )
    .unwrap();
    for d in [
        Dialect::PostgresLike,
        Dialect::MariaDbLike,
        Dialect::HiveLike,
    ] {
        let rendered = render_statement(&stmt, d);
        let reparsed =
            parse_statement(&rendered).unwrap_or_else(|e| panic!("{d:?}: {e}\n{rendered}"));
        assert_eq!(reparsed, stmt, "{rendered}");
    }
}

#[test]
fn float_literal_precision_survives() {
    for lit in ["0.1", "3.141592653589793", "1e10", "2.5e-3"] {
        let e = parse_expr(lit).unwrap();
        let rendered = xdb_sql::display::render_expr_string(&e, Dialect::Generic);
        assert_eq!(parse_expr(&rendered).unwrap(), e, "{lit} → {rendered}");
    }
}

#[test]
fn empty_input_is_an_error() {
    assert!(parse_statement("").is_err());
    assert!(parse_expr("").is_err());
    assert!(parse_script("").map(|v| v.is_empty()).unwrap_or(false));
}

#[test]
fn case_without_when_rejected() {
    assert!(parse_expr("case end").is_err());
    assert!(parse_expr("case a end").is_err());
}

#[test]
fn limit_requires_nonnegative_integer() {
    assert!(parse_select("SELECT a FROM t LIMIT -1").is_err());
    assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
}
