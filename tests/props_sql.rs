//! Property tests on the SQL frontend: rendering and re-parsing an
//! expression (or a whole SELECT) is the identity. This is the load-bearing
//! invariant behind delegation-by-query-rewriting.

use proptest::prelude::*;
use xdb::sql::ast::{
    BinaryOp, ColumnDef, DateField, Expr, IntervalUnit, ObjectKind, SelectItem, SelectStmt,
    Statement, TableRef, UnaryOp,
};
use xdb::sql::display::{render_expr_string, render_statement, Dialect};
use xdb::sql::keywords::KEYWORDS;
use xdb::sql::value::{DataType, Value};
use xdb::sql::{parse_expr, parse_statement, Dialect as D2};

fn literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<i32>().prop_map(|i| Expr::Literal(Value::Int(i as i64))),
        (-400i32..400, 0u8..4)
            .prop_map(|(n, q)| { Expr::Literal(Value::Float(n as f64 + q as f64 * 0.25)) }),
        "[a-zA-Z0-9 '%_]{0,12}".prop_map(|s| Expr::Literal(Value::str(s))),
        (1990i32..2000, 1u32..13, 1u32..28).prop_map(|(y, m, d)| {
            Expr::Literal(Value::Date(xdb::sql::value::date::days_from_ymd(y, m, d)))
        }),
        Just(Expr::Literal(Value::Bool(true))),
        Just(Expr::Literal(Value::Bool(false))),
        Just(Expr::Literal(Value::Null)),
    ]
}

fn column() -> impl Strategy<Value = Expr> {
    prop_oneof![
        "[a-z][a-z0-9_]{0,8}".prop_map(Expr::col),
        ("[a-z][a-z0-9]{0,4}", "[a-z][a-z0-9_]{0,8}").prop_map(|(q, n)| Expr::qcol(q, n)),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![literal(), column()];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinaryOp::Plus),
                    Just(BinaryOp::Minus),
                    Just(BinaryOp::Mul),
                    Just(BinaryOp::Div),
                    Just(BinaryOp::Mod),
                    Just(BinaryOp::Eq),
                    Just(BinaryOp::NotEq),
                    Just(BinaryOp::Lt),
                    Just(BinaryOp::LtEq),
                    Just(BinaryOp::Gt),
                    Just(BinaryOp::GtEq),
                    Just(BinaryOp::And),
                    Just(BinaryOp::Or),
                    Just(BinaryOp::Concat),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            }),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, negated)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated,
                }
            ),
            (inner.clone(), "[a-z%_]{0,8}", any::<bool>()).prop_map(|(e, pattern, negated)| {
                Expr::Like {
                    expr: Box::new(e),
                    pattern,
                    negated,
                }
            }),
            (
                inner.clone(),
                prop::collection::vec(inner.clone(), 1..4),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated,
            }),
            (
                prop::collection::vec((inner.clone(), inner.clone()), 1..3),
                prop::option::of(inner.clone())
            )
                .prop_map(|(branches, else_expr)| Expr::Case {
                    operand: None,
                    branches,
                    else_expr: else_expr.map(Box::new),
                }),
            (
                prop_oneof![
                    Just(DateField::Year),
                    Just(DateField::Month),
                    Just(DateField::Day)
                ],
                inner.clone()
            )
                .prop_map(|(field, e)| Expr::Extract {
                    field,
                    expr: Box::new(e),
                }),
            (
                inner,
                (1i64..40),
                prop_oneof![
                    Just(IntervalUnit::Year),
                    Just(IntervalUnit::Month),
                    Just(IntervalUnit::Day)
                ]
            )
                .prop_map(|(e, n, unit)| Expr::binary(
                    BinaryOp::Plus,
                    e,
                    Expr::Interval { n, unit }
                )),
        ]
    })
}

/// A word of the parser's keyword table, in one of three spellings.
fn keyword_name() -> impl Strategy<Value = String> {
    (0..KEYWORDS.len(), 0u8..3).prop_map(|(i, spelling)| {
        let word = KEYWORDS[i].word;
        match spelling {
            0 => word.to_string(),
            1 => word.to_ascii_lowercase(),
            _ => word[..1].to_string() + &word[1..].to_ascii_lowercase(),
        }
    })
}

/// Statements that carry `column`, `alias`, `table` and `qualifier` in
/// every position a name can take.
fn statements_naming(column: &str, alias: &str, table: &str, qualifier: &str) -> Vec<Statement> {
    let select = SelectStmt {
        projection: vec![
            SelectItem::Expr {
                expr: Expr::binary(
                    BinaryOp::Plus,
                    Expr::qcol(qualifier, column),
                    Expr::binary(BinaryOp::Plus, Expr::col(column), Expr::lit(Value::Int(1))),
                ),
                alias: Some(alias.to_string()),
            },
            SelectItem::Expr {
                expr: Expr::col(column),
                alias: None,
            },
            SelectItem::QualifiedWildcard(qualifier.to_string()),
        ],
        from: vec![
            TableRef::Table {
                name: table.to_string(),
                alias: Some(qualifier.to_string()),
            },
            TableRef::Table {
                name: table.to_string(),
                alias: None,
            },
            TableRef::Derived {
                query: Box::new(SelectStmt {
                    projection: vec![SelectItem::Wildcard],
                    from: vec![TableRef::Table {
                        name: table.to_string(),
                        alias: None,
                    }],
                    ..SelectStmt::default()
                }),
                alias: alias.to_string(),
            },
        ],
        selection: Some(Expr::binary(
            BinaryOp::Gt,
            Expr::col(column),
            Expr::qcol(qualifier, column),
        )),
        group_by: vec![Expr::col(column)],
        order_by: vec![xdb::sql::ast::OrderByExpr {
            expr: Expr::col(column),
            desc: true,
        }],
        ..SelectStmt::default()
    };
    let columns = vec![ColumnDef {
        name: column.to_string(),
        data_type: DataType::Int,
    }];
    vec![
        Statement::CreateView {
            name: table.to_string(),
            query: Box::new(select.clone()),
            or_replace: false,
        },
        Statement::CreateTableAs {
            name: table.to_string(),
            query: Box::new(select.clone()),
        },
        Statement::Select(Box::new(select)),
        Statement::CreateTable {
            name: table.to_string(),
            columns: columns.clone(),
            if_not_exists: false,
        },
        Statement::CreateForeignTable {
            name: table.to_string(),
            columns,
            server: qualifier.to_string(),
            remote_name: Some(alias.to_string()),
        },
        Statement::Insert {
            table: table.to_string(),
            rows: vec![vec![Expr::lit(Value::Int(1))]],
        },
        Statement::Drop {
            kind: ObjectKind::Table,
            name: table.to_string(),
            if_exists: false,
        },
        Statement::Drop {
            kind: ObjectKind::View,
            name: table.to_string(),
            if_exists: true,
        },
    ]
}

fn assert_names_roundtrip(column: &str, alias: &str, table: &str, qualifier: &str) {
    for stmt in statements_naming(column, alias, table, qualifier) {
        for d in [D2::Generic, D2::PostgresLike, D2::MariaDbLike, D2::HiveLike] {
            let sql = render_statement(&stmt, d);
            let reparsed = parse_statement(&sql)
                .unwrap_or_else(|err| panic!("could not re-parse {sql:?} in {d:?}: {err}"));
            assert_eq!(reparsed, stmt, "dialect {d:?}, sql {sql}");
        }
    }
}

/// Every word the parser treats specially survives as a name in every
/// position: the renderer quotes exactly the words the parser would
/// otherwise take for keywords (`cast` and `extract` did not, once).
#[test]
fn every_keyword_roundtrips_as_a_name() {
    for k in KEYWORDS {
        let lower = k.word.to_ascii_lowercase();
        assert_names_roundtrip(&lower, &lower, &lower, &lower);
        assert_names_roundtrip(k.word, k.word, k.word, k.word);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn keywords_as_names_roundtrip_in_every_dialect(
        column in keyword_name(),
        alias in keyword_name(),
        table in keyword_name(),
        qualifier in keyword_name(),
    ) {
        assert_names_roundtrip(&column, &alias, &table, &qualifier);
    }

    #[test]
    fn expr_roundtrips_through_sql(e in arb_expr()) {
        let sql = render_expr_string(&e, Dialect::Generic);
        let reparsed = parse_expr(&sql)
            .unwrap_or_else(|err| panic!("could not re-parse {sql:?}: {err}"));
        prop_assert_eq!(&reparsed, &e, "sql was {}", sql);
    }

    #[test]
    fn expr_roundtrips_in_every_dialect(e in arb_expr()) {
        for d in [D2::Generic, D2::PostgresLike, D2::MariaDbLike, D2::HiveLike] {
            let sql = render_expr_string(&e, d);
            let reparsed = parse_expr(&sql)
                .unwrap_or_else(|err| panic!("could not re-parse {sql:?} in {d:?}: {err}"));
            prop_assert_eq!(&reparsed, &e, "dialect {:?}, sql {}", d, sql);
        }
    }

    #[test]
    fn conjunct_split_and_rejoin_is_identity(parts in prop::collection::vec(arb_expr(), 1..5)) {
        // Filter out AND at the top of parts (they'd flatten differently).
        let parts: Vec<Expr> = parts
            .into_iter()
            .filter(|p| !matches!(p, Expr::Binary { op: BinaryOp::And, .. }))
            .collect();
        prop_assume!(!parts.is_empty());
        let joined = Expr::conjoin(parts.clone()).unwrap();
        let split: Vec<Expr> = joined.into_conjuncts();
        prop_assert_eq!(split, parts);
    }
}
