//! Property tests for the columnar data plane: the vectorized kernels must
//! be *observationally identical* to row-at-a-time evaluation — same
//! values, same Value variants, same row order — on randomly generated
//! relations and expressions. (The join and grouping operators have their
//! own differential tests in `crates/engine/tests/`.)

use proptest::prelude::*;
use xdb::engine::expr::compile;
use xdb::engine::relation::Relation;
use xdb::engine::vector;
use xdb::sql::algebra::{Field, PlanSchema};
use xdb::sql::ast::{BinaryOp, Expr, UnaryOp};
use xdb::sql::value::{DataType, Value};

// ------------------------------------------------------- random relations

/// One random row for the fixed test schema (i, f, s, d, b), with
/// independent NULLs per cell.
fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (
        prop::option::of(-1000i64..1000),
        prop::option::of((-4000i32..4000).prop_map(|n| n as f64 * 0.25)),
        prop::option::of("[a-c]{0,6}"),
        prop::option::of(9000i32..12000),
        prop::option::of(any::<bool>()),
    )
        .prop_map(|(i, f, s, d, b)| {
            vec![
                i.map_or(Value::Null, Value::Int),
                f.map_or(Value::Null, Value::Float),
                s.map_or(Value::Null, Value::str),
                d.map_or(Value::Null, Value::Date),
                b.map_or(Value::Null, Value::Bool),
            ]
        })
}

fn schema() -> PlanSchema {
    PlanSchema::new(vec![
        Field::new(None::<&str>, "i", DataType::Int),
        Field::new(None::<&str>, "f", DataType::Float),
        Field::new(None::<&str>, "s", DataType::Str),
        Field::new(None::<&str>, "d", DataType::Date),
        Field::new(None::<&str>, "b", DataType::Bool),
    ])
}

fn relation(rows: Vec<Vec<Value>>) -> Relation {
    Relation::new(
        vec![
            ("i".to_string(), DataType::Int),
            ("f".to_string(), DataType::Float),
            ("s".to_string(), DataType::Str),
            ("d".to_string(), DataType::Date),
            ("b".to_string(), DataType::Bool),
        ],
        rows,
    )
}

// ----------------------------------------------------- random expressions

/// Well-typed numeric expressions over columns i and f. Division is
/// deliberately absent (it is not vectorized); +, -, * over these bounded
/// inputs can neither overflow f64 nor produce NaN.
fn num_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        Just(Expr::col("i")),
        Just(Expr::col("f")),
        (-1000i64..1000).prop_map(|n| Expr::Literal(Value::Int(n))),
        (-4000i32..4000).prop_map(|n| Expr::Literal(Value::Float(n as f64 * 0.25))),
        Just(Expr::Literal(Value::Null)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (
            prop_oneof![
                Just(BinaryOp::Plus),
                Just(BinaryOp::Minus),
                Just(BinaryOp::Mul)
            ],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, l, r)| Expr::binary(op, l, r))
    })
}

/// Well-typed predicates over the full schema.
fn cmp_op() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::Eq),
        Just(BinaryOp::NotEq),
        Just(BinaryOp::Lt),
        Just(BinaryOp::LtEq),
        Just(BinaryOp::Gt),
        Just(BinaryOp::GtEq),
    ]
}

fn pred_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (num_expr(), cmp_op(), num_expr()).prop_map(|(l, op, r)| Expr::binary(op, l, r)),
        ("[a-c]{0,4}", cmp_op()).prop_map(|(lit, op)| Expr::binary(
            op,
            Expr::col("s"),
            Expr::Literal(Value::str(lit))
        )),
        ((9000i32..12000), cmp_op()).prop_map(|(lit, op)| Expr::binary(
            op,
            Expr::col("d"),
            Expr::Literal(Value::Date(lit))
        )),
        ("[a-c%_]{0,5}", any::<bool>()).prop_map(|(pattern, negated)| Expr::Like {
            expr: Box::new(Expr::col("s")),
            pattern,
            negated,
        }),
        (num_expr(), num_expr(), num_expr(), any::<bool>()).prop_map(|(e, lo, hi, negated)| {
            Expr::Between {
                expr: Box::new(e),
                low: Box::new(lo),
                high: Box::new(hi),
                negated,
            }
        }),
        (prop::collection::vec(-1000i64..1000, 1..4), any::<bool>()).prop_map(
            |(items, negated)| Expr::InList {
                expr: Box::new(Expr::col("i")),
                list: items
                    .into_iter()
                    .map(|n| Expr::Literal(Value::Int(n)))
                    .collect(),
                negated,
            }
        ),
        Just(Expr::col("b")),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(BinaryOp::And, l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(BinaryOp::Or, l, r)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            }),
            (inner, any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated,
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whenever a kernel claims an expression, its output column must
    /// match row-at-a-time evaluation cell for cell, Value variant
    /// included (Int(7) stays Int(7), never Float(7.0)).
    #[test]
    fn vectorized_eval_matches_rowwise(
        e in num_expr(),
        rows in prop::collection::vec(arb_row(), 0..40),
    ) {
        let rel = relation(rows);
        let compiled = compile(&e, &schema()).unwrap();
        if let Some(col) = vector::eval_to_column(&compiled, &rel) {
            prop_assert_eq!(col.len(), rel.len());
            for i in 0..rel.len() {
                let want = compiled.eval(&rel.row(i)).unwrap();
                prop_assert_eq!(col.value(i), want, "row {}", i);
            }
        }
    }

    /// Vectorized filtering must select exactly the rows that
    /// row-at-a-time predicate evaluation keeps, in the same order.
    #[test]
    fn vectorized_filter_matches_rowwise(
        p in pred_expr(),
        rows in prop::collection::vec(arb_row(), 0..40),
    ) {
        let rel = relation(rows);
        let compiled = compile(&p, &schema()).unwrap();
        if let Some(sel) = vector::filter_sel(&compiled, &rel) {
            let mut want = Vec::new();
            for i in 0..rel.len() {
                if compiled.eval_predicate(&rel.row(i)).unwrap() {
                    want.push(i as u32);
                }
            }
            prop_assert_eq!(sel, want);
        }
    }
}
