//! An exact structural encoding of a logical plan, for caches keyed by a
//! plan rather than by the SQL it renders to.
//!
//! [`encode_plan`] feeds a plan, node by node, to an [`Encoder`]: a hasher
//! ([`Fnv`]), an owned copy (`Vec<u8>`) or a [`Matcher`] that compares the
//! walk against a stored copy. None of the three allocates but the owned
//! copy, so a cache can hash a bound plan and confirm an entry without
//! building anything, and store a key only when it misses.
//!
//! The encoding is injective: every node and expression starts with a tag,
//! every list and string with its length, and a literal is its variant and
//! its bits — `1` and `1.0` are two encodings, as they are two texts (the
//! grouping equality of [`Value`], under which they are equal, is not
//! used). Two plans with equal encodings therefore render to the same SQL.
//! The schemas of `Project`, `Join`, `Aggregate` and `SubqueryAlias` are
//! left out: their constructors derive them from what is encoded. A leaf's
//! schema is encoded field by field.

use crate::algebra::{LogicalPlan, PlanSchema};
use crate::ast::{Expr, SelectStmt};
use crate::display::{render_select_string, Dialect};
use crate::hash::Fnv;
use crate::value::Value;
use std::hash::Hasher;

/// Where an encoding goes, in order.
pub trait Encoder {
    fn put(&mut self, bytes: &[u8]);

    fn word(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
}

impl Encoder for Fnv {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }

    fn word(&mut self, v: u64) {
        self.write_u64(v);
    }
}

impl Encoder for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Compares an encoding, as it is fed, against a stored one.
pub struct Matcher<'a> {
    rest: &'a [u8],
    equal: bool,
}

impl<'a> Matcher<'a> {
    pub fn new(stored: &'a [u8]) -> Matcher<'a> {
        Matcher {
            rest: stored,
            equal: true,
        }
    }

    /// Whether everything fed was the stored encoding, all of it.
    pub fn matched(&self) -> bool {
        self.equal && self.rest.is_empty()
    }
}

impl Encoder for Matcher<'_> {
    fn put(&mut self, bytes: &[u8]) {
        match self.rest.strip_prefix(bytes) {
            Some(rest) if self.equal => self.rest = rest,
            _ => self.equal = false,
        }
    }
}

fn tag(e: &mut impl Encoder, t: u8) {
    e.put(&[t]);
}

fn text(e: &mut impl Encoder, s: &str) {
    e.word(s.len() as u64);
    e.put(s.as_bytes());
}

fn opt_text(e: &mut impl Encoder, s: Option<&str>) {
    match s {
        Some(s) => {
            tag(e, 1);
            text(e, s);
        }
        None => tag(e, 0),
    }
}

fn flag(e: &mut impl Encoder, b: bool) {
    tag(e, u8::from(b));
}

/// Feed `plan`'s structural encoding to `e`.
pub fn encode_plan(plan: &LogicalPlan, e: &mut impl Encoder) {
    match plan {
        LogicalPlan::Scan {
            relation,
            alias,
            schema,
        } => {
            tag(e, 0);
            text(e, relation);
            text(e, alias);
            leaf_schema(schema, e);
        }
        LogicalPlan::Placeholder {
            name,
            alias,
            schema,
        } => {
            tag(e, 1);
            text(e, name);
            text(e, alias);
            leaf_schema(schema, e);
        }
        LogicalPlan::Filter { input, predicate } => {
            tag(e, 2);
            encode_expr(predicate, e);
            encode_plan(input, e);
        }
        LogicalPlan::Project { input, exprs, .. } => {
            tag(e, 3);
            e.word(exprs.len() as u64);
            for (x, name) in exprs {
                encode_expr(x, e);
                text(e, name);
            }
            encode_plan(input, e);
        }
        LogicalPlan::SemiJoin {
            left,
            right,
            on,
            residual,
            negated,
        } => {
            tag(e, 4);
            flag(e, *negated);
            join_conditions(on, residual.as_ref(), e);
            encode_plan(left, e);
            encode_plan(right, e);
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            residual,
            ..
        } => {
            tag(e, 5);
            join_conditions(on, residual.as_ref(), e);
            encode_plan(left, e);
            encode_plan(right, e);
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => {
            tag(e, 6);
            e.word(group_by.len() as u64);
            for (x, name) in group_by {
                encode_expr(x, e);
                text(e, name);
            }
            e.word(aggregates.len() as u64);
            for (call, name) in aggregates {
                tag(e, call.func as u8);
                flag(e, call.distinct);
                opt_expr(call.arg.as_ref(), e);
                text(e, name);
            }
            encode_plan(input, e);
        }
        LogicalPlan::Sort { input, keys } => {
            tag(e, 7);
            e.word(keys.len() as u64);
            for (x, desc) in keys {
                encode_expr(x, e);
                flag(e, *desc);
            }
            encode_plan(input, e);
        }
        LogicalPlan::Limit { input, fetch } => {
            tag(e, 8);
            e.word(*fetch);
            encode_plan(input, e);
        }
        LogicalPlan::Distinct { input } => {
            tag(e, 9);
            encode_plan(input, e);
        }
        LogicalPlan::SubqueryAlias { input, alias, .. } => {
            tag(e, 10);
            text(e, alias);
            encode_plan(input, e);
        }
        LogicalPlan::OneRow => tag(e, 11),
    }
}

fn leaf_schema(schema: &PlanSchema, e: &mut impl Encoder) {
    e.word(schema.len() as u64);
    for f in &*schema.fields {
        opt_text(e, f.qualifier.as_deref());
        text(e, &f.name);
        tag(e, f.data_type as u8);
    }
}

fn join_conditions(on: &[(Expr, Expr)], residual: Option<&Expr>, e: &mut impl Encoder) {
    e.word(on.len() as u64);
    for (l, r) in on {
        encode_expr(l, e);
        encode_expr(r, e);
    }
    opt_expr(residual, e);
}

fn opt_expr(x: Option<&Expr>, e: &mut impl Encoder) {
    match x {
        Some(x) => {
            tag(e, 1);
            encode_expr(x, e);
        }
        None => tag(e, 0),
    }
}

fn exprs(xs: &[Expr], e: &mut impl Encoder) {
    e.word(xs.len() as u64);
    for x in xs {
        encode_expr(x, e);
    }
}

/// A literal by its variant and its bits: no two literals that render
/// differently share an encoding.
fn value(v: &Value, e: &mut impl Encoder) {
    match v {
        Value::Null => tag(e, 0),
        Value::Int(i) => {
            tag(e, 1);
            e.word(*i as u64);
        }
        Value::Float(f) => {
            tag(e, 2);
            e.word(f.to_bits());
        }
        Value::Str(s) => {
            tag(e, 3);
            text(e, s);
        }
        Value::Date(d) => {
            tag(e, 4);
            e.word(*d as u32 as u64);
        }
        Value::Bool(b) => {
            tag(e, 5);
            flag(e, *b);
        }
    }
}

fn encode_expr(x: &Expr, e: &mut impl Encoder) {
    match x {
        Expr::Column { qualifier, name } => {
            tag(e, 0);
            opt_text(e, qualifier.as_deref());
            text(e, name);
        }
        Expr::Literal(v) => {
            tag(e, 1);
            value(v, e);
        }
        Expr::Interval { n, unit } => {
            tag(e, 2);
            e.word(*n as u64);
            tag(e, *unit as u8);
        }
        Expr::Binary { op, left, right } => {
            tag(e, 3);
            tag(e, *op as u8);
            encode_expr(left, e);
            encode_expr(right, e);
        }
        Expr::Unary { op, expr } => {
            tag(e, 4);
            tag(e, *op as u8);
            encode_expr(expr, e);
        }
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            tag(e, 5);
            text(e, name);
            flag(e, *distinct);
            exprs(args, e);
        }
        Expr::CountStar => tag(e, 6),
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            tag(e, 7);
            opt_expr(operand.as_deref(), e);
            e.word(branches.len() as u64);
            for (when, then) in branches {
                encode_expr(when, e);
                encode_expr(then, e);
            }
            opt_expr(else_expr.as_deref(), e);
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            tag(e, 8);
            flag(e, *negated);
            encode_expr(expr, e);
            encode_expr(low, e);
            encode_expr(high, e);
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            tag(e, 9);
            flag(e, *negated);
            text(e, pattern);
            encode_expr(expr, e);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            tag(e, 10);
            flag(e, *negated);
            encode_expr(expr, e);
            exprs(list, e);
        }
        Expr::IsNull { expr, negated } => {
            tag(e, 11);
            flag(e, *negated);
            encode_expr(expr, e);
        }
        Expr::Exists { query, negated } => {
            tag(e, 12);
            flag(e, *negated);
            subquery(query, e);
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            tag(e, 13);
            flag(e, *negated);
            encode_expr(expr, e);
            subquery(query, e);
        }
        Expr::Extract { field, expr } => {
            tag(e, 14);
            tag(e, *field as u8);
            encode_expr(expr, e);
        }
        Expr::Cast { expr, data_type } => {
            tag(e, 15);
            tag(e, *data_type as u8);
            encode_expr(expr, e);
        }
    }
}

/// A subquery an expression still carries, as its SQL text: the renderer
/// round-trips, so the text is exact. A bound plan has none (the binder
/// turns subqueries into semi joins), so this is the one path that
/// allocates.
fn subquery(s: &SelectStmt, e: &mut impl Encoder) {
    text(e, &render_select_string(s, Dialect::Generic));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Name;
    use crate::ast::BinaryOp;
    use crate::value::DataType;

    fn filtered(literal: Value) -> LogicalPlan {
        LogicalPlan::scan("t", "t", [(Name::from("a"), DataType::Int)]).filter(Expr::binary(
            BinaryOp::Eq,
            Expr::qcol("t", "a"),
            Expr::lit(literal),
        ))
    }

    fn bytes(plan: &LogicalPlan) -> Vec<u8> {
        let mut out = Vec::new();
        encode_plan(plan, &mut out);
        out
    }

    fn matches(plan: &LogicalPlan, stored: &[u8]) -> bool {
        let mut m = Matcher::new(stored);
        encode_plan(plan, &mut m);
        m.matched()
    }

    #[test]
    fn literals_are_encoded_by_variant_and_bits() {
        // Equal under `Value`'s grouping equality, two texts on the wire.
        let (int, float) = (filtered(Value::Int(1)), filtered(Value::Float(1.0)));
        assert_eq!(int, float);
        assert_ne!(bytes(&int), bytes(&float));
        assert!(!matches(&int, &bytes(&float)));
        assert_ne!(
            bytes(&filtered(Value::Float(0.0))),
            bytes(&filtered(Value::Float(-0.0)))
        );
    }

    #[test]
    fn a_subquery_is_encoded_by_its_text() {
        let exists = |sql: &str| {
            LogicalPlan::scan("t", "t", [(Name::from("a"), DataType::Int)]).filter(Expr::Exists {
                query: Box::new(crate::parse_select(sql).unwrap()),
                negated: false,
            })
        };
        let one = bytes(&exists("SELECT 1 FROM u"));
        assert_eq!(one, bytes(&exists("select 1 from u")));
        assert_ne!(one, bytes(&exists("SELECT 1.0 FROM u")));
        assert!(matches(&exists("SELECT 1 FROM u"), &one));
    }

    #[test]
    fn a_matcher_wants_all_of_the_stored_encoding() {
        let plan = filtered(Value::Int(1));
        let stored = bytes(&plan);
        assert!(matches(&plan, &stored));
        assert!(!matches(&plan, &stored[..stored.len() - 1]));
        let mut longer = stored.clone();
        longer.push(0);
        assert!(!matches(&plan, &longer));
    }

    #[test]
    fn the_hash_follows_the_encoding() {
        let hash = |plan: &LogicalPlan| {
            let mut h = Fnv::default();
            encode_plan(plan, &mut h);
            h.finish()
        };
        let plan = filtered(Value::str("x"));
        assert_eq!(hash(&plan), hash(&plan.clone()));
        assert_ne!(hash(&plan), hash(&filtered(Value::str("y"))));
    }
}
