//! Compilation of AST expressions into index-resolved physical expressions,
//! and their evaluation over rows.
//!
//! Compilation resolves every column reference against the operator's input
//! schema once; evaluation is then a pure tree walk with no name lookups.

use crate::error::{EngineError, Result};
use xdb_sql::algebra::PlanSchema;
use xdb_sql::ast::{is_aggregate_name, BinaryOp, DateField, Expr, IntervalUnit, UnaryOp};
use xdb_sql::value::{date, DataType, Value};

/// An index-resolved, executable expression.
#[derive(Debug, Clone)]
pub enum PhysExpr {
    Column(usize),
    Literal(Value),
    Binary {
        op: BinaryOp,
        left: Box<PhysExpr>,
        right: Box<PhysExpr>,
    },
    /// `date ± INTERVAL 'n' unit`, folded at compile time.
    DateShift {
        expr: Box<PhysExpr>,
        months: i32,
        days: i32,
    },
    Neg(Box<PhysExpr>),
    Not(Box<PhysExpr>),
    Case {
        operand: Option<Box<PhysExpr>>,
        branches: Vec<(PhysExpr, PhysExpr)>,
        else_expr: Option<Box<PhysExpr>>,
    },
    Between {
        expr: Box<PhysExpr>,
        low: Box<PhysExpr>,
        high: Box<PhysExpr>,
        negated: bool,
    },
    Like {
        expr: Box<PhysExpr>,
        pattern: LikePattern,
        negated: bool,
    },
    InList {
        expr: Box<PhysExpr>,
        list: Vec<PhysExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<PhysExpr>,
        negated: bool,
    },
    Extract {
        field: DateField,
        expr: Box<PhysExpr>,
    },
    Cast {
        expr: Box<PhysExpr>,
        data_type: DataType,
    },
    Scalar {
        func: ScalarFunc,
        args: Vec<PhysExpr>,
    },
}

/// Supported scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Abs,
    Round,
    Floor,
    Ceil,
    Length,
    Upper,
    Lower,
    Substr,
    Concat,
}

impl ScalarFunc {
    fn parse(name: &str) -> Option<ScalarFunc> {
        match name.to_ascii_lowercase().as_str() {
            "abs" => Some(ScalarFunc::Abs),
            "round" => Some(ScalarFunc::Round),
            "floor" => Some(ScalarFunc::Floor),
            "ceil" | "ceiling" => Some(ScalarFunc::Ceil),
            "length" | "char_length" => Some(ScalarFunc::Length),
            "upper" => Some(ScalarFunc::Upper),
            "lower" => Some(ScalarFunc::Lower),
            "substr" | "substring" => Some(ScalarFunc::Substr),
            "concat" => Some(ScalarFunc::Concat),
            _ => None,
        }
    }
}

/// Compile an AST expression against an input schema.
pub fn compile(e: &Expr, schema: &PlanSchema) -> Result<PhysExpr> {
    Ok(match e {
        Expr::Column { qualifier, name } => {
            let idx = schema.resolve(qualifier.as_deref(), name)?;
            PhysExpr::Column(idx)
        }
        Expr::Literal(v) => PhysExpr::Literal(v.clone()),
        Expr::Interval { .. } => {
            return Err(EngineError::Execution(
                "INTERVAL literal outside date arithmetic".into(),
            ))
        }
        Expr::Binary { op, left, right } => {
            // `date ± interval` folds into DateShift.
            if matches!(op, BinaryOp::Plus | BinaryOp::Minus) {
                let sign: i64 = if *op == BinaryOp::Minus { -1 } else { 1 };
                if let Expr::Interval { n, unit } = &**right {
                    return compile_date_shift(left, *n * sign, *unit, schema);
                }
                if let Expr::Interval { n, unit } = &**left {
                    if *op == BinaryOp::Plus {
                        return compile_date_shift(right, *n, *unit, schema);
                    }
                }
            }
            PhysExpr::Binary {
                op: *op,
                left: Box::new(compile(left, schema)?),
                right: Box::new(compile(right, schema)?),
            }
        }
        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => PhysExpr::Neg(Box::new(compile(expr, schema)?)),
            UnaryOp::Not => PhysExpr::Not(Box::new(compile(expr, schema)?)),
        },
        Expr::Function {
            name,
            args,
            distinct: _,
        } => {
            if is_aggregate_name(name) {
                return Err(EngineError::Execution(format!(
                    "aggregate {name} in scalar context"
                )));
            }
            let func = ScalarFunc::parse(name)
                .ok_or_else(|| EngineError::Unsupported(format!("scalar function {name:?}")))?;
            PhysExpr::Scalar {
                func,
                args: args
                    .iter()
                    .map(|a| compile(a, schema))
                    .collect::<Result<_>>()?,
            }
        }
        Expr::CountStar => return Err(EngineError::Execution("count(*) in scalar context".into())),
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => PhysExpr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(compile(o, schema)?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(w, t)| Ok((compile(w, schema)?, compile(t, schema)?)))
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(x) => Some(Box::new(compile(x, schema)?)),
                None => None,
            },
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => PhysExpr::Between {
            expr: Box::new(compile(expr, schema)?),
            low: Box::new(compile(low, schema)?),
            high: Box::new(compile(high, schema)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => PhysExpr::Like {
            expr: Box::new(compile(expr, schema)?),
            pattern: LikePattern::new(pattern),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => PhysExpr::InList {
            expr: Box::new(compile(expr, schema)?),
            list: list
                .iter()
                .map(|x| compile(x, schema))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => PhysExpr::IsNull {
            expr: Box::new(compile(expr, schema)?),
            negated: *negated,
        },
        Expr::Extract { field, expr } => PhysExpr::Extract {
            field: *field,
            expr: Box::new(compile(expr, schema)?),
        },
        Expr::Cast { expr, data_type } => PhysExpr::Cast {
            expr: Box::new(compile(expr, schema)?),
            data_type: *data_type,
        },
        // The binder turns these into SemiJoin plan nodes; reaching the
        // expression compiler means they appeared somewhere unsupported
        // (e.g. inside a projection or OR).
        Expr::Exists { .. } | Expr::InSubquery { .. } => {
            return Err(EngineError::Unsupported(
                "subquery predicates are only supported as top-level WHERE conjuncts".into(),
            ))
        }
    })
}

fn compile_date_shift(
    base: &Expr,
    n: i64,
    unit: IntervalUnit,
    schema: &PlanSchema,
) -> Result<PhysExpr> {
    let (months, days) = match unit {
        IntervalUnit::Year => (n as i32 * 12, 0),
        IntervalUnit::Month => (n as i32, 0),
        IntervalUnit::Day => (0, n as i32),
    };
    Ok(PhysExpr::DateShift {
        expr: Box::new(compile(base, schema)?),
        months,
        days,
    })
}

impl PhysExpr {
    /// Evaluate against a row. NULLs propagate per SQL semantics.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        Ok(match self {
            PhysExpr::Column(i) => row[*i].clone(),
            PhysExpr::Literal(v) => v.clone(),
            PhysExpr::Binary { op, left, right } => {
                let l = left.eval(row)?;
                match op {
                    // Short-circuiting three-valued logic.
                    BinaryOp::And => {
                        if l == Value::Bool(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = right.eval(row)?;
                        match (l.as_bool(), r.as_bool()) {
                            (_, Some(false)) => Value::Bool(false),
                            (Some(true), Some(true)) => Value::Bool(true),
                            _ => Value::Null,
                        }
                    }
                    BinaryOp::Or => {
                        if l == Value::Bool(true) {
                            return Ok(Value::Bool(true));
                        }
                        let r = right.eval(row)?;
                        match (l.as_bool(), r.as_bool()) {
                            (_, Some(true)) => Value::Bool(true),
                            (Some(false), Some(false)) => Value::Bool(false),
                            _ => Value::Null,
                        }
                    }
                    _ => {
                        let r = right.eval(row)?;
                        eval_binary(*op, &l, &r)?
                    }
                }
            }
            PhysExpr::DateShift { expr, months, days } => match expr.eval(row)? {
                Value::Null => Value::Null,
                Value::Date(d) => {
                    let shifted = if *months != 0 {
                        date::add_months(d, *months)
                    } else {
                        d
                    };
                    Value::Date(shifted + days)
                }
                other => {
                    return Err(EngineError::Execution(format!(
                        "interval arithmetic on non-date {other}"
                    )))
                }
            },
            PhysExpr::Neg(e) => match e.eval(row)? {
                Value::Null => Value::Null,
                Value::Int(i) => Value::Int(-i),
                Value::Float(f) => Value::Float(-f),
                other => return Err(EngineError::Execution(format!("cannot negate {other}"))),
            },
            PhysExpr::Not(e) => match e.eval(row)?.as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            },
            PhysExpr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let op_val = match operand {
                    Some(o) => Some(o.eval(row)?),
                    None => None,
                };
                for (when, then) in branches {
                    let hit = match &op_val {
                        Some(v) => {
                            let w = when.eval(row)?;
                            !v.is_null() && !w.is_null() && *v == w
                        }
                        None => when.eval(row)?.as_bool().unwrap_or(false),
                    };
                    if hit {
                        return then.eval(row);
                    }
                }
                match else_expr {
                    Some(e) => e.eval(row)?,
                    None => Value::Null,
                }
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => {
                        let inside =
                            a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                        Value::Bool(inside != *negated)
                    }
                    _ => Value::Null,
                }
            }
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => match expr.eval(row)? {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Bool(pattern.matches(&s) != *negated),
                other => {
                    return Err(EngineError::Execution(format!(
                        "LIKE on non-string {other}"
                    )))
                }
            },
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if v == iv {
                        return Ok(Value::Bool(!*negated));
                    }
                }
                if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            PhysExpr::IsNull { expr, negated } => {
                Value::Bool(expr.eval(row)?.is_null() != *negated)
            }
            PhysExpr::Extract { field, expr } => match expr.eval(row)? {
                Value::Null => Value::Null,
                Value::Date(d) => Value::Int(match field {
                    DateField::Year => date::year_of(d) as i64,
                    DateField::Month => date::month_of(d) as i64,
                    DateField::Day => date::ymd_from_days(d).2 as i64,
                }),
                other => {
                    return Err(EngineError::Execution(format!(
                        "EXTRACT from non-date {other}"
                    )))
                }
            },
            PhysExpr::Cast { expr, data_type } => cast(expr.eval(row)?, *data_type)?,
            PhysExpr::Scalar { func, args } => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect::<Result<_>>()?;
                eval_scalar(*func, &vals)?
            }
        })
    }

    /// Evaluate as a predicate: true / false-or-unknown.
    pub fn eval_predicate(&self, row: &[Value]) -> Result<bool> {
        Ok(self.eval(row)?.as_bool().unwrap_or(false))
    }
}

fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    Ok(match op {
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let Some(ord) = l.sql_cmp(r) else {
                return Err(EngineError::Execution(format!(
                    "cannot compare {l} with {r}"
                )));
            };
            use std::cmp::Ordering::*;
            let b = match op {
                Eq => ord == Equal,
                NotEq => ord != Equal,
                Lt => ord == Less,
                LtEq => ord != Greater,
                Gt => ord == Greater,
                GtEq => ord != Less,
                _ => unreachable!(),
            };
            Value::Bool(b)
        }
        Concat => Value::str(format!("{l}{r}")),
        Plus | Minus | Mul | Div | Mod => arith(op, l, r)?,
        And | Or => unreachable!("handled by eval with short-circuit"),
    })
}

fn arith(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    // Date arithmetic.
    match (l, r, op) {
        (Value::Date(d), Value::Int(n), Plus) => return Ok(Value::Date(d + *n as i32)),
        (Value::Int(n), Value::Date(d), Plus) => return Ok(Value::Date(d + *n as i32)),
        (Value::Date(d), Value::Int(n), Minus) => return Ok(Value::Date(d - *n as i32)),
        (Value::Date(a), Value::Date(b), Minus) => return Ok(Value::Int((a - b) as i64)),
        _ => {}
    }
    let as_pair = |l: &Value, r: &Value| -> Option<(f64, f64)> {
        let lf = match l {
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            _ => return None,
        };
        let rf = match r {
            Value::Int(i) => *i as f64,
            Value::Float(f) => *f,
            _ => return None,
        };
        Some((lf, rf))
    };
    // Integer-preserving paths.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        match op {
            Plus => {
                if let Some(v) = a.checked_add(*b) {
                    return Ok(Value::Int(v));
                }
            }
            Minus => {
                if let Some(v) = a.checked_sub(*b) {
                    return Ok(Value::Int(v));
                }
            }
            Mul => {
                if let Some(v) = a.checked_mul(*b) {
                    return Ok(Value::Int(v));
                }
            }
            Mod => {
                if *b == 0 {
                    return Err(EngineError::Execution("division by zero".into()));
                }
                return Ok(Value::Int(a % b));
            }
            Div => {} // SQL double division below
            _ => {}
        }
    }
    let Some((a, b)) = as_pair(l, r) else {
        return Err(EngineError::Execution(format!(
            "invalid arithmetic {l} {op:?} {r}"
        )));
    };
    Ok(match op {
        Plus => Value::Float(a + b),
        Minus => Value::Float(a - b),
        Mul => Value::Float(a * b),
        Div => {
            if b == 0.0 {
                return Err(EngineError::Execution("division by zero".into()));
            }
            Value::Float(a / b)
        }
        Mod => {
            if b == 0.0 {
                return Err(EngineError::Execution("division by zero".into()));
            }
            Value::Float(a % b)
        }
        _ => unreachable!(),
    })
}

fn cast(v: Value, ty: DataType) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let err = |v: &Value| EngineError::Execution(format!("cannot cast {v} to {ty}"));
    Ok(match ty {
        DataType::Int => match &v {
            Value::Int(i) => Value::Int(*i),
            Value::Float(f) => Value::Int(*f as i64),
            Value::Bool(b) => Value::Int(*b as i64),
            Value::Str(s) => Value::Int(s.trim().parse().map_err(|_| err(&v))?),
            Value::Date(_) => return Err(err(&v)),
            Value::Null => unreachable!(),
        },
        DataType::Float => match &v {
            Value::Int(i) => Value::Float(*i as f64),
            Value::Float(f) => Value::Float(*f),
            Value::Str(s) => Value::Float(s.trim().parse().map_err(|_| err(&v))?),
            _ => return Err(err(&v)),
        },
        DataType::Str => Value::str(v.to_string()),
        DataType::Date => match &v {
            Value::Date(d) => Value::Date(*d),
            Value::Str(s) => Value::Date(date::parse(s).ok_or_else(|| err(&v))?),
            _ => return Err(err(&v)),
        },
        DataType::Bool => match &v {
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Bool(*i != 0),
            _ => return Err(err(&v)),
        },
    })
}

fn eval_scalar(func: ScalarFunc, args: &[Value]) -> Result<Value> {
    let arg_err = || EngineError::Execution(format!("invalid arguments to {func:?}"));
    if args.iter().any(Value::is_null) && func != ScalarFunc::Concat {
        return Ok(Value::Null);
    }
    Ok(match func {
        ScalarFunc::Abs => match args {
            [Value::Int(i)] => Value::Int(i.abs()),
            [Value::Float(f)] => Value::Float(f.abs()),
            _ => return Err(arg_err()),
        },
        ScalarFunc::Round => match args {
            [Value::Float(f)] => Value::Float(f.round()),
            [Value::Int(i)] => Value::Int(*i),
            [Value::Float(f), Value::Int(d)] => {
                let m = 10f64.powi(*d as i32);
                Value::Float((f * m).round() / m)
            }
            _ => return Err(arg_err()),
        },
        ScalarFunc::Floor => match args {
            [Value::Float(f)] => Value::Float(f.floor()),
            [Value::Int(i)] => Value::Int(*i),
            _ => return Err(arg_err()),
        },
        ScalarFunc::Ceil => match args {
            [Value::Float(f)] => Value::Float(f.ceil()),
            [Value::Int(i)] => Value::Int(*i),
            _ => return Err(arg_err()),
        },
        ScalarFunc::Length => match args {
            [Value::Str(s)] => Value::Int(s.chars().count() as i64),
            _ => return Err(arg_err()),
        },
        ScalarFunc::Upper => match args {
            [Value::Str(s)] => Value::str(s.to_uppercase()),
            _ => return Err(arg_err()),
        },
        ScalarFunc::Lower => match args {
            [Value::Str(s)] => Value::str(s.to_lowercase()),
            _ => return Err(arg_err()),
        },
        ScalarFunc::Substr => match args {
            [Value::Str(s), Value::Int(start)] => {
                let skip = (start - 1).max(0) as usize;
                Value::str(s.chars().skip(skip).collect::<String>())
            }
            [Value::Str(s), Value::Int(start), Value::Int(len)] => {
                let skip = (start - 1).max(0) as usize;
                let take = (*len).max(0) as usize;
                Value::str(s.chars().skip(skip).take(take).collect::<String>())
            }
            _ => return Err(arg_err()),
        },
        ScalarFunc::Concat => {
            let mut out = String::new();
            for a in args {
                if !a.is_null() {
                    out.push_str(&a.to_string());
                }
            }
            Value::str(out)
        }
    })
}

/// A SQL LIKE pattern (`%` = any run, `_` = any single char), looked at
/// once where the expression is compiled: the row-wise evaluator and the
/// vectorized kernels share this one matcher.
#[derive(Debug, Clone)]
pub enum LikePattern {
    /// `x`, `x%`, `%x`, `%x%` with no other wildcard: plain `&str` tests.
    Exact(String),
    Prefix(String),
    Suffix(String),
    Contains(String),
    /// Every other pattern, as chars, for the backtracking matcher.
    General(Vec<char>),
}

impl LikePattern {
    pub(crate) fn new(pattern: &str) -> LikePattern {
        let (head, body) = match pattern.strip_prefix('%') {
            Some(b) => (true, b),
            None => (false, pattern),
        };
        let (tail, body) = match body.strip_suffix('%') {
            Some(b) => (true, b),
            None => (false, body),
        };
        if body.contains(['%', '_']) {
            return LikePattern::General(pattern.chars().collect());
        }
        let body = body.to_string();
        match (head, tail) {
            (false, false) => LikePattern::Exact(body),
            (false, true) => LikePattern::Prefix(body),
            (true, false) => LikePattern::Suffix(body),
            (true, true) => LikePattern::Contains(body),
        }
    }

    pub(crate) fn matches(&self, text: &str) -> bool {
        let p = match self {
            LikePattern::Exact(x) => return text == x,
            LikePattern::Prefix(x) => return text.starts_with(x.as_str()),
            LikePattern::Suffix(x) => return text.ends_with(x.as_str()),
            LikePattern::Contains(x) => return text.contains(x.as_str()),
            LikePattern::General(p) => p,
        };
        // Iterative backtracking: `star` is the last `%` seen and the text
        // position its run currently ends at.
        let mut pi = 0usize;
        let mut rest = text.chars();
        let mut star: Option<(usize, std::str::Chars<'_>)> = None;
        loop {
            let mut ahead = rest.clone();
            let Some(c) = ahead.next() else { break };
            if pi < p.len() && p[pi] == '%' {
                star = Some((pi, rest.clone()));
                pi += 1;
            } else if pi < p.len() && (p[pi] == '_' || p[pi] == c) {
                pi += 1;
                rest = ahead;
            } else if let Some((sp, at)) = &mut star {
                at.next();
                pi = *sp + 1;
                rest = at.clone();
            } else {
                return false;
            }
        }
        p[pi..].iter().all(|&c| c == '%')
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_sql::algebra::Field;
    use xdb_sql::parser::parse_expr;

    fn schema() -> PlanSchema {
        PlanSchema::new(vec![
            Field::new(Some("t"), "i", DataType::Int),
            Field::new(Some("t"), "f", DataType::Float),
            Field::new(Some("t"), "s", DataType::Str),
            Field::new(Some("t"), "d", DataType::Date),
        ])
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::Float(2.5),
            Value::str("GREEN apple"),
            Value::Date(date::parse("1995-03-15").unwrap()),
        ]
    }

    fn eval(sql: &str) -> Value {
        let e = parse_expr(sql).unwrap();
        let c = compile(&e, &schema()).unwrap();
        c.eval(&row()).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("i + 5"), Value::Int(15));
        assert_eq!(eval("i * 2 - 1"), Value::Int(19));
        assert_eq!(eval("i / 4"), Value::Float(2.5));
        assert_eq!(eval("f * (1 - 0.5)"), Value::Float(1.25));
        assert_eq!(eval("i % 3"), Value::Int(1));
        assert_eq!(eval("-i"), Value::Int(-10));
    }

    #[test]
    fn int_overflow_promotes() {
        let e = parse_expr("i * 9223372036854775807").unwrap();
        let c = compile(&e, &schema()).unwrap();
        match c.eval(&row()).unwrap() {
            Value::Float(f) => assert!(f > 1e19),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn division_by_zero_errors() {
        let e = parse_expr("i / 0").unwrap();
        let c = compile(&e, &schema()).unwrap();
        assert!(c.eval(&row()).is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval("i > 5 AND f < 3"), Value::Bool(true));
        assert_eq!(eval("i > 50 OR f < 3"), Value::Bool(true));
        assert_eq!(eval("NOT (i = 10)"), Value::Bool(false));
        assert_eq!(eval("i <> 10"), Value::Bool(false));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval("NULL + 1"), Value::Null);
        assert_eq!(eval("i > NULL"), Value::Null);
        assert_eq!(eval("NULL IS NULL"), Value::Bool(true));
        assert_eq!(eval("i IS NOT NULL"), Value::Bool(true));
        // AND/OR three-valued logic.
        assert_eq!(eval("i > 5 AND NULL"), Value::Null);
        assert_eq!(eval("i > 50 AND NULL"), Value::Bool(false));
        assert_eq!(eval("i > 5 OR NULL"), Value::Bool(true));
        assert_eq!(eval("i > 50 OR NULL"), Value::Null);
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(
            eval("d + interval '1' year"),
            Value::Date(date::parse("1996-03-15").unwrap())
        );
        assert_eq!(
            eval("d - interval '2' month"),
            Value::Date(date::parse("1995-01-15").unwrap())
        );
        assert_eq!(
            eval("d + interval '10' day"),
            Value::Date(date::parse("1995-03-25").unwrap())
        );
        assert_eq!(eval("d - date '1995-03-10'"), Value::Int(5));
        assert_eq!(eval("d < date '1995-04-01'"), Value::Bool(true));
        assert_eq!(eval("extract(year from d)"), Value::Int(1995));
        assert_eq!(eval("extract(month from d)"), Value::Int(3));
        assert_eq!(eval("extract(day from d)"), Value::Int(15));
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            eval("case when i between 5 and 15 then 'mid' else 'out' end"),
            Value::str("mid")
        );
        assert_eq!(
            eval("case i when 10 then 'ten' when 20 then 'twenty' end"),
            Value::str("ten")
        );
        assert_eq!(eval("case when i > 100 then 'big' end"), Value::Null);
    }

    fn like_match(pattern: &str, text: &str) -> bool {
        LikePattern::new(pattern).matches(text)
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("%green%", "dark green metal"));
        assert!(!like_match("%green%", "blue"));
        assert!(like_match("gr__n", "green"));
        assert!(like_match("%", ""));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("a%b", "a"));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert_eq!(eval("s like '%apple%'"), Value::Bool(true));
        assert_eq!(eval("s not like '%pear%'"), Value::Bool(true));
    }

    #[test]
    fn in_list_semantics() {
        assert_eq!(eval("i in (1, 10, 100)"), Value::Bool(true));
        assert_eq!(eval("i in (1, 2)"), Value::Bool(false));
        assert_eq!(eval("i not in (1, 2)"), Value::Bool(true));
        // NULL in list makes a miss unknown.
        assert_eq!(eval("i in (1, NULL)"), Value::Null);
        assert_eq!(eval("i in (10, NULL)"), Value::Bool(true));
    }

    #[test]
    fn casts() {
        assert_eq!(eval("cast(i as double)"), Value::Float(10.0));
        assert_eq!(eval("cast(f as bigint)"), Value::Int(2));
        assert_eq!(eval("cast('42' as bigint)"), Value::Int(42));
        assert_eq!(
            eval("cast('1995-03-15' as date)"),
            Value::Date(date::parse("1995-03-15").unwrap())
        );
        assert_eq!(eval("cast(i as varchar)"), Value::str("10"));
    }

    #[test]
    fn scalar_functions() {
        assert_eq!(eval("abs(-5)"), Value::Int(5));
        assert_eq!(eval("length(s)"), Value::Int(11));
        assert_eq!(eval("upper(s)"), Value::str("GREEN APPLE"));
        assert_eq!(eval("lower(s)"), Value::str("green apple"));
        assert_eq!(eval("substr(s, 1, 5)"), Value::str("GREEN"));
        assert_eq!(eval("substr(s, 7)"), Value::str("apple"));
        assert_eq!(eval("round(2.567, 2)"), Value::Float(2.57));
        assert_eq!(eval("concat(s, '!')"), Value::str("GREEN apple!"));
        assert_eq!(eval("s || '!'"), Value::str("GREEN apple!"));
    }

    #[test]
    fn aggregates_rejected_in_scalar_context() {
        let e = parse_expr("sum(i)").unwrap();
        assert!(compile(&e, &schema()).is_err());
        let e = parse_expr("count(*)").unwrap();
        assert!(compile(&e, &schema()).is_err());
    }

    #[test]
    fn unknown_function_rejected() {
        let e = parse_expr("frobnicate(i)").unwrap();
        assert!(matches!(
            compile(&e, &schema()),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn between_negated() {
        assert_eq!(eval("i not between 20 and 30"), Value::Bool(true));
        assert_eq!(eval("i between 5 and 15"), Value::Bool(true));
    }
}
