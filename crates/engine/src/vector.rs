//! Vectorized (column-at-a-time) expression kernels.
//!
//! `eval_vec` evaluates a [`PhysExpr`] over a whole relation at once and
//! returns `None` ("fall back") whenever the column-at-a-time result could
//! diverge from the row-at-a-time reference semantics in `expr.rs`. The
//! contract is strict bit-identity on success: a kernel either produces
//! exactly the values `PhysExpr::eval` would produce for every row, or it
//! declines and the caller evaluates the *whole* expression row-wise
//! (reproducing short-circuit evaluation and data-dependent errors).
//!
//! A filter predicate does not become a column of booleans where it need
//! not: [`filter_sel`] turns `AND`/`OR` trees over tests of one typed column
//! against constants straight into a selection vector (see `select`), under
//! the same contract, and takes `eval_vec`'s `Bool` column for the rest.
//!
//! What stays out of the safe set, and why:
//! - `Div`/`Mod`: division by zero is a data-dependent runtime error that
//!   AND/OR short-circuiting may legitimately skip row-wise;
//! - `Case`/`Cast`/`Scalar`: branch short-circuiting and cast errors are
//!   data-dependent in the same way;
//! - any operand typed `Mixed`: per-row variants are unknown statically;
//! - float comparisons that hit NaN (`sql_cmp` returns `None` → the
//!   row-wise path errors with "cannot compare"): the kernel bails the
//!   moment it sees one.

use crate::expr::{LikePattern, PhysExpr};
use crate::relation::Relation;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::sync::Arc;
use xdb_sql::ast::{BinaryOp, DateField};
use xdb_sql::column::{Column, StrCol, TypedCol};
use xdb_sql::value::{date, Value};

/// Result of a vectorized evaluation: a column, or a single value standing
/// for "this value in every row" (literals and folded constants).
pub enum VecOut {
    Col(Column),
    Const(Value),
}

/// Evaluate `e` over all rows of `rel`. `None` means "not vectorizable
/// here" — never an error; the caller must fall back to row-wise eval.
pub(crate) fn eval_vec(e: &PhysExpr, rel: &Relation) -> Option<VecOut> {
    let n = rel.len();
    Some(match e {
        PhysExpr::Column(i) => {
            let c = rel.column(*i);
            if c.is_mixed() {
                return None;
            }
            VecOut::Col(c.clone())
        }
        PhysExpr::Literal(v) => VecOut::Const(v.clone()),
        PhysExpr::Binary { op, left, right } => {
            let l = eval_vec(left, rel)?;
            let r = eval_vec(right, rel)?;
            match op {
                BinaryOp::And | BinaryOp::Or => kleene(*op, &l, &r, n)?,
                BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq => cmp_kernel(*op, &l, &r, n)?,
                BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Mul => arith_kernel(*op, &l, &r, n)?,
                BinaryOp::Div | BinaryOp::Mod | BinaryOp::Concat => return None,
            }
        }
        PhysExpr::Neg(x) => neg_kernel(&eval_vec(x, rel)?, n)?,
        PhysExpr::Not(x) => not_kernel(&eval_vec(x, rel)?, n)?,
        PhysExpr::IsNull { expr, negated } => is_null_kernel(&eval_vec(expr, rel)?, *negated, n),
        PhysExpr::Between {
            expr,
            low,
            high,
            negated,
        } => between_kernel(
            &eval_vec(expr, rel)?,
            &eval_vec(low, rel)?,
            &eval_vec(high, rel)?,
            *negated,
            n,
        )?,
        PhysExpr::Like {
            expr,
            pattern,
            negated,
        } => like_kernel(&eval_vec(expr, rel)?, pattern, *negated, n)?,
        PhysExpr::InList {
            expr,
            list,
            negated,
        } => {
            let items: Vec<Value> = list
                .iter()
                .map(|it| match it {
                    PhysExpr::Literal(v) => Some(v.clone()),
                    _ => None,
                })
                .collect::<Option<_>>()?;
            in_list_kernel(&eval_vec(expr, rel)?, &items, *negated, n)?
        }
        PhysExpr::Extract { field, expr } => extract_kernel(&eval_vec(expr, rel)?, *field, n)?,
        PhysExpr::DateShift { expr, months, days } => {
            date_shift_kernel(&eval_vec(expr, rel)?, *months, *days, n)?
        }
        PhysExpr::Case { .. } | PhysExpr::Cast { .. } | PhysExpr::Scalar { .. } => return None,
    })
}

/// Evaluate to a materialized column (constants are broadcast).
pub fn eval_to_column(e: &PhysExpr, rel: &Relation) -> Option<Column> {
    Some(match eval_vec(e, rel)? {
        VecOut::Col(c) => c,
        VecOut::Const(v) => const_column(&v, rel.len()),
    })
}

/// Broadcast a single value to an `n`-row column.
pub(crate) fn const_column(v: &Value, n: usize) -> Column {
    Column::from_values((0..n).map(|_| v.clone()))
}

/// Evaluate `e` as a filter predicate and return the selection vector of
/// surviving row indexes (`eval_predicate` semantics: NULL/non-bool →
/// dropped). `None` = fall back to row-wise.
pub fn filter_sel(e: &PhysExpr, rel: &Relation) -> Option<Vec<u32>> {
    select(e, rel, None)
}

/// The rows of `within` (every row when `None`), ascending, for which `e`
/// is TRUE. A predicate becomes a selection, not a column of booleans:
/// - `AND` narrows: the right conjunct looks only at the rows the left kept;
/// - `OR` is the ordered union of both sides' selections (TRUE when either
///   side is, which is Kleene OR once NULL drops the row);
/// - a test of one typed column against constants goes [`direct`];
/// - anything else is [`eval_vec`]'s `Bool` column, its true rows taken.
///
/// Whether a node declines never depends on `within`, so a `Some` here
/// means the row-wise loop cannot err on any row, exactly as for `eval_vec`.
fn select(e: &PhysExpr, rel: &Relation, within: Option<&[u32]>) -> Option<Vec<u32>> {
    if let PhysExpr::Binary { op, left, right } = e {
        match op {
            BinaryOp::And => {
                let kept = select(left, rel, within)?;
                return select(right, rel, Some(&kept));
            }
            BinaryOp::Or => {
                let (a, b) = (select(left, rel, within)?, select(right, rel, within)?);
                return Some(union(&a, &b));
            }
            _ => {}
        }
    }
    if let Some(sel) = direct(e, rel, within) {
        return Some(sel);
    }
    Some(match eval_vec(e, rel)? {
        VecOut::Const(v) if v.as_bool() == Some(true) => match within {
            Some(w) => w.to_vec(),
            None => (0..rel.len() as u32).collect(),
        },
        VecOut::Col(Column::Bool(c)) => rows_where(&c, within, |b| *b),
        // A constant that is not TRUE, or a non-boolean column (`as_bool()`
        // is None for every row): nothing passes.
        _ => Vec::new(),
    })
}

/// Ordered union of two ascending selections.
fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The non-NULL rows of `within` whose value passes, by one typed loop that
/// writes row ids; the no-NULL case is hoisted out of the loop.
fn rows_where<T>(c: &TypedCol<T>, within: Option<&[u32]>, pass: impl Fn(&T) -> bool) -> Vec<u32> {
    if c.nulls.none_set() {
        collect_rows(c.data.len(), within, |i| pass(&c.data[i]))
    } else {
        collect_rows(c.data.len(), within, |i| {
            !c.nulls.get(i) && pass(&c.data[i])
        })
    }
}

/// The rows of `within` (every row of `0..n` when `None`), ascending, that
/// `keep` keeps.
fn collect_rows(n: usize, within: Option<&[u32]>, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    // Every candidate is written and the length advances only past a kept
    // one: no branch to mispredict at middling selectivities.
    let mut out = vec![0u32; within.map_or(n, <[u32]>::len)];
    let mut len = 0;
    let mut visit = |i: u32| {
        out[len] = i;
        len += usize::from(keep(i as usize));
    };
    match within {
        Some(w) => w.iter().copied().for_each(&mut visit),
        None => (0..n as u32).for_each(&mut visit),
    }
    out.truncate(len);
    out
}

/// What a direct test compares a column's values with.
enum Test<K> {
    Cmp(BinaryOp, K),
    Between(K, K, bool),
}

impl Test<Value> {
    /// The operands in the column's own type, or `None` when one is not.
    fn typed<'a, U: ?Sized>(
        &'a self,
        f: impl Fn(&'a Value) -> Option<&'a U>,
    ) -> Option<Test<&'a U>> {
        Some(match self {
            Test::Cmp(op, k) => Test::Cmp(*op, f(k)?),
            Test::Between(lo, hi, negated) => Test::Between(f(lo)?, f(hi)?, *negated),
        })
    }
}

/// `e` folded to a constant, when it reads no column.
fn constant(e: &PhysExpr, rel: &Relation) -> Option<Value> {
    let mut refs = Vec::new();
    referenced_columns(e, &mut refs);
    if !refs.is_empty() {
        return None;
    }
    match eval_vec(e, rel)? {
        VecOut::Const(v) => Some(v),
        VecOut::Col(_) => None,
    }
}

/// A comparison, `BETWEEN` or `LIKE` of one bare Int, Date, Float or Str
/// column against constants of the same type, straight to a selection.
/// `None` means "not that shape" and is decided before any row is looked
/// at; the caller then takes the `eval_vec` route. Float declines when an
/// operand or any value of the column is NaN, where a comparison errs
/// row-wise (and the row-wise loop also visits rows an `AND` dropped as
/// NULL, so the whole column counts, not only `within`).
fn direct(e: &PhysExpr, rel: &Relation, within: Option<&[u32]>) -> Option<Vec<u32>> {
    let (col, test) = match e {
        PhysExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let PhysExpr::Column(c) = &**expr else {
                return None;
            };
            let Column::Str(c) = rel.column(*c) else {
                return None;
            };
            return Some(Rows::of(c, within).keep(|s| pattern.matches(s) != *negated));
        }
        PhysExpr::Binary { op, left, right } => match (&**left, &**right, flipped(*op)?) {
            (PhysExpr::Column(c), k, _) => (*c, Test::Cmp(*op, constant(k, rel)?)),
            (k, PhysExpr::Column(c), flipped) => (*c, Test::Cmp(flipped, constant(k, rel)?)),
            _ => return None,
        },
        PhysExpr::Between {
            expr,
            low,
            high,
            negated,
        } => match &**expr {
            PhysExpr::Column(c) => (
                *c,
                Test::Between(constant(low, rel)?, constant(high, rel)?, *negated),
            ),
            _ => return None,
        },
        _ => return None,
    };
    Some(match rel.column(col) {
        Column::Int(c) => {
            let test = test.typed(|v| match v {
                Value::Int(k) => Some(k),
                _ => None,
            })?;
            test_rows(Rows::of(&**c, within), test)
        }
        Column::Date(c) => {
            let test = test.typed(|v| match v {
                Value::Date(k) => Some(k),
                _ => None,
            })?;
            test_rows(Rows::of(&**c, within), test)
        }
        Column::Float(c) => {
            let test = test.typed(|v| match v {
                Value::Float(k) if !k.is_nan() => Some(k),
                _ => None,
            })?;
            if c.data.iter().any(|v| v.is_nan()) {
                return None;
            }
            test_rows(Rows::of(&**c, within), test)
        }
        Column::Str(c) => {
            let test = test.typed(|v| match v {
                Value::Str(k) => Some(&**k),
                _ => None,
            })?;
            test_rows(Rows::of(c, within), test)
        }
        Column::Bool(_) | Column::Mixed(_) => return None,
    })
}

/// `op` with its operands exchanged; `None` unless `op` is a comparison.
fn flipped(op: BinaryOp) -> Option<BinaryOp> {
    Some(match op {
        BinaryOp::Eq | BinaryOp::NotEq => op,
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        _ => return None,
    })
}

/// One loop per operator, so that no row pays for the dispatch.
fn test_rows<U: PartialOrd + ?Sized>(rows: impl Keep<U>, test: Test<&U>) -> Vec<u32> {
    match test {
        Test::Cmp(BinaryOp::Eq, k) => rows.keep(|v| v == k),
        Test::Cmp(BinaryOp::NotEq, k) => rows.keep(|v| v != k),
        Test::Cmp(BinaryOp::Lt, k) => rows.keep(|v| v < k),
        Test::Cmp(BinaryOp::LtEq, k) => rows.keep(|v| v <= k),
        Test::Cmp(BinaryOp::Gt, k) => rows.keep(|v| v > k),
        Test::Cmp(BinaryOp::GtEq, k) => rows.keep(|v| v >= k),
        Test::Cmp(..) => unreachable!("not a comparison"),
        Test::Between(lo, hi, negated) => rows.keep(|v| (lo <= v && v <= hi) != negated),
    }
}

/// A direct test's candidates: the rows of `within` (every row when
/// `None`) of one column.
struct Rows<'a, C: ?Sized> {
    col: &'a C,
    within: Option<&'a [u32]>,
}

impl<'a, C: ?Sized> Rows<'a, C> {
    fn of(col: &'a C, within: Option<&'a [u32]>) -> Rows<'a, C> {
        Rows { col, within }
    }
}

/// How a direct test visits its candidates' values.
trait Keep<U: ?Sized> {
    /// The candidates, ascending, whose value is present and passes.
    fn keep(self, pass: impl Fn(&U) -> bool) -> Vec<u32>;
}

impl<T: Borrow<U>, U: ?Sized> Keep<U> for Rows<'_, TypedCol<T>> {
    fn keep(self, pass: impl Fn(&U) -> bool) -> Vec<u32> {
        rows_where(self.col, self.within, |v| pass(v.borrow()))
    }
}

impl Keep<str> for Rows<'_, StrCol> {
    /// A gathered column that reads fewer entries than there are
    /// candidates tests each entry once and looks each candidate's verdict
    /// up by its id; any other column is tested row by row, a NULL-free
    /// column that holds its own values where its strings lie.
    fn keep(self, pass: impl Fn(&str) -> bool) -> Vec<u32> {
        let c = self.col;
        let n = c.len();
        match c.ids() {
            Some(ids) if c.entries() < self.within.map_or(n, <[u32]>::len) => {
                with_verdicts(c.entries(), |verdict| {
                    for (e, v) in verdict.iter_mut().enumerate() {
                        *v = c.entry(e as u32).is_some_and(|s| pass(s));
                    }
                    let nulls = c.nulls();
                    if nulls.none_set() {
                        collect_rows(n, self.within, |i| verdict[ids[i] as usize])
                    } else {
                        collect_rows(n, self.within, |i| {
                            !nulls.get(i) && verdict[ids[i] as usize]
                        })
                    }
                })
            }
            _ => match c.values() {
                Some(values) if c.nulls().none_set() => {
                    collect_rows(n, self.within, |i| pass(&values[i]))
                }
                _ => collect_rows(n, self.within, |i| c.get(i).is_some_and(|s| pass(s))),
            },
        }
    }
}

/// Run `f` over `len` verdicts, all false, on the stack when there are
/// few: a per-entry test over the few entries a gathered column reads
/// (`nation`'s 25 names, a few hundred customers) then allocates nothing.
fn with_verdicts<R>(len: usize, f: impl FnOnce(&mut [bool]) -> R) -> R {
    const ON_STACK: usize = 1024;
    if len <= ON_STACK {
        f(&mut [false; ON_STACK][..len])
    } else {
        f(&mut vec![false; len])
    }
}

/// Collect the column positions referenced by `e` (for sparse row buffers).
pub(crate) fn referenced_columns(e: &PhysExpr, out: &mut Vec<usize>) {
    match e {
        PhysExpr::Column(i) => out.push(*i),
        PhysExpr::Literal(_) => {}
        PhysExpr::Binary { left, right, .. } => {
            referenced_columns(left, out);
            referenced_columns(right, out);
        }
        PhysExpr::DateShift { expr, .. }
        | PhysExpr::Neg(expr)
        | PhysExpr::Not(expr)
        | PhysExpr::IsNull { expr, .. }
        | PhysExpr::Extract { expr, .. }
        | PhysExpr::Cast { expr, .. }
        | PhysExpr::Like { expr, .. } => referenced_columns(expr, out),
        PhysExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(o) = operand {
                referenced_columns(o, out);
            }
            for (w, t) in branches {
                referenced_columns(w, out);
                referenced_columns(t, out);
            }
            if let Some(x) = else_expr {
                referenced_columns(x, out);
            }
        }
        PhysExpr::Between {
            expr, low, high, ..
        } => {
            referenced_columns(expr, out);
            referenced_columns(low, out);
            referenced_columns(high, out);
        }
        PhysExpr::InList { expr, list, .. } => {
            referenced_columns(expr, out);
            for it in list {
                referenced_columns(it, out);
            }
        }
        PhysExpr::Scalar { args, .. } => {
            for a in args {
                referenced_columns(a, out);
            }
        }
    }
}

// --------------------------------------------------------- operand views

fn is_null_const(v: &VecOut) -> bool {
    matches!(v, VecOut::Const(Value::Null))
}

enum NumIn<'a> {
    I(&'a TypedCol<i64>),
    F(&'a TypedCol<f64>),
    Ik(i64),
    Fk(f64),
}

impl<'a> NumIn<'a> {
    fn from(v: &'a VecOut) -> Option<NumIn<'a>> {
        match v {
            VecOut::Col(Column::Int(c)) => Some(NumIn::I(c)),
            VecOut::Col(Column::Float(c)) => Some(NumIn::F(c)),
            VecOut::Const(Value::Int(i)) => Some(NumIn::Ik(*i)),
            VecOut::Const(Value::Float(f)) => Some(NumIn::Fk(*f)),
            _ => None,
        }
    }

    fn int_only(&self) -> bool {
        matches!(self, NumIn::I(_) | NumIn::Ik(_))
    }

    #[inline]
    fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            NumIn::I(c) => c.get(i).map(|v| *v as f64),
            NumIn::F(c) => c.get(i).copied(),
            NumIn::Ik(k) => Some(*k as f64),
            NumIn::Fk(k) => Some(*k),
        }
    }

    #[inline]
    fn i64_at(&self, i: usize) -> Option<i64> {
        match self {
            NumIn::I(c) => c.get(i).copied(),
            NumIn::Ik(k) => Some(*k),
            _ => None,
        }
    }
}

enum DateIn<'a> {
    C(&'a TypedCol<i32>),
    K(i32),
}

impl<'a> DateIn<'a> {
    fn from(v: &'a VecOut) -> Option<DateIn<'a>> {
        match v {
            VecOut::Col(Column::Date(c)) => Some(DateIn::C(c)),
            VecOut::Const(Value::Date(d)) => Some(DateIn::K(*d)),
            _ => None,
        }
    }

    #[inline]
    fn at(&self, i: usize) -> Option<i32> {
        match self {
            DateIn::C(c) => c.get(i).copied(),
            DateIn::K(k) => Some(*k),
        }
    }
}

enum StrIn<'a> {
    C(&'a StrCol),
    K(&'a str),
}

impl<'a> StrIn<'a> {
    fn from(v: &'a VecOut) -> Option<StrIn<'a>> {
        match v {
            VecOut::Col(Column::Str(c)) => Some(StrIn::C(c)),
            VecOut::Const(Value::Str(s)) => Some(StrIn::K(s)),
            _ => None,
        }
    }

    #[inline]
    fn at(&self, i: usize) -> Option<&'a str> {
        match self {
            StrIn::C(c) => c.get(i).map(|s| s.as_ref()),
            StrIn::K(k) => Some(k),
        }
    }
}

enum BoolIn<'a> {
    C(&'a TypedCol<bool>),
    K(bool),
}

impl<'a> BoolIn<'a> {
    fn from(v: &'a VecOut) -> Option<BoolIn<'a>> {
        match v {
            VecOut::Col(Column::Bool(c)) => Some(BoolIn::C(c)),
            VecOut::Const(Value::Bool(b)) => Some(BoolIn::K(*b)),
            _ => None,
        }
    }

    #[inline]
    fn at(&self, i: usize) -> Option<bool> {
        match self {
            BoolIn::C(c) => c.get(i).copied(),
            BoolIn::K(k) => Some(*k),
        }
    }
}

/// Tri-state boolean input (`None` = NULL/unknown) for AND/OR/NOT.
enum TriIn<'a> {
    C(&'a TypedCol<bool>),
    K(Option<bool>),
}

impl<'a> TriIn<'a> {
    fn from(v: &'a VecOut) -> Option<TriIn<'a>> {
        match v {
            VecOut::Col(Column::Bool(c)) => Some(TriIn::C(c)),
            VecOut::Const(Value::Bool(b)) => Some(TriIn::K(Some(*b))),
            VecOut::Const(Value::Null) => Some(TriIn::K(None)),
            _ => None,
        }
    }

    #[inline]
    fn at(&self, i: usize) -> Option<bool> {
        match self {
            TriIn::C(c) => c.get(i).copied(),
            TriIn::K(k) => *k,
        }
    }
}

// ----------------------------------------------------------- loop helpers

fn bool_col_from<F: FnMut(usize) -> Option<bool>>(n: usize, mut f: F) -> Column {
    let mut c = TypedCol::with_capacity(n);
    for i in 0..n {
        match f(i) {
            Some(b) => c.push(b),
            None => c.push_null(),
        }
    }
    Column::Bool(Arc::new(c))
}

#[inline]
fn ord_matches(op: BinaryOp, ord: Ordering) -> bool {
    use Ordering::*;
    match op {
        BinaryOp::Eq => ord == Equal,
        BinaryOp::NotEq => ord != Equal,
        BinaryOp::Lt => ord == Less,
        BinaryOp::LtEq => ord != Greater,
        BinaryOp::Gt => ord == Greater,
        BinaryOp::GtEq => ord != Less,
        _ => unreachable!("not a comparison"),
    }
}

/// Comparison loop; `cmpf` returning `None` (NaN) aborts the whole kernel
/// because the row-wise path errors there.
fn cmp_col<T, A, B, C>(n: usize, a: A, b: B, cmpf: C, op: BinaryOp) -> Option<Column>
where
    A: Fn(usize) -> Option<T>,
    B: Fn(usize) -> Option<T>,
    C: Fn(&T, &T) -> Option<Ordering>,
{
    let mut out = TypedCol::with_capacity(n);
    for i in 0..n {
        match (a(i), b(i)) {
            (Some(x), Some(y)) => match cmpf(&x, &y) {
                Some(ord) => out.push(ord_matches(op, ord)),
                None => return None,
            },
            _ => out.push_null(),
        }
    }
    Some(Column::Bool(Arc::new(out)))
}

// ---------------------------------------------------------------- kernels

fn cmp_kernel(op: BinaryOp, l: &VecOut, r: &VecOut, n: usize) -> Option<VecOut> {
    if is_null_const(l) || is_null_const(r) {
        return Some(VecOut::Const(Value::Null));
    }
    if let (VecOut::Const(a), VecOut::Const(b)) = (l, r) {
        // Both non-null: incomparable or NaN would error row-wise → bail.
        let ord = a.sql_cmp(b)?;
        return Some(VecOut::Const(Value::Bool(ord_matches(op, ord))));
    }
    if let (Some(a), Some(b)) = (NumIn::from(l), NumIn::from(r)) {
        if a.int_only() && b.int_only() {
            return cmp_col(
                n,
                |i| a.i64_at(i),
                |i| b.i64_at(i),
                |x, y| Some(x.cmp(y)),
                op,
            )
            .map(VecOut::Col);
        }
        return cmp_col(
            n,
            |i| a.f64_at(i),
            |i| b.f64_at(i),
            |x: &f64, y| x.partial_cmp(y),
            op,
        )
        .map(VecOut::Col);
    }
    if let (Some(a), Some(b)) = (DateIn::from(l), DateIn::from(r)) {
        return cmp_col(n, |i| a.at(i), |i| b.at(i), |x: &i32, y| Some(x.cmp(y)), op)
            .map(VecOut::Col);
    }
    if let (Some(a), Some(b)) = (StrIn::from(l), StrIn::from(r)) {
        return cmp_col(
            n,
            |i| a.at(i),
            |i| b.at(i),
            |x: &&str, y| Some(x.cmp(y)),
            op,
        )
        .map(VecOut::Col);
    }
    if let (Some(a), Some(b)) = (BoolIn::from(l), BoolIn::from(r)) {
        return cmp_col(
            n,
            |i| a.at(i),
            |i| b.at(i),
            |x: &bool, y| Some(x.cmp(y)),
            op,
        )
        .map(VecOut::Col);
    }
    None // mismatched type categories error row-wise
}

fn kleene(op: BinaryOp, l: &VecOut, r: &VecOut, n: usize) -> Option<VecOut> {
    let a = TriIn::from(l)?;
    let b = TriIn::from(r)?;
    let is_and = op == BinaryOp::And;
    let combine = |x: Option<bool>, y: Option<bool>| -> Option<bool> {
        if is_and {
            match (x, y) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        } else {
            match (x, y) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        }
    };
    if let (TriIn::K(x), TriIn::K(y)) = (&a, &b) {
        return Some(VecOut::Const(match combine(*x, *y) {
            Some(v) => Value::Bool(v),
            None => Value::Null,
        }));
    }
    Some(VecOut::Col(bool_col_from(n, |i| combine(a.at(i), b.at(i)))))
}

#[inline]
fn checked_int(op: BinaryOp, a: i64, b: i64) -> Option<i64> {
    match op {
        BinaryOp::Plus => a.checked_add(b),
        BinaryOp::Minus => a.checked_sub(b),
        BinaryOp::Mul => a.checked_mul(b),
        _ => unreachable!("not int arithmetic"),
    }
}

#[inline]
fn float_op(op: BinaryOp, a: f64, b: f64) -> f64 {
    match op {
        BinaryOp::Plus => a + b,
        BinaryOp::Minus => a - b,
        BinaryOp::Mul => a * b,
        _ => unreachable!("not float arithmetic"),
    }
}

fn arith_kernel(op: BinaryOp, l: &VecOut, r: &VecOut, n: usize) -> Option<VecOut> {
    if is_null_const(l) || is_null_const(r) {
        return Some(VecOut::Const(Value::Null));
    }
    // Date arithmetic (mirrors `arith()` exactly, including the i64→i32
    // interval cast).
    let (ld, rd) = (DateIn::from(l), DateIn::from(r));
    if ld.is_some() || rd.is_some() {
        let out = match (ld, rd, NumIn::from(l), NumIn::from(r), op) {
            (Some(d), None, _, Some(x), BinaryOp::Plus) if x.int_only() => {
                date_num_col(n, |i| Some(d.at(i)? + x.i64_at(i)? as i32))
            }
            (None, Some(d), Some(x), _, BinaryOp::Plus) if x.int_only() => {
                date_num_col(n, |i| Some(d.at(i)? + x.i64_at(i)? as i32))
            }
            (Some(d), None, _, Some(x), BinaryOp::Minus) if x.int_only() => {
                date_num_col(n, |i| Some(d.at(i)? - x.i64_at(i)? as i32))
            }
            (Some(a), Some(b), _, _, BinaryOp::Minus) => {
                return Some(VecOut::Col(int_col_from(n, |i| {
                    Some((a.at(i)? - b.at(i)?) as i64)
                })))
            }
            _ => return None, // any other date combination errors row-wise
        };
        return Some(VecOut::Col(out));
    }
    let (a, b) = (NumIn::from(l)?, NumIn::from(r)?);
    if let (VecOut::Const(_), VecOut::Const(_)) = (l, r) {
        // Constant fold with the exact scalar rules.
        let (x, y) = (a.f64_at(0)?, b.f64_at(0)?);
        if let (Some(xi), Some(yi)) = (a.i64_at(0), b.i64_at(0)) {
            if let Some(v) = checked_int(op, xi, yi) {
                return Some(VecOut::Const(Value::Int(v)));
            }
        }
        return Some(VecOut::Const(Value::Float(float_op(op, x, y))));
    }
    if a.int_only() && b.int_only() {
        // Optimistic i64 kernel; any overflow promotes that row to Float
        // (exactly like `arith()`), which needs the Mixed layout.
        let mut out = TypedCol::with_capacity(n);
        let mut overflowed = false;
        for i in 0..n {
            match (a.i64_at(i), b.i64_at(i)) {
                (Some(x), Some(y)) => match checked_int(op, x, y) {
                    Some(v) => out.push(v),
                    None => {
                        overflowed = true;
                        break;
                    }
                },
                _ => out.push_null(),
            }
        }
        if !overflowed {
            return Some(VecOut::Col(Column::Int(Arc::new(out))));
        }
        let mut bld = xdb_sql::column::ColumnBuilder::with_capacity(n);
        for i in 0..n {
            bld.push(match (a.i64_at(i), b.i64_at(i)) {
                (Some(x), Some(y)) => match checked_int(op, x, y) {
                    Some(v) => Value::Int(v),
                    None => Value::Float(float_op(op, x as f64, y as f64)),
                },
                _ => Value::Null,
            });
        }
        return Some(VecOut::Col(bld.finish()));
    }
    let mut out = TypedCol::with_capacity(n);
    for i in 0..n {
        match (a.f64_at(i), b.f64_at(i)) {
            (Some(x), Some(y)) => out.push(float_op(op, x, y)),
            _ => out.push_null(),
        }
    }
    Some(VecOut::Col(Column::Float(Arc::new(out))))
}

fn date_num_col<F: Fn(usize) -> Option<i32>>(n: usize, f: F) -> Column {
    let mut c = TypedCol::with_capacity(n);
    for i in 0..n {
        match f(i) {
            Some(d) => c.push(d),
            None => c.push_null(),
        }
    }
    Column::Date(Arc::new(c))
}

fn int_col_from<F: Fn(usize) -> Option<i64>>(n: usize, f: F) -> Column {
    let mut c = TypedCol::with_capacity(n);
    for i in 0..n {
        match f(i) {
            Some(v) => c.push(v),
            None => c.push_null(),
        }
    }
    Column::Int(Arc::new(c))
}

fn neg_kernel(v: &VecOut, n: usize) -> Option<VecOut> {
    Some(match v {
        VecOut::Const(Value::Null) => VecOut::Const(Value::Null),
        VecOut::Const(Value::Int(i)) => VecOut::Const(Value::Int(-i)),
        VecOut::Const(Value::Float(f)) => VecOut::Const(Value::Float(-f)),
        VecOut::Col(Column::Int(c)) => VecOut::Col(int_col_from(n, |i| c.get(i).map(|v| -v))),
        VecOut::Col(Column::Float(c)) => {
            let mut out = TypedCol::with_capacity(n);
            for i in 0..n {
                match c.get(i) {
                    Some(f) => out.push(-f),
                    None => out.push_null(),
                }
            }
            VecOut::Col(Column::Float(Arc::new(out)))
        }
        _ => return None, // negating other types errors row-wise
    })
}

fn not_kernel(v: &VecOut, n: usize) -> Option<VecOut> {
    match TriIn::from(v)? {
        TriIn::K(k) => Some(VecOut::Const(match k {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        })),
        TriIn::C(c) => Some(VecOut::Col(bool_col_from(n, |i| c.get(i).map(|b| !b)))),
    }
}

fn is_null_kernel(v: &VecOut, negated: bool, n: usize) -> VecOut {
    match v {
        VecOut::Const(k) => VecOut::Const(Value::Bool(k.is_null() != negated)),
        VecOut::Col(c) => VecOut::Col(bool_col_from(n, |i| Some(c.is_null(i) != negated))),
    }
}

/// BETWEEN is total: NULL or incomparable (NaN) comparisons yield NULL,
/// never an error — so matching-category inputs always vectorize.
fn between_kernel(v: &VecOut, lo: &VecOut, hi: &VecOut, negated: bool, n: usize) -> Option<VecOut> {
    if is_null_const(v) || is_null_const(lo) || is_null_const(hi) {
        return Some(VecOut::Const(Value::Null));
    }
    fn run<T, FV, FL, FH, C>(n: usize, v: FV, lo: FL, hi: FH, cmpf: C, negated: bool) -> Column
    where
        FV: Fn(usize) -> Option<T>,
        FL: Fn(usize) -> Option<T>,
        FH: Fn(usize) -> Option<T>,
        C: Fn(&T, &T) -> Option<Ordering>,
    {
        bool_col_from(n, |i| match (v(i), lo(i), hi(i)) {
            (Some(x), Some(l), Some(h)) => match (cmpf(&x, &l), cmpf(&x, &h)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Some(inside != negated)
                }
                _ => None,
            },
            _ => None,
        })
    }
    if let (Some(a), Some(l), Some(h)) = (NumIn::from(v), NumIn::from(lo), NumIn::from(hi)) {
        if a.int_only() && l.int_only() && h.int_only() {
            return Some(VecOut::Col(run(
                n,
                |i| a.i64_at(i),
                |i| l.i64_at(i),
                |i| h.i64_at(i),
                |x: &i64, y| Some(x.cmp(y)),
                negated,
            )));
        }
        return Some(VecOut::Col(run(
            n,
            |i| a.f64_at(i),
            |i| l.f64_at(i),
            |i| h.f64_at(i),
            |x: &f64, y| x.partial_cmp(y),
            negated,
        )));
    }
    if let (Some(a), Some(l), Some(h)) = (DateIn::from(v), DateIn::from(lo), DateIn::from(hi)) {
        return Some(VecOut::Col(run(
            n,
            |i| a.at(i),
            |i| l.at(i),
            |i| h.at(i),
            |x: &i32, y| Some(x.cmp(y)),
            negated,
        )));
    }
    if let (Some(a), Some(l), Some(h)) = (StrIn::from(v), StrIn::from(lo), StrIn::from(hi)) {
        return Some(VecOut::Col(run(
            n,
            |i| a.at(i),
            |i| l.at(i),
            |i| h.at(i),
            |x: &&str, y| Some(x.cmp(y)),
            negated,
        )));
    }
    None // mixed categories compare as NULL row-wise; rare enough to fall back
}

fn like_kernel(v: &VecOut, pattern: &LikePattern, negated: bool, n: usize) -> Option<VecOut> {
    match v {
        VecOut::Const(Value::Null) => Some(VecOut::Const(Value::Null)),
        VecOut::Const(Value::Str(s)) => {
            Some(VecOut::Const(Value::Bool(pattern.matches(s) != negated)))
        }
        VecOut::Col(Column::Str(c)) => Some(VecOut::Col(bool_col_from(n, |i| {
            c.get(i).map(|s| pattern.matches(s) != negated)
        }))),
        _ => None, // LIKE on non-strings errors row-wise
    }
}

fn in_list_kernel(v: &VecOut, items: &[Value], negated: bool, n: usize) -> Option<VecOut> {
    let test = |val: &Value| -> Option<bool> {
        if val.is_null() {
            return None;
        }
        let mut saw_null = false;
        for it in items {
            if it.is_null() {
                saw_null = true;
            } else if val == it {
                return Some(!negated);
            }
        }
        if saw_null {
            None
        } else {
            Some(negated)
        }
    };
    Some(match v {
        VecOut::Const(k) => VecOut::Const(match test(k) {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        }),
        VecOut::Col(c) => VecOut::Col(bool_col_from(n, |i| test(&c.value(i)))),
    })
}

fn extract_kernel(v: &VecOut, field: DateField, n: usize) -> Option<VecOut> {
    let part = |d: i32| -> i64 {
        match field {
            DateField::Year => date::year_of(d) as i64,
            DateField::Month => date::month_of(d) as i64,
            DateField::Day => date::ymd_from_days(d).2 as i64,
        }
    };
    match v {
        VecOut::Const(Value::Null) => Some(VecOut::Const(Value::Null)),
        VecOut::Const(Value::Date(d)) => Some(VecOut::Const(Value::Int(part(*d)))),
        VecOut::Col(Column::Date(c)) => {
            Some(VecOut::Col(int_col_from(n, |i| c.get(i).map(|d| part(*d)))))
        }
        _ => None, // EXTRACT from non-dates errors row-wise
    }
}

fn date_shift_kernel(v: &VecOut, months: i32, days: i32, n: usize) -> Option<VecOut> {
    let shift = |d: i32| -> i32 {
        let shifted = if months != 0 {
            date::add_months(d, months)
        } else {
            d
        };
        shifted + days
    };
    match v {
        VecOut::Const(Value::Null) => Some(VecOut::Const(Value::Null)),
        VecOut::Const(Value::Date(d)) => Some(VecOut::Const(Value::Date(shift(*d)))),
        VecOut::Col(Column::Date(c)) => Some(VecOut::Col(date_num_col(n, |i| {
            c.get(i).map(|d| shift(*d))
        }))),
        _ => None, // interval arithmetic on non-dates errors row-wise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::compile;
    use xdb_sql::algebra::{Field, PlanSchema};
    use xdb_sql::parser::parse_expr;
    use xdb_sql::value::DataType;

    fn rel() -> Relation {
        Relation::new(
            vec![
                ("i".to_string(), DataType::Int),
                ("f".to_string(), DataType::Float),
                ("s".to_string(), DataType::Str),
                ("d".to_string(), DataType::Date),
            ],
            vec![
                vec![
                    Value::Int(10),
                    Value::Float(2.5),
                    Value::str("apple pie"),
                    Value::Date(date::parse("1995-03-15").unwrap()),
                ],
                vec![Value::Null, Value::Null, Value::Null, Value::Null],
                vec![
                    Value::Int(-3),
                    Value::Float(0.0),
                    Value::str("pear"),
                    Value::Date(date::parse("1998-11-02").unwrap()),
                ],
            ],
        )
    }

    fn schema() -> PlanSchema {
        PlanSchema::new(vec![
            Field::new(None::<&str>, "i", DataType::Int),
            Field::new(None::<&str>, "f", DataType::Float),
            Field::new(None::<&str>, "s", DataType::Str),
            Field::new(None::<&str>, "d", DataType::Date),
        ])
    }

    /// Every vectorizable expression must agree with row-wise eval exactly.
    fn check(sql: &str) {
        let e = parse_expr(sql).unwrap();
        let c = compile(&e, &schema()).unwrap();
        let r = rel();
        let col = eval_to_column(&c, &r).unwrap_or_else(|| panic!("{sql} did not vectorize"));
        for i in 0..r.len() {
            let row = r.row(i);
            let expect = c.eval(&row).unwrap();
            assert_eq!(col.value(i), expect, "{sql} row {i}");
        }
    }

    #[test]
    fn kernels_match_rowwise_eval() {
        for sql in [
            "i + 5",
            "i * 2 - 1",
            "f * (1 - 0.5)",
            "-i",
            "i > 5",
            "i > 5 AND f < 3",
            "i > 50 OR f < 3",
            "NOT (i = 10)",
            "i IS NULL",
            "s IS NOT NULL",
            "i between 5 and 15",
            "i not between 20 and 30",
            "f between 0.1 and 3.0",
            "s like '%pie%'",
            "s not like 'z%'",
            "i in (1, 10, 100)",
            "i in (1, NULL)",
            "i not in (1, 2)",
            "extract(year from d)",
            "extract(month from d)",
            "d + interval '1' month",
            "d - interval '20' day",
            "d > date '1996-01-01'",
            "d - date '1995-01-01'",
            "d + 10",
            "i > NULL",
            "NULL + 1",
            "i > 5 AND NULL",
            "s = 'pear'",
            "s < 'b'",
        ] {
            check(sql);
        }
    }

    #[test]
    fn unsafe_nodes_fall_back() {
        for sql in [
            "i / 2", // div-by-zero is data-dependent
            "i % 3",
            "case when i > 5 then 1 else 2 end", // branch short-circuit
            "cast(i as varchar)",
            "abs(i)",
            "s || '!'",
        ] {
            let e = parse_expr(sql).unwrap();
            let c = compile(&e, &schema()).unwrap();
            assert!(eval_vec(&c, &rel()).is_none(), "{sql} should fall back");
        }
    }

    #[test]
    fn int_overflow_promotes_per_row() {
        let r = Relation::new(
            vec![("i".to_string(), DataType::Int)],
            vec![vec![Value::Int(2)], vec![Value::Int(i64::MAX)]],
        );
        let e = parse_expr("i + 1").unwrap();
        let schema = PlanSchema::new(vec![Field::new(None::<&str>, "i", DataType::Int)]);
        let c = compile(&e, &schema).unwrap();
        let col = eval_to_column(&c, &r).unwrap();
        assert_eq!(col.value(0), Value::Int(3));
        assert_eq!(col.value(1), Value::Float(i64::MAX as f64 + 1.0));
    }

    #[test]
    fn filter_sel_matches_predicate() {
        let r = rel();
        let e = parse_expr("i > 0 AND f < 3").unwrap();
        let c = compile(&e, &schema()).unwrap();
        let sel = filter_sel(&c, &r).unwrap();
        let expect: Vec<u32> = (0..r.len())
            .filter(|&i| c.eval_predicate(&r.row(i)).unwrap())
            .map(|i| i as u32)
            .collect();
        assert_eq!(sel, expect);
    }

    #[test]
    fn nan_comparison_falls_back() {
        let r = Relation::new(
            vec![("f".to_string(), DataType::Float)],
            vec![vec![Value::Float(f64::NAN)]],
        );
        let e = parse_expr("f > 1.0").unwrap();
        let schema = PlanSchema::new(vec![Field::new(None::<&str>, "f", DataType::Float)]);
        let c = compile(&e, &schema).unwrap();
        assert!(eval_vec(&c, &r).is_none());
    }
}
