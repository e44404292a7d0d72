//! Binder: resolves a parsed [`SelectStmt`] against a schema provider into
//! a canonical [`LogicalPlan`].
//!
//! The same binder serves two masters:
//! - each embedded engine binds the (task) queries it receives against its
//!   *local* catalog (base tables, views, foreign tables);
//! - the XDB middleware binds user queries against the *global* schema (the
//!   union of local schemas, Section III).
//!
//! The binder's output is canonical: FROM items become a left-deep chain of
//! condition-less joins and every predicate (ON + WHERE) lands in a single
//! `Filter` on top. Join-graph normalization and ordering happen later in
//! [`crate::optimize`].

use crate::algebra::{AggCall, AggFunc, LogicalPlan, Miss, Name, PlanSchema, SchemaError};
use crate::ast::{Expr, SelectItem, SelectStmt, TableRef};
use crate::optimize::MAX_REGION_RELATIONS;
use crate::value::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// The column list of a base or foreign table, interned by the catalog that
/// owns the relation.
pub type RelationFields = Arc<[(Name, DataType)]>;

/// Intern a column list: what a catalog does once, when it learns of the
/// relation.
pub fn intern_fields<S: AsRef<str>>(fields: &[(S, DataType)]) -> RelationFields {
    fields
        .iter()
        .map(|(n, t)| (Name::from(n.as_ref()), *t))
        .collect()
}

/// What a relation name resolves to in a catalog. Both arms share the
/// catalog's own copy.
#[derive(Debug, Clone)]
pub enum ResolvedRelation {
    /// A base table or foreign table with a fixed schema.
    Base { fields: RelationFields },
    /// A view; binding expands its definition in place.
    View { query: Arc<SelectStmt> },
}

/// Source of relation schemas for binding.
pub trait SchemaProvider {
    fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation>;
}

/// Binding error.
#[derive(Debug, Clone, PartialEq)]
pub struct BindError {
    pub message: String,
}

impl BindError {
    fn new(message: impl Into<String>) -> BindError {
        BindError {
            message: message.into(),
        }
    }
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bind error: {}", self.message)
    }
}

impl std::error::Error for BindError {}

impl From<SchemaError> for BindError {
    fn from(e: SchemaError) -> BindError {
        BindError::new(e.to_string())
    }
}

type Result<T> = std::result::Result<T, BindError>;

/// Bind a SELECT statement to a logical plan.
pub fn bind_select(stmt: &SelectStmt, provider: &dyn SchemaProvider) -> Result<LogicalPlan> {
    Binder { provider }.select(stmt)
}

struct Binder<'a> {
    provider: &'a dyn SchemaProvider,
}

impl<'a> Binder<'a> {
    fn select(&self, stmt: &SelectStmt) -> Result<LogicalPlan> {
        // The FROM items are the relations of one optimisation region.
        let relations: usize = stmt.from.iter().map(relation_count).sum();
        if relations > MAX_REGION_RELATIONS {
            return Err(BindError::new(format!(
                "a FROM clause of {relations} relations exceeds the limit of \
                 {MAX_REGION_RELATIONS}"
            )));
        }
        // 1. FROM: cross-product chain; ON conditions join the WHERE pool.
        let mut predicates: Vec<Expr> = Vec::new();
        let mut plan: Option<LogicalPlan> = None;
        for item in &stmt.from {
            let bound = self.table_ref(item, &mut predicates)?;
            plan = Some(match plan {
                Some(acc) => acc.join(bound, vec![]),
                None => bound,
            });
        }
        let mut plan = plan.unwrap_or(LogicalPlan::OneRow);
        if let Some(w) = &stmt.selection {
            predicates.extend(w.clone().into_conjuncts());
        }
        // Partition predicates: subquery predicates (EXISTS / IN subquery)
        // become semi/anti joins; everything else is a scalar filter.
        let mut scalar: Vec<Expr> = Vec::new();
        let mut subqueries: Vec<Expr> = Vec::new();
        for p in predicates {
            match p {
                Expr::Exists { .. } | Expr::InSubquery { .. } => subqueries.push(p),
                other => {
                    if contains_subquery(&other) {
                        return Err(BindError::new(
                            "subquery predicates are only supported as top-level \
                             WHERE conjuncts",
                        ));
                    }
                    scalar.push(other);
                }
            }
        }
        if let Some(pred) = Expr::conjoin(scalar) {
            validate_expr(&pred, plan.schema())?;
            plan = plan.filter(pred);
        }
        for sq in subqueries {
            plan = self.bind_subquery_predicate(plan, sq)?;
        }

        // 2. Projection list with output names.
        let input_schema = plan.schema().clone();
        let mut proj: Vec<(Expr, Name)> = Vec::new();
        for (i, item) in stmt.projection.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for f in &*input_schema.fields {
                        proj.push((f.column(), f.name.clone()));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for f in &*input_schema.fields {
                        if f.qualifier
                            .as_deref()
                            .is_some_and(|fq| fq.eq_ignore_ascii_case(q))
                        {
                            proj.push((f.column(), f.name.clone()));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(BindError::new(format!("unknown relation in {q}.*")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let name = output_name(expr, alias.as_deref(), i);
                    proj.push((expr.clone(), name));
                }
            }
        }

        let has_agg = !stmt.group_by.is_empty()
            || proj.iter().any(|(e, _)| e.contains_aggregate())
            || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate());

        if has_agg {
            plan = self.bind_aggregate(plan, &input_schema, proj, stmt)?;
        } else {
            if stmt.having.is_some() {
                return Err(BindError::new("HAVING requires GROUP BY or aggregates"));
            }
            for (e, _) in &proj {
                validate_expr(e, &input_schema)?;
            }
            // ORDER BY binds against the projection output, falling back to
            // pre-projection columns (SQL allows ordering by hidden columns).
            let projected = plan.project(proj);
            let LogicalPlan::Project { exprs: proj, .. } = &projected else {
                unreachable!("project() builds a Project");
            };
            let out_schema = projected.schema();
            let mut out_keys: Vec<(Expr, bool)> = Vec::new();
            let mut pre_keys: Vec<(Expr, bool)> = Vec::new();
            for ob in &stmt.order_by {
                let key = self.resolve_order_key(&ob.expr, proj)?;
                if resolves(&key, out_schema) {
                    out_keys.push((key, ob.desc));
                } else if resolves(&ob.expr, &input_schema) {
                    pre_keys.push((ob.expr.clone(), ob.desc));
                } else {
                    validate_expr(&key, out_schema)?; // surfaces the error
                }
            }
            if !pre_keys.is_empty() && !out_keys.is_empty() {
                return Err(BindError::new(
                    "ORDER BY mixes projected and unprojected columns",
                ));
            }
            plan = if !pre_keys.is_empty() {
                // The sort goes below the projection: take it apart again.
                let LogicalPlan::Project { input, exprs, .. } = projected else {
                    unreachable!("project() builds a Project");
                };
                LogicalPlan::Sort {
                    input,
                    keys: pre_keys,
                }
                .project(exprs)
            } else if !out_keys.is_empty() {
                LogicalPlan::Sort {
                    input: Box::new(projected),
                    keys: out_keys,
                }
            } else {
                projected
            };
        }

        if stmt.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        if let Some(n) = stmt.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                fetch: n,
            };
        }
        Ok(plan)
    }

    /// Turn an `EXISTS` / `IN (subquery)` predicate into a semi/anti join
    /// over `outer`.
    ///
    /// `x NOT IN (subquery)` is rejected: it rejects every row once the
    /// subquery yields a NULL, and `x` NULL never qualifies, which an anti
    /// join on `x = y` does not do. `NOT EXISTS` says what an anti join
    /// means.
    ///
    /// Supported correlation: top-level equality conjuncts in the inner
    /// WHERE clause with one side resolving in the inner scope and the
    /// other in the outer scope (the classic decorrelatable form, e.g.
    /// TPC-H Q4's `l_orderkey = o_orderkey`). Correlation is not supported
    /// through inner aggregation.
    fn bind_subquery_predicate(&self, outer: LogicalPlan, pred: Expr) -> Result<LogicalPlan> {
        let outer_schema = outer.schema().clone();
        let (query, negated, in_expr) = match pred {
            Expr::Exists { query, negated } => (query, negated, None),
            Expr::InSubquery { negated: true, .. } => {
                return Err(BindError::new(
                    "NOT IN over a subquery is not supported: a NULL on either side \
                     is not an anti join; write NOT EXISTS instead",
                ))
            }
            Expr::InSubquery { expr, query, .. } => (query, false, Some(*expr)),
            _ => unreachable!("caller filters for subquery predicates"),
        };

        // Split correlated equality conjuncts out of the inner WHERE.
        let inner_from_schema = self.from_schema(&query)?;
        let mut inner_preds: Vec<Expr> = Vec::new();
        let mut correlations: Vec<(Expr, Expr)> = Vec::new(); // (outer, inner)
        for conjunct in query
            .selection
            .clone()
            .map(Expr::into_conjuncts)
            .unwrap_or_default()
        {
            if resolves(&conjunct, &inner_from_schema) {
                inner_preds.push(conjunct);
                continue;
            }
            if let Expr::Binary {
                op: crate::ast::BinaryOp::Eq,
                left,
                right,
            } = &conjunct
            {
                let l_inner = resolves(left, &inner_from_schema);
                let r_inner = resolves(right, &inner_from_schema);
                let l_outer = resolves(left, &outer_schema);
                let r_outer = resolves(right, &outer_schema);
                if l_inner && r_outer {
                    correlations.push(((**right).clone(), (**left).clone()));
                    continue;
                }
                if r_inner && l_outer {
                    correlations.push(((**left).clone(), (**right).clone()));
                    continue;
                }
            }
            return Err(BindError::new(format!(
                "unsupported correlated subquery predicate: only top-level \
                 equality correlations are decorrelated ({conjunct:?})"
            )));
        }
        if !correlations.is_empty()
            && (!query.group_by.is_empty()
                || query.projection.iter().any(
                    |i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
                ))
        {
            return Err(BindError::new(
                "correlation through an aggregating subquery is not supported",
            ));
        }

        // Bind the decorrelated inner query. Correlated inner expressions
        // that do not already survive to the inner output (e.g. in
        // `EXISTS (SELECT 1 ...)`) are appended to the projection under
        // reserved aliases; ones that do (e.g. `SELECT *`) are referenced
        // directly — appending unconditionally would collide when
        // delegated SQL is re-bound by an engine.
        let mut decorrelated = (*query).clone();
        decorrelated.selection = Expr::conjoin(inner_preds);
        let probe_plan = self.select(&decorrelated)?;
        let probe_schema = probe_plan.schema().clone();
        let mut corr_refs: Vec<Expr> = Vec::with_capacity(correlations.len());
        let mut appended = false;
        for (i, (_, inner_e)) in correlations.iter().enumerate() {
            if resolves(inner_e, &probe_schema) {
                corr_refs.push(inner_e.clone());
            } else {
                // Choose an alias that cannot collide with existing output
                // columns (delegated SQL re-binds, so `__corr_*` names may
                // already be present via `SELECT *`).
                let mut alias = format!("__corr_{i}");
                let mut k = 0;
                while probe_schema
                    .fields
                    .iter()
                    .any(|f| f.name.eq_ignore_ascii_case(&alias))
                {
                    k += 1;
                    alias = format!("__corr_{i}_{k}");
                }
                decorrelated.projection.push(SelectItem::Expr {
                    expr: inner_e.clone(),
                    alias: Some(alias.clone()),
                });
                corr_refs.push(Expr::col(alias));
                appended = true;
            }
        }
        let inner_plan = if appended {
            self.select(&decorrelated)?
        } else {
            probe_plan
        };
        let inner_schema = inner_plan.schema();

        // Assemble the equality pairs.
        let mut on: Vec<(Expr, Expr)> = Vec::new();
        if let Some(e) = in_expr {
            validate_expr(&e, &outer_schema)?;
            // The visible output is whatever precedes the appended
            // `__corr_*` columns.
            let visible = inner_schema
                .fields
                .iter()
                .filter(|f| !f.name.starts_with("__corr_"))
                .count();
            if visible != 1 {
                return Err(BindError::new(format!(
                    "IN subquery must produce exactly one column, got {visible}"
                )));
            }
            on.push((e, inner_schema.fields[0].column()));
        }
        for ((outer_e, _), corr_ref) in correlations.into_iter().zip(corr_refs) {
            validate_expr(&outer_e, &outer_schema)?;
            validate_expr(&corr_ref, inner_schema).map_err(|e| BindError::new(e.to_string()))?;
            on.push((outer_e, corr_ref));
        }
        Ok(LogicalPlan::SemiJoin {
            left: Box::new(outer),
            right: Box::new(inner_plan),
            on,
            residual: None,
            negated,
        })
    }

    /// Schema of a statement's FROM clause only (for partitioning inner
    /// predicates before decorrelation).
    #[allow(clippy::wrong_self_convention)] // "schema of the FROM clause"
    fn from_schema(&self, stmt: &SelectStmt) -> Result<PlanSchema> {
        let mut predicates = Vec::new();
        let mut plan: Option<LogicalPlan> = None;
        for item in &stmt.from {
            let bound = self.table_ref(item, &mut predicates)?;
            plan = Some(match plan {
                Some(acc) => acc.join(bound, vec![]),
                None => bound,
            });
        }
        Ok(plan.map(|p| p.schema().clone()).unwrap_or_default())
    }

    fn table_ref(&self, t: &TableRef, predicates: &mut Vec<Expr>) -> Result<LogicalPlan> {
        match t {
            TableRef::Table { name, alias } => {
                let resolved = self
                    .provider
                    .resolve_relation(name)
                    .ok_or_else(|| BindError::new(format!("unknown relation {name:?}")))?;
                let scope = alias.as_deref().unwrap_or(name);
                match resolved {
                    ResolvedRelation::Base { fields } => Ok(LogicalPlan::scan(
                        name.clone(),
                        scope,
                        fields.iter().cloned(),
                    )),
                    ResolvedRelation::View { query } => Ok(self.select(&query)?.alias(scope)),
                }
            }
            TableRef::Derived { query, alias } => Ok(self.select(query)?.alias(alias.as_str())),
            TableRef::Join { left, right, on } => {
                let l = self.table_ref(left, predicates)?;
                let r = self.table_ref(right, predicates)?;
                predicates.push((**on).clone());
                Ok(l.join(r, vec![]))
            }
        }
    }

    /// Build Aggregate [+ Filter(HAVING)] + Project [+ Sort] for a grouped
    /// query block.
    fn bind_aggregate(
        &self,
        input: LogicalPlan,
        input_schema: &PlanSchema,
        proj: Vec<(Expr, Name)>,
        stmt: &SelectStmt,
    ) -> Result<LogicalPlan> {
        // Resolve grouping items: ordinals and projection aliases map to
        // the projection expressions; anything else is used verbatim.
        let mut group_by: Vec<(Expr, Name)> = Vec::new();
        for (gi, g) in stmt.group_by.iter().enumerate() {
            let (expr, name) = match g {
                Expr::Literal(Value::Int(n)) => {
                    let idx = (*n as usize)
                        .checked_sub(1)
                        .filter(|i| *i < proj.len())
                        .ok_or_else(|| {
                            BindError::new(format!("GROUP BY ordinal {n} out of range"))
                        })?;
                    proj[idx].clone()
                }
                Expr::Column {
                    qualifier: None,
                    name,
                } => {
                    // Alias of a projection item wins over input columns,
                    // unless the projection item is itself that column.
                    if let Some((e, n)) = proj.iter().find(|(_, n)| n.eq_ignore_ascii_case(name)) {
                        (e.clone(), n.clone())
                    } else {
                        validate_expr(g, input_schema)?;
                        (g.clone(), name.clone())
                    }
                }
                other => {
                    validate_expr(other, input_schema)?;
                    // A grouping expression that structurally matches a
                    // projection item adopts that item's output name, so
                    // later references (ORDER BY, outer queries) resolve.
                    if let Some((e, n)) = proj.iter().find(|(pe, _)| pe == other) {
                        (e.clone(), n.clone())
                    } else {
                        let name = match other {
                            Expr::Column { name, .. } => name.clone(),
                            _ => format!("group_{gi}").into(),
                        };
                        (other.clone(), name)
                    }
                }
            };
            if expr.contains_aggregate() {
                return Err(BindError::new("cannot GROUP BY an aggregate expression"));
            }
            validate_expr(&expr, input_schema)?;
            // Dedup on structural equality.
            if !group_by.iter().any(|(e, _)| e == &expr) {
                group_by.push((expr, name));
            }
        }

        // Collect aggregate calls from projection, HAVING and ORDER BY.
        let mut aggregates: Vec<(AggCall, Name)> = Vec::new();
        let mut collect = |e: &Expr, preferred: Option<&Name>| -> Result<()> {
            let calls = extract_agg_calls(e)?;
            for c in calls {
                if !aggregates.iter().any(|(a, _)| a == &c) {
                    let name = match preferred {
                        // A projection item that *is* a single aggregate
                        // keeps its output name.
                        Some(n) if matches!(agg_of(e), Some(ref only) if *only == c) => n.clone(),
                        _ => format!("agg_{}", aggregates.len()).into(),
                    };
                    aggregates.push((c, name));
                }
            }
            Ok(())
        };
        for (e, name) in &proj {
            collect(e, Some(name))?;
        }
        if let Some(h) = &stmt.having {
            collect(h, None)?;
        }
        for ob in &stmt.order_by {
            let key = self.resolve_order_key(&ob.expr, &proj)?;
            collect(&key, None)?;
        }
        for (call, _) in &aggregates {
            if let Some(arg) = &call.arg {
                validate_expr(arg, input_schema)?;
            }
        }

        let agg_plan = input.aggregate(group_by.clone(), aggregates.clone());
        let agg_schema = agg_plan.schema().clone();

        // Rewrite an expression over the aggregate output: aggregate calls
        // and grouping expressions become column references.
        let rewrite = |e: &Expr| -> Result<Expr> {
            let rewritten = rewrite_over_agg(e, &group_by, &aggregates);
            validate_expr(&rewritten, &agg_schema).map_err(|err| {
                BindError::new(format!(
                    "{err} — expression must be an aggregate or appear in GROUP BY"
                ))
            })?;
            Ok(rewritten)
        };

        let mut plan = agg_plan;
        if let Some(h) = &stmt.having {
            plan = plan.filter(rewrite(h)?);
        }
        let rewritten_proj: Vec<(Expr, Name)> = proj
            .into_iter()
            .map(|(e, n)| Ok((rewrite(&e)?, n)))
            .collect::<Result<_>>()?;
        plan = plan.project(rewritten_proj);
        if !stmt.order_by.is_empty() {
            let LogicalPlan::Project {
                exprs: rewritten_proj,
                schema: out_schema,
                ..
            } = &plan
            else {
                unreachable!("project() builds a Project");
            };
            let mut keys = Vec::new();
            for ob in &stmt.order_by {
                let key = self.resolve_order_key(&ob.expr, rewritten_proj)?;
                // Keys containing aggregate calls are always rewritten
                // onto the aggregate's output columns (column validation
                // alone cannot see a bare `count(*)`); other keys try the
                // projected output first and fall back to the rewrite
                // (which maps grouping expressions to their outputs).
                let key = if key.contains_aggregate() || !resolves(&key, out_schema) {
                    rewrite(&key)?
                } else {
                    key
                };
                validate_expr(&key, out_schema).map_err(|e| BindError::new(e.to_string()))?;
                keys.push((key, ob.desc));
            }
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        Ok(plan)
    }

    /// ORDER BY keys may be ordinals or projection aliases.
    fn resolve_order_key(&self, e: &Expr, proj: &[(Expr, Name)]) -> Result<Expr> {
        match e {
            Expr::Literal(Value::Int(n)) => {
                let idx = (*n as usize)
                    .checked_sub(1)
                    .filter(|i| *i < proj.len())
                    .ok_or_else(|| BindError::new(format!("ORDER BY ordinal {n} out of range")))?;
                Ok(Expr::col(proj[idx].1.clone()))
            }
            Expr::Column {
                qualifier: None,
                name,
            } => {
                if proj.iter().any(|(_, n)| n.eq_ignore_ascii_case(name)) {
                    Ok(Expr::col(name.clone()))
                } else {
                    Ok(e.clone())
                }
            }
            other => Ok(other.clone()),
        }
    }
}

/// Does the expression contain a subquery predicate anywhere?
fn contains_subquery(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if matches!(x, Expr::Exists { .. } | Expr::InSubquery { .. }) {
            found = true;
        }
    });
    found
}

/// How many relations a FROM item contributes to its block's region.
fn relation_count(t: &TableRef) -> usize {
    match t {
        TableRef::Table { .. } | TableRef::Derived { .. } => 1,
        TableRef::Join { left, right, .. } => relation_count(left) + relation_count(right),
    }
}

/// Derive the output column name for an unaliased projection item. A
/// column keeps the name it already has.
fn output_name(e: &Expr, alias: Option<&str>, index: usize) -> Name {
    if let Some(a) = alias {
        return a.into();
    }
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.as_str().into(),
        Expr::CountStar => "count".into(),
        Expr::Extract { field, .. } => format!("{field:?}").to_lowercase().into(),
        _ => format!("col_{index}").into(),
    }
}

/// The first column reference in `e` that does not resolve against
/// `schema`, and why.
fn first_miss<'e>(e: &'e Expr, schema: &PlanSchema) -> Option<(Option<&'e str>, &'e str, Miss)> {
    let mut miss = None;
    e.walk(&mut |x| {
        if miss.is_some() {
            return;
        }
        if let Expr::Column { qualifier, name } = x {
            if let Err(why) = schema.lookup(qualifier.as_deref(), name) {
                miss = Some((qualifier.as_deref(), &**name, why));
            }
        }
    });
    miss
}

/// Does every column reference in `e` resolve against `schema`?
fn resolves(e: &Expr, schema: &PlanSchema) -> bool {
    first_miss(e, schema).is_none()
}

/// Every column reference in `e` must resolve against `schema`; the error
/// names the first that does not.
fn validate_expr(e: &Expr, schema: &PlanSchema) -> std::result::Result<(), SchemaError> {
    match first_miss(e, schema) {
        Some((qualifier, name, why)) => Err(why.error(qualifier, name)),
        None => Ok(()),
    }
}

/// If `e` is exactly one aggregate call, return it.
fn agg_of(e: &Expr) -> Option<AggCall> {
    match e {
        Expr::CountStar => Some(AggCall {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }),
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            let func = AggFunc::parse(name)?;
            Some(AggCall {
                func,
                arg: args.first().cloned(),
                distinct: *distinct,
            })
        }
        _ => None,
    }
}

/// Collect all aggregate calls appearing anywhere in `e`. Errors on nested
/// aggregates and on an aggregate call without exactly one argument
/// (`count(*)` is its own expression).
fn extract_agg_calls(e: &Expr) -> Result<Vec<AggCall>> {
    let mut out: Vec<AggCall> = Vec::new();
    let mut nested = false;
    let mut arity: Option<(&str, usize)> = None;
    e.walk(&mut |x| {
        if let Expr::Function { name, args, .. } = x {
            if args.len() != 1 && AggFunc::parse(name).is_some() {
                arity.get_or_insert((name, args.len()));
                return;
            }
        }
        if let Some(call) = agg_of(x) {
            if let Some(arg) = &call.arg {
                if arg.contains_aggregate() {
                    nested = true;
                }
            }
            if !out.contains(&call) {
                out.push(call);
            }
        }
    });
    if let Some((name, n)) = arity {
        return Err(BindError::new(format!(
            "aggregate {name} takes exactly one argument, got {n}"
        )));
    }
    if nested {
        return Err(BindError::new("nested aggregate calls are not allowed"));
    }
    Ok(out)
}

/// Replace aggregate calls and grouping expressions inside `e` with column
/// references into the aggregate's output schema.
fn rewrite_over_agg(e: &Expr, group_by: &[(Expr, Name)], aggregates: &[(AggCall, Name)]) -> Expr {
    // Grouping expressions first (they may syntactically contain what looks
    // like other columns).
    if let Some((_, name)) = group_by.iter().find(|(g, _)| g == e) {
        return Expr::col(name.clone());
    }
    if let Some(call) = agg_of(e) {
        if let Some((_, name)) = aggregates.iter().find(|(a, _)| *a == call) {
            return Expr::col(name.clone());
        }
    }
    // Recurse manually to apply top-down matching (transform() is
    // bottom-up, which would rewrite inside aggregate args first).
    match e {
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rewrite_over_agg(left, group_by, aggregates)),
            right: Box::new(rewrite_over_agg(right, group_by, aggregates)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_over_agg(expr, group_by, aggregates)),
        },
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Expr::Case {
            operand: operand
                .as_ref()
                .map(|o| Box::new(rewrite_over_agg(o, group_by, aggregates))),
            branches: branches
                .iter()
                .map(|(w, t)| {
                    (
                        rewrite_over_agg(w, group_by, aggregates),
                        rewrite_over_agg(t, group_by, aggregates),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|x| Box::new(rewrite_over_agg(x, group_by, aggregates))),
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite_over_agg(expr, group_by, aggregates)),
            low: Box::new(rewrite_over_agg(low, group_by, aggregates)),
            high: Box::new(rewrite_over_agg(high, group_by, aggregates)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite_over_agg(expr, group_by, aggregates)),
            list: list
                .iter()
                .map(|x| rewrite_over_agg(x, group_by, aggregates))
                .collect(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_over_agg(expr, group_by, aggregates)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite_over_agg(expr, group_by, aggregates)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Extract { field, expr } => Expr::Extract {
            field: *field,
            expr: Box::new(rewrite_over_agg(expr, group_by, aggregates)),
        },
        Expr::Cast { expr, data_type } => Expr::Cast {
            expr: Box::new(rewrite_over_agg(expr, group_by, aggregates)),
            data_type: *data_type,
        },
        leaf => leaf.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use std::collections::HashMap;

    struct MapProvider {
        relations: HashMap<String, ResolvedRelation>,
    }

    impl SchemaProvider for MapProvider {
        fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
            self.relations.get(&name.to_ascii_lowercase()).cloned()
        }
    }

    fn provider() -> MapProvider {
        let mut relations = HashMap::new();
        relations.insert(
            "citizen".to_string(),
            ResolvedRelation::Base {
                fields: intern_fields(&[
                    ("id", DataType::Int),
                    ("name", DataType::Str),
                    ("age", DataType::Int),
                    ("address", DataType::Str),
                ]),
            },
        );
        relations.insert(
            "vaccination".to_string(),
            ResolvedRelation::Base {
                fields: intern_fields(&[
                    ("c_id", DataType::Int),
                    ("v_id", DataType::Int),
                    ("vdate", DataType::Date),
                ]),
            },
        );
        relations.insert(
            "adults".to_string(),
            ResolvedRelation::View {
                query: Arc::new(
                    parse_select("SELECT id, age FROM citizen WHERE age >= 18").unwrap(),
                ),
            },
        );
        MapProvider { relations }
    }

    fn bind(sql: &str) -> LogicalPlan {
        bind_select(&parse_select(sql).unwrap(), &provider()).unwrap()
    }

    fn bind_err(sql: &str) -> BindError {
        bind_select(&parse_select(sql).unwrap(), &provider()).unwrap_err()
    }

    #[test]
    fn simple_projection() {
        let plan = bind("SELECT name, age FROM citizen");
        let schema = plan.schema();
        assert_eq!(&*schema.fields[0].name, "name");
        assert_eq!(schema.fields[1].data_type, DataType::Int);
    }

    #[test]
    fn wildcard_expansion() {
        let plan = bind("SELECT * FROM citizen");
        assert_eq!(plan.schema().len(), 4);
        let plan = bind("SELECT c.* FROM citizen c, vaccination v");
        assert_eq!(plan.schema().len(), 4);
    }

    #[test]
    fn unknown_relation_and_column() {
        assert!(bind_err("SELECT x FROM nope")
            .message
            .contains("unknown relation"));
        assert!(bind_err("SELECT bogus FROM citizen")
            .message
            .contains("unknown column"));
    }

    #[test]
    fn where_and_join_preds_merge() {
        let plan = bind(
            "SELECT c.name FROM citizen c JOIN vaccination v ON c.id = v.c_id WHERE c.age > 20",
        );
        // Canonical: Project(Filter(Join(...))) with both predicates in one
        // Filter.
        match &plan {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Filter { predicate, .. } => {
                    assert_eq!(predicate.conjuncts().len(), 2);
                }
                other => panic!("expected filter, got {}", other.tree_string()),
            },
            other => panic!("expected project, got {}", other.tree_string()),
        }
    }

    #[test]
    fn view_expansion() {
        let plan = bind("SELECT a.age FROM adults a WHERE a.age < 65");
        // The view body is inlined under a SubqueryAlias.
        let tree = plan.tree_string();
        assert!(tree.contains("SubqueryAlias: a"), "{tree}");
        assert!(tree.contains("Scan: citizen"), "{tree}");
    }

    #[test]
    fn group_by_alias_and_case() {
        let plan = bind(
            "SELECT case when age between 20 and 30 then '20-30' else 'other' end as age_group, \
                    count(*) as cnt \
             FROM citizen GROUP BY age_group",
        );
        match find_agg(&plan) {
            Some((group_by, aggregates)) => {
                assert_eq!(group_by.len(), 1);
                assert_eq!(&*group_by[0].1, "age_group");
                assert!(matches!(group_by[0].0, Expr::Case { .. }));
                assert_eq!(aggregates.len(), 1);
                assert_eq!(&*aggregates[0].1, "cnt");
            }
            None => panic!("no aggregate node: {}", plan.tree_string()),
        }
    }

    #[test]
    fn group_by_ordinal() {
        let plan = bind("SELECT age, count(*) FROM citizen GROUP BY 1");
        let (group_by, _) = find_agg(&plan).unwrap();
        assert_eq!(&*group_by[0].1, "age");
    }

    #[test]
    fn expr_over_aggregates() {
        let plan = bind("SELECT sum(age) / count(*) AS mean FROM citizen");
        // Project(mean = agg_x / agg_y) over Aggregate.
        match &plan {
            LogicalPlan::Project { exprs, input, .. } => {
                assert_eq!(&*exprs[0].1, "mean");
                assert!(matches!(**input, LogicalPlan::Aggregate { .. }));
                // The projection references aggregate outputs by name.
                let refs = crate::ast::tests::referenced_columns(&exprs[0].0);
                assert_eq!(refs.len(), 2);
            }
            other => panic!("unexpected plan {}", other.tree_string()),
        }
    }

    #[test]
    fn having_filters_above_aggregate() {
        let plan = bind("SELECT age, count(*) AS c FROM citizen GROUP BY age HAVING count(*) > 2");
        let tree = plan.tree_string();
        assert!(tree.contains("Filter"), "{tree}");
        // Filter sits above Aggregate.
        let filter_pos = tree.find("Filter").unwrap();
        let agg_pos = tree.find("Aggregate").unwrap();
        assert!(filter_pos < agg_pos, "{tree}");
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = bind_err("SELECT name, count(*) FROM citizen GROUP BY age");
        assert!(err.message.contains("GROUP BY"), "{}", err.message);
    }

    #[test]
    fn order_by_alias_and_ordinal() {
        let plan = bind("SELECT age AS a FROM citizen ORDER BY a DESC");
        assert!(matches!(plan, LogicalPlan::Sort { .. }));
        let plan = bind("SELECT age FROM citizen ORDER BY 1");
        assert!(matches!(plan, LogicalPlan::Sort { .. }));
    }

    #[test]
    fn order_by_unprojected_column() {
        let plan = bind("SELECT name FROM citizen ORDER BY age");
        // Sort must land below the projection.
        match &plan {
            LogicalPlan::Project { input, .. } => {
                assert!(matches!(**input, LogicalPlan::Sort { .. }))
            }
            other => panic!("unexpected plan {}", other.tree_string()),
        }
    }

    #[test]
    fn order_by_aggregate_expression() {
        let plan = bind("SELECT age, sum(id) AS s FROM citizen GROUP BY age ORDER BY sum(id) DESC");
        assert!(matches!(plan, LogicalPlan::Sort { .. }));
    }

    #[test]
    fn distinct_and_limit() {
        let plan = bind("SELECT DISTINCT age FROM citizen LIMIT 5");
        assert!(matches!(plan, LogicalPlan::Limit { .. }));
        let tree = plan.tree_string();
        assert!(tree.contains("Distinct"));
    }

    #[test]
    fn derived_table_binding() {
        let plan = bind(
            "SELECT d.a FROM (SELECT age AS a FROM citizen WHERE age > 10) AS d WHERE d.a < 60",
        );
        let tree = plan.tree_string();
        assert!(tree.contains("SubqueryAlias: d"), "{tree}");
    }

    #[test]
    fn nested_aggregate_rejected() {
        let err = bind_err("SELECT sum(count(*)) FROM citizen GROUP BY age");
        assert!(err.message.contains("nested"), "{}", err.message);
    }

    #[test]
    fn exists_becomes_semi_join() {
        let plan = bind(
            "SELECT name FROM citizen c WHERE EXISTS \
             (SELECT 1 FROM vaccination v WHERE v.c_id = c.id AND v.v_id = 1)",
        );
        let tree = plan.tree_string();
        assert!(tree.contains("SemiJoin"), "{tree}");
        // The pure-inner conjunct stays inside; the correlation became a
        // join condition.
        assert!(tree.contains("v_id = 1"), "{tree}");
    }

    #[test]
    fn not_exists_becomes_anti_join() {
        let plan = bind(
            "SELECT name FROM citizen c WHERE NOT EXISTS \
             (SELECT 1 FROM vaccination v WHERE v.c_id = c.id)",
        );
        assert!(
            plan.tree_string().contains("AntiJoin"),
            "{}",
            plan.tree_string()
        );
    }

    #[test]
    fn in_subquery_becomes_semi_join() {
        let plan = bind("SELECT name FROM citizen WHERE id IN (SELECT c_id FROM vaccination)");
        assert!(
            plan.tree_string().contains("SemiJoin"),
            "{}",
            plan.tree_string()
        );
    }

    #[test]
    fn subquery_inside_or_rejected() {
        let err = bind_err(
            "SELECT name FROM citizen c WHERE age > 80 OR EXISTS \
             (SELECT 1 FROM vaccination v WHERE v.c_id = c.id)",
        );
        assert!(err.message.contains("top-level"), "{}", err.message);
    }

    #[test]
    fn correlated_aggregate_subquery_rejected() {
        let err = bind_err(
            "SELECT name FROM citizen c WHERE EXISTS \
             (SELECT count(*) FROM vaccination v WHERE v.c_id = c.id GROUP BY v.v_id)",
        );
        assert!(err.message.contains("aggregating"), "{}", err.message);
    }

    #[test]
    fn non_equality_correlation_rejected() {
        let err = bind_err(
            "SELECT name FROM citizen c WHERE EXISTS \
             (SELECT 1 FROM vaccination v WHERE v.c_id < c.id)",
        );
        assert!(err.message.contains("correlat"), "{}", err.message);
    }

    #[test]
    fn multi_column_in_subquery_rejected() {
        let err =
            bind_err("SELECT name FROM citizen WHERE id IN (SELECT c_id, v_id FROM vaccination)");
        assert!(err.message.contains("one column"), "{}", err.message);
    }

    #[test]
    fn no_from_constant_select() {
        let plan = bind("SELECT 1 AS one");
        assert_eq!(&*plan.schema().fields[0].name, "one");
    }

    #[test]
    fn aggregate_call_takes_exactly_one_argument() {
        for (sql, shown) in [
            (
                "SELECT sum() FROM citizen",
                "sum takes exactly one argument, got 0",
            ),
            (
                "SELECT max() FROM citizen",
                "max takes exactly one argument, got 0",
            ),
            (
                "SELECT sum(id, age) FROM citizen",
                "sum takes exactly one argument, got 2",
            ),
            (
                "SELECT age FROM citizen GROUP BY age HAVING min() > 1",
                "min takes exactly one argument, got 0",
            ),
        ] {
            let err = bind_err(sql);
            assert_eq!(err.message, format!("aggregate {shown}"), "{sql}");
        }
        bind("SELECT count(*) FROM citizen");
    }

    #[test]
    fn from_clause_holds_at_most_one_region_of_relations() {
        // `n` relations as a comma list or as a chain of JOINs.
        let select = |n: usize, joined: bool| {
            let mut from = String::from("citizen c0");
            for i in 1..n {
                from.push_str(&if joined {
                    format!(" JOIN citizen c{i} ON c0.id = c{i}.id")
                } else {
                    format!(", citizen c{i}")
                });
            }
            format!("SELECT count(*) FROM {from}")
        };
        bind(&select(MAX_REGION_RELATIONS, false));
        for joined in [false, true] {
            let err = bind_err(&select(MAX_REGION_RELATIONS + 1, joined));
            assert_eq!(
                err.message,
                "a FROM clause of 65 relations exceeds the limit of 64"
            );
        }
    }

    #[test]
    fn count_distinct() {
        let plan = bind("SELECT count(DISTINCT age) AS n FROM citizen");
        let (_, aggs) = find_agg(&plan).unwrap();
        assert!(aggs[0].0.distinct);
    }

    type AggParts = (Vec<(Expr, Name)>, Vec<(AggCall, Name)>);

    /// Find the first Aggregate node in a plan tree.
    fn find_agg(plan: &LogicalPlan) -> Option<AggParts> {
        if let LogicalPlan::Aggregate {
            group_by,
            aggregates,
            ..
        } = plan
        {
            return Some((group_by.clone(), aggregates.clone()));
        }
        for c in plan.children() {
            if let Some(found) = find_agg(c) {
                return Some(found);
            }
        }
        None
    }
}
