//! Logical relational algebra shared by the local engines and the XDB
//! cross-database optimizer.
//!
//! A delegation plan's task bodies are sub-trees of this algebra; the
//! delegation engine lowers them back to dialect-specific SQL via
//! [`plan_to_select`]. Operators carry *name-resolved* schemas
//! (qualifier + column name), never positional indexes, so a sub-tree can be
//! rendered as SQL for any DBMS without further context.

pub use crate::ast::Name;
use crate::ast::{BinaryOp, Expr, OrderByExpr, SelectItem, SelectStmt, TableRef};
use crate::value::DataType;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A named, typed output column of a plan node. Cloning one bumps two
/// reference counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Table alias this column is addressable by, if any.
    pub qualifier: Option<Name>,
    pub name: Name,
    pub data_type: DataType,
}

impl Field {
    pub fn new(qualifier: Option<&str>, name: &str, data_type: DataType) -> Field {
        Field {
            qualifier: qualifier.map(Name::from),
            name: name.into(),
            data_type,
        }
    }

    pub fn bare(name: &str, data_type: DataType) -> Field {
        Field::new(None, name, data_type)
    }

    /// The column reference that addresses this field, sharing its names.
    pub fn column(&self) -> Expr {
        Expr::Column {
            qualifier: self.qualifier.clone(),
            name: self.name.clone(),
        }
    }
}

/// `fields` as owned `(name, type)` pairs: the shape in which relations and
/// DDL column lists carry them.
pub fn named_columns(fields: &[Field]) -> Vec<(String, DataType)> {
    fields
        .iter()
        .map(|f| (f.name.to_string(), f.data_type))
        .collect()
}

/// An ordered set of fields; the output schema of a plan node. The field
/// list is shared, so a clone is one reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSchema {
    pub fields: Arc<[Field]>,
}

impl Default for PlanSchema {
    fn default() -> PlanSchema {
        PlanSchema::new(Vec::new())
    }
}

/// The output schema a plan node was built with. Only the constructors of
/// [`LogicalPlan`] make one, from the node's own children, so a node cannot
/// carry a schema that disagrees with its inputs: a rewrite that changes a
/// child has to go through the constructor again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSchema(PlanSchema);

impl Deref for NodeSchema {
    type Target = PlanSchema;

    fn deref(&self) -> &PlanSchema {
        &self.0
    }
}

/// Schema resolution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    Unknown(String),
    Ambiguous(String),
}

/// Why a name did not resolve to one field: what [`PlanSchema::lookup`]
/// returns. It holds no text, so a caller that only asks whether a name
/// resolves builds nothing; [`Miss::error`] names the column for a caller
/// that returns the miss as an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    Unknown,
    Ambiguous,
}

impl Miss {
    /// The error that reports this miss of `qualifier.name`.
    pub(crate) fn error(self, qualifier: Option<&str>, name: &str) -> SchemaError {
        let shown = match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.to_string(),
        };
        match self {
            Miss::Unknown => SchemaError::Unknown(shown),
            Miss::Ambiguous => SchemaError::Ambiguous(shown),
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Unknown(c) => write!(f, "unknown column {c}"),
            SchemaError::Ambiguous(c) => write!(f, "ambiguous column {c}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl PlanSchema {
    pub fn new(fields: Vec<Field>) -> PlanSchema {
        PlanSchema {
            fields: fields.into(),
        }
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Look a column reference up: the index of the one field it names. A
    /// qualified reference `q.name` matches only fields with that
    /// qualifier; a bare reference matches any field with that name and
    /// must be unambiguous. Allocates nothing, hit or miss.
    pub fn lookup(&self, qualifier: Option<&str>, name: &str) -> Result<usize, Miss> {
        let mut found: Option<usize> = None;
        for (i, f) in self.fields.iter().enumerate() {
            // The name first (its length settles most fields), the
            // qualifier only for a field whose name matched.
            let matches = f.name.eq_ignore_ascii_case(name)
                && qualifier.is_none_or(|q| {
                    f.qualifier
                        .as_deref()
                        .is_some_and(|fq| fq.eq_ignore_ascii_case(q))
                });
            if matches {
                if found.is_some() {
                    return Err(Miss::Ambiguous);
                }
                found = Some(i);
            }
        }
        found.ok_or(Miss::Unknown)
    }

    /// [`PlanSchema::lookup`] for a caller that returns the miss: the
    /// error names the column.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, SchemaError> {
        self.lookup(qualifier, name)
            .map_err(|miss| miss.error(qualifier, name))
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, right: &PlanSchema) -> PlanSchema {
        PlanSchema {
            fields: self.fields.iter().chain(&*right.fields).cloned().collect(),
        }
    }
}

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Sum,
    Avg,
    Count,
    Min,
    Max,
}

impl AggFunc {
    pub(crate) fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<AggFunc> {
        [
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
        ]
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(name))
    }
}

/// One aggregate call inside an [`LogicalPlan::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    /// `None` means `count(*)`.
    pub arg: Option<Expr>,
    pub distinct: bool,
}

impl AggCall {
    pub fn output_type(&self, input: &PlanSchema) -> DataType {
        match self.func {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => self
                .arg
                .as_ref()
                .and_then(|a| infer_type(a, input).ok())
                .unwrap_or(DataType::Float),
        }
    }

    fn to_expr(&self) -> Expr {
        match (&self.arg, self.func) {
            (None, AggFunc::Count) => Expr::CountStar,
            (Some(arg), f) => Expr::Function {
                name: f.name().to_string(),
                args: vec![arg.clone()],
                distinct: self.distinct,
            },
            (None, f) => unreachable!(
                "aggregate {f:?} without an argument: the binder gives each but count(*) one"
            ),
        }
    }
}

/// A logical query plan.
///
/// The four operators that define an output schema (`Project`, `Join`,
/// `Aggregate`, `SubqueryAlias`) and the two leaves carry it in a `schema`
/// field that their constructors fill in ([`LogicalPlan::scan`],
/// [`LogicalPlan::placeholder`], [`LogicalPlan::project`],
/// [`LogicalPlan::join_on`], [`LogicalPlan::aggregate`],
/// [`LogicalPlan::alias`]); the other operators pass their input's schema
/// through. Build and rebuild those six through the constructors only.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a base relation / view / foreign table `relation`, addressed
    /// in the plan by `alias`: every field of `schema` is qualified by it.
    Scan {
        relation: String,
        alias: Name,
        schema: NodeSchema,
    },
    /// The `?` dummy operator of a delegation plan: a stand-in for the
    /// output of another task (Section IV-B3). `name` is the relation the
    /// delegation engine binds it to (foreign table or materialized table);
    /// it is not part of the schema and may be rebound in place.
    Placeholder {
        name: String,
        alias: Name,
        schema: NodeSchema,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        /// (expression, output name) pairs.
        exprs: Vec<(Expr, Name)>,
        schema: NodeSchema,
    },
    /// Semi (`EXISTS` / `IN subquery`) or anti (`NOT EXISTS`) join: emits
    /// each left row with at least one (resp. zero) matching right row.
    /// Output schema = left schema.
    SemiJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        /// Equality pairs `left_expr = right_expr` (correlation and/or
        /// IN-subquery equality).
        on: Vec<(Expr, Expr)>,
        /// Extra condition over the concatenated (left ++ right) row.
        residual: Option<Expr>,
        /// True = anti join (NOT EXISTS).
        negated: bool,
    },
    /// Inner equi-join with optional residual (non-equi) condition.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        /// Equality pairs: `left_expr = right_expr`, sides resolved against
        /// the respective child schema.
        on: Vec<(Expr, Expr)>,
        /// Extra condition evaluated against the joined row.
        residual: Option<Expr>,
        schema: NodeSchema,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        /// (grouping expression, output name) pairs.
        group_by: Vec<(Expr, Name)>,
        /// (aggregate call, output name) pairs.
        aggregates: Vec<(AggCall, Name)>,
        schema: NodeSchema,
    },
    Sort {
        input: Box<LogicalPlan>,
        /// (key expression over input schema, descending) pairs.
        keys: Vec<(Expr, bool)>,
    },
    Limit {
        input: Box<LogicalPlan>,
        fetch: u64,
    },
    Distinct {
        input: Box<LogicalPlan>,
    },
    /// Re-qualifies all output columns of `input` with `alias` — the scope
    /// introduced by a derived table or an expanded view.
    SubqueryAlias {
        input: Box<LogicalPlan>,
        alias: Name,
        schema: NodeSchema,
    },
    /// Produces exactly one empty row; the plan for `SELECT <consts>`
    /// without a FROM clause.
    OneRow,
}

/// Schema of a leaf: `fields`, each qualified by `alias` (shared).
fn leaf_schema(alias: &Name, fields: impl IntoIterator<Item = (Name, DataType)>) -> NodeSchema {
    NodeSchema(PlanSchema {
        fields: fields
            .into_iter()
            .map(|(name, data_type)| Field {
                qualifier: Some(alias.clone()),
                name,
                data_type,
            })
            .collect(),
    })
}

impl LogicalPlan {
    pub fn scan(
        relation: impl Into<String>,
        alias: impl Into<Name>,
        fields: impl IntoIterator<Item = (Name, DataType)>,
    ) -> LogicalPlan {
        let alias = alias.into();
        LogicalPlan::Scan {
            relation: relation.into(),
            schema: leaf_schema(&alias, fields),
            alias,
        }
    }

    pub fn placeholder(
        name: impl Into<String>,
        alias: impl Into<Name>,
        fields: impl IntoIterator<Item = (Name, DataType)>,
    ) -> LogicalPlan {
        let alias = alias.into();
        LogicalPlan::Placeholder {
            name: name.into(),
            schema: leaf_schema(&alias, fields),
            alias,
        }
    }

    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn project(self, exprs: Vec<(Expr, Name)>) -> LogicalPlan {
        let in_schema = self.schema();
        let fields = exprs
            .iter()
            .map(|(e, name)| {
                output_field(name, infer_type(e, in_schema).unwrap_or(DataType::Float))
            })
            .collect();
        LogicalPlan::Project {
            schema: NodeSchema(PlanSchema { fields }),
            input: Box::new(self),
            exprs,
        }
    }

    pub fn join(self, right: LogicalPlan, on: Vec<(Expr, Expr)>) -> LogicalPlan {
        self.join_on(right, on, None)
    }

    pub fn join_on(
        self,
        right: LogicalPlan,
        on: Vec<(Expr, Expr)>,
        residual: Option<Expr>,
    ) -> LogicalPlan {
        LogicalPlan::Join {
            schema: NodeSchema(self.schema().join(right.schema())),
            left: Box::new(self),
            right: Box::new(right),
            on,
            residual,
        }
    }

    pub fn aggregate(
        self,
        group_by: Vec<(Expr, Name)>,
        aggregates: Vec<(AggCall, Name)>,
    ) -> LogicalPlan {
        LogicalPlan::Aggregate {
            schema: NodeSchema(aggregate_schema(self.schema(), &group_by, &aggregates)),
            input: Box::new(self),
            group_by,
            aggregates,
        }
    }

    /// Re-qualify the output of `self` with `alias` (a derived table or an
    /// expanded view).
    pub fn alias(self, alias: impl Into<Name>) -> LogicalPlan {
        let alias = alias.into();
        let fields = self
            .schema()
            .fields
            .iter()
            .map(|f| Field {
                qualifier: Some(alias.clone()),
                name: f.name.clone(),
                data_type: f.data_type,
            })
            .collect();
        LogicalPlan::SubqueryAlias {
            schema: NodeSchema(PlanSchema { fields }),
            input: Box::new(self),
            alias,
        }
    }

    /// Output schema of this node: the one it was built with, or its
    /// input's for the operators that do not change it. Never computed
    /// here and never allocated.
    pub fn schema(&self) -> &PlanSchema {
        static EMPTY: std::sync::OnceLock<PlanSchema> = std::sync::OnceLock::new();
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Placeholder { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::SubqueryAlias { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::SemiJoin { left, .. } => left.schema(),
            LogicalPlan::OneRow => EMPTY.get_or_init(PlanSchema::default),
        }
    }

    /// Immediate children of this node.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Placeholder { .. } | LogicalPlan::OneRow => {
                vec![]
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::SubqueryAlias { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SemiJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Count of operator nodes in this sub-tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Compact algebra notation in the style of the paper's delegation
    /// plans, e.g. `⋈(π(σ(C)), ?)` (Figure 5, Table IV).
    pub fn compact_notation(&self) -> String {
        match self {
            LogicalPlan::Scan { alias, .. } => alias.to_string(),
            LogicalPlan::Placeholder { .. } => "?".to_string(),
            LogicalPlan::Filter { input, .. } => format!("σ({})", input.compact_notation()),
            LogicalPlan::Project { input, .. } => format!("π({})", input.compact_notation()),
            LogicalPlan::Join { left, right, .. } => format!(
                "⋈({},{})",
                left.compact_notation(),
                right.compact_notation()
            ),
            LogicalPlan::SemiJoin {
                left,
                right,
                negated,
                ..
            } => format!(
                "{}({},{})",
                if *negated { "▷" } else { "⋉" },
                left.compact_notation(),
                right.compact_notation()
            ),
            LogicalPlan::Aggregate { input, .. } => format!("γ({})", input.compact_notation()),
            LogicalPlan::Sort { input, .. } => format!("τ({})", input.compact_notation()),
            LogicalPlan::Limit { input, fetch } => {
                format!("λ{}({})", fetch, input.compact_notation())
            }
            LogicalPlan::Distinct { input } => format!("δ({})", input.compact_notation()),
            LogicalPlan::SubqueryAlias { input, .. } => input.compact_notation(),
            LogicalPlan::OneRow => "∅".to_string(),
        }
    }

    /// Pretty tree rendering for debugging and EXPLAIN output.
    pub fn tree_string(&self) -> String {
        let mut out = String::new();
        self.tree_fmt(&mut out, 0);
        out
    }

    fn tree_fmt(&self, out: &mut String, depth: usize) {
        use crate::display::{render_expr_string, Dialect};
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            LogicalPlan::Scan {
                relation, alias, ..
            } => {
                out.push_str(&format!("Scan: {relation} as {alias}\n"));
            }
            LogicalPlan::Placeholder { name, alias, .. } => {
                out.push_str(&format!("Placeholder: ?{name} as {alias}\n"));
            }
            LogicalPlan::Filter { predicate, .. } => {
                out.push_str(&format!(
                    "Filter: {}\n",
                    render_expr_string(predicate, Dialect::Generic)
                ));
            }
            LogicalPlan::Project { exprs, .. } => {
                let cols: Vec<String> = exprs
                    .iter()
                    .map(|(e, n)| format!("{} AS {n}", render_expr_string(e, Dialect::Generic)))
                    .collect();
                out.push_str(&format!("Project: {}\n", cols.join(", ")));
            }
            LogicalPlan::Join { on, residual, .. } => {
                let conds: Vec<String> = on
                    .iter()
                    .map(|(l, r)| {
                        format!(
                            "{} = {}",
                            render_expr_string(l, Dialect::Generic),
                            render_expr_string(r, Dialect::Generic)
                        )
                    })
                    .collect();
                let res = residual
                    .as_ref()
                    .map(|r| format!(" residual: {}", render_expr_string(r, Dialect::Generic)))
                    .unwrap_or_default();
                out.push_str(&format!("Join: {}{}\n", conds.join(" AND "), res));
            }
            LogicalPlan::SemiJoin {
                on,
                residual,
                negated,
                ..
            } => {
                let conds: Vec<String> = on
                    .iter()
                    .map(|(l, r)| {
                        format!(
                            "{} = {}",
                            render_expr_string(l, Dialect::Generic),
                            render_expr_string(r, Dialect::Generic)
                        )
                    })
                    .collect();
                let res = residual
                    .as_ref()
                    .map(|r| format!(" residual: {}", render_expr_string(r, Dialect::Generic)))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "{}: {}{}\n",
                    if *negated { "AntiJoin" } else { "SemiJoin" },
                    conds.join(" AND "),
                    res
                ));
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let groups: Vec<&str> = group_by.iter().map(|(_, n)| &**n).collect();
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|(a, n)| format!("{}(..) AS {n}", a.func.name()))
                    .collect();
                out.push_str(&format!(
                    "Aggregate: group=[{}] aggs=[{}]\n",
                    groups.join(", "),
                    aggs.join(", ")
                ));
            }
            LogicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, desc)| {
                        format!(
                            "{}{}",
                            render_expr_string(e, Dialect::Generic),
                            if *desc { " DESC" } else { "" }
                        )
                    })
                    .collect();
                out.push_str(&format!("Sort: {}\n", ks.join(", ")));
            }
            LogicalPlan::Limit { fetch, .. } => {
                out.push_str(&format!("Limit: {fetch}\n"));
            }
            LogicalPlan::Distinct { .. } => {
                out.push_str("Distinct\n");
            }
            LogicalPlan::SubqueryAlias { alias, .. } => {
                out.push_str(&format!("SubqueryAlias: {alias}\n"));
            }
            LogicalPlan::OneRow => {
                out.push_str("OneRow\n");
            }
        }
        for c in self.children() {
            c.tree_fmt(out, depth + 1);
        }
    }
}

/// The bare output field `name` of a `Project` or `Aggregate`, sharing the
/// name.
fn output_field(name: &Name, data_type: DataType) -> Field {
    Field {
        qualifier: None,
        name: name.clone(),
        data_type,
    }
}

/// Output schema of an aggregation, given its *input* schema.
fn aggregate_schema(
    in_schema: &PlanSchema,
    group_by: &[(Expr, Name)],
    aggregates: &[(AggCall, Name)],
) -> PlanSchema {
    let keys = group_by
        .iter()
        .map(|(e, name)| output_field(name, infer_type(e, in_schema).unwrap_or(DataType::Str)));
    let aggs = aggregates
        .iter()
        .map(|(agg, name)| output_field(name, agg.output_type(in_schema)));
    PlanSchema {
        fields: keys.chain(aggs).collect(),
    }
}

/// Infer the output type of an expression against a schema. A column that
/// does not resolve is a [`Miss`], which the callers that type a node's
/// outputs replace by a default.
pub fn infer_type(e: &Expr, schema: &PlanSchema) -> Result<DataType, Miss> {
    use crate::ast::{DateField, UnaryOp};
    Ok(match e {
        Expr::Column { qualifier, name } => {
            let idx = schema.lookup(qualifier.as_deref(), name)?;
            schema.fields[idx].data_type
        }
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Str),
        Expr::Interval { .. } => DataType::Int,
        Expr::Binary { op, left, right } => match op {
            BinaryOp::And | BinaryOp::Or => DataType::Bool,
            op if op.is_comparison() => DataType::Bool,
            BinaryOp::Concat => DataType::Str,
            BinaryOp::Div => DataType::Float,
            BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Mul | BinaryOp::Mod => {
                // Interval sides do not change the other side's type.
                if matches!(**left, Expr::Interval { .. }) {
                    return infer_type(right, schema);
                }
                if matches!(**right, Expr::Interval { .. }) {
                    return infer_type(left, schema);
                }
                let lt = infer_type(left, schema)?;
                let rt = infer_type(right, schema)?;
                match (lt, rt) {
                    (DataType::Date, DataType::Date) => DataType::Int,
                    (DataType::Date, _) | (_, DataType::Date) => DataType::Date,
                    (DataType::Int, DataType::Int) => DataType::Int,
                    _ => DataType::Float,
                }
            }
            _ => DataType::Float,
        },
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => DataType::Bool,
            UnaryOp::Neg => infer_type(expr, schema)?,
        },
        Expr::Function { name, args, .. } => {
            if let Some(f) = AggFunc::parse(name) {
                match f {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Avg => DataType::Float,
                    _ => args
                        .first()
                        .map(|a| infer_type(a, schema))
                        .transpose()?
                        .unwrap_or(DataType::Float),
                }
            } else {
                match name.to_ascii_lowercase().as_str() {
                    "abs" | "round" | "floor" | "ceil" => args
                        .first()
                        .map(|a| infer_type(a, schema))
                        .transpose()?
                        .unwrap_or(DataType::Float),
                    "length" => DataType::Int,
                    "substr" | "substring" | "upper" | "lower" | "concat" => DataType::Str,
                    _ => DataType::Float,
                }
            }
        }
        Expr::CountStar => DataType::Int,
        Expr::Case {
            branches,
            else_expr,
            ..
        } => {
            let mut ty = None;
            for (_, then) in branches {
                if let Ok(t) = infer_type(then, schema) {
                    if !matches!(then, Expr::Literal(crate::value::Value::Null)) {
                        ty = Some(t);
                        break;
                    }
                }
            }
            if ty.is_none() {
                if let Some(el) = else_expr {
                    ty = infer_type(el, schema).ok();
                }
            }
            ty.unwrap_or(DataType::Str)
        }
        Expr::Between { .. }
        | Expr::Like { .. }
        | Expr::InList { .. }
        | Expr::IsNull { .. }
        | Expr::Exists { .. }
        | Expr::InSubquery { .. } => DataType::Bool,
        Expr::Extract { field, .. } => match field {
            DateField::Year | DateField::Month | DateField::Day => DataType::Int,
        },
        Expr::Cast { data_type, .. } => *data_type,
    })
}

// ---------------------------------------------------------------------------
// Lowering a logical plan back to a SELECT statement (delegation rendering).
// ---------------------------------------------------------------------------

/// State of the SELECT block being assembled bottom-up.
struct SelectBuilder {
    stmt: SelectStmt,
    /// Output fields of the block and the expression each corresponds to
    /// *within the current block scope* (for substitution).
    outputs: Vec<(Field, Expr)>,
    /// Whether the block has an aggregate (GROUP BY or bare aggregates).
    grouped: bool,
    /// Counter for generated derived-table aliases.
    next_sub: usize,
}

impl SelectBuilder {
    /// Wrap the current block into a derived table so new clauses can be
    /// layered on. All outputs get explicit unique aliases; column
    /// references into the old scope are rewritten by the caller through
    /// the returned mapping.
    fn wrap(&mut self) {
        let alias = format!("xdb_sub{}", self.next_sub);
        let qualifier = Name::from(alias.as_str());
        self.next_sub += 1;
        // Give every output an explicit, unique alias. The old outputs are
        // replaced, so their expressions move into the inner projection.
        let outputs = std::mem::take(&mut self.outputs);
        let mut items = Vec::with_capacity(outputs.len());
        let mut new_outputs = Vec::with_capacity(outputs.len());
        let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (field, expr) in outputs {
            let mut out_name = field.name.to_string();
            if !used.insert(out_name.to_ascii_lowercase()) {
                out_name = match &field.qualifier {
                    Some(q) => format!("{q}_{}", field.name),
                    None => format!("{}_{}", field.name, used.len()),
                };
                let mut n = 0;
                while !used.insert(out_name.to_ascii_lowercase()) {
                    n += 1;
                    out_name = format!("{}_{}", field.name, n);
                }
            }
            let wrapped = Field {
                qualifier: Some(qualifier.clone()),
                name: Name::from(out_name.as_str()),
                data_type: field.data_type,
            };
            let column = wrapped.column();
            items.push(SelectItem::Expr {
                expr,
                alias: Some(out_name),
            });
            new_outputs.push((wrapped, column));
        }
        self.stmt.projection = items;
        let inner = std::mem::take(&mut self.stmt);
        self.stmt = SelectStmt {
            projection: vec![SelectItem::Wildcard],
            from: vec![TableRef::Derived {
                query: Box::new(inner),
                alias,
            }],
            ..Default::default()
        };
        self.outputs = new_outputs;
        self.grouped = false;
    }

    /// Rewrite an expression over the node's *logical* input schema
    /// (`fields`, parallel to `self.outputs`) into the current block scope.
    fn rewrite(&self, e: &Expr, input_schema: &PlanSchema) -> Result<Expr, SchemaError> {
        let outputs = &self.outputs;
        let mut err = None;
        let rewritten = e.clone().transform(&mut |x| match &x {
            Expr::Column { qualifier, name } => {
                match input_schema.lookup(qualifier.as_deref(), name) {
                    Ok(idx) => outputs[idx].1.clone(),
                    Err(miss) => {
                        if err.is_none() {
                            err = Some(miss.error(qualifier.as_deref(), name));
                        }
                        x
                    }
                }
            }
            _ => x,
        });
        match err {
            Some(e2) => Err(e2),
            None => Ok(rewritten),
        }
    }

    /// The block's outputs as an explicit projection list.
    fn output_items(&self) -> Vec<SelectItem> {
        self.outputs
            .iter()
            .map(|(field, expr)| SelectItem::Expr {
                expr: expr.clone(),
                alias: Some(field.name.to_string()),
            })
            .collect()
    }

    fn has_order_or_limit(&self) -> bool {
        !self.stmt.order_by.is_empty() || self.stmt.limit.is_some()
    }
}

/// Lower a logical plan to an equivalent `SELECT` statement.
///
/// The result re-parses and re-plans to the same semantics on any engine in
/// the federation; this is the mechanism by which tasks are shipped to
/// DBMSes as plain declarative queries.
pub fn plan_to_select(plan: &LogicalPlan) -> Result<SelectStmt, SchemaError> {
    let b = build(plan)?;
    let mut stmt = b.stmt;
    // Materialize the final projection (replace `*` with explicit items so
    // output names are stable even for scans). Nothing reads the outputs
    // after this, so their expressions move into the items.
    if !b.outputs.is_empty() && matches!(stmt.projection.as_slice(), [SelectItem::Wildcard]) {
        stmt.projection = b
            .outputs
            .into_iter()
            .map(|(field, expr)| SelectItem::Expr {
                expr,
                alias: Some(field.name.to_string()),
            })
            .collect();
    }
    Ok(stmt)
}

fn build(plan: &LogicalPlan) -> Result<SelectBuilder, SchemaError> {
    match plan {
        LogicalPlan::Scan {
            relation,
            alias,
            schema,
        }
        | LogicalPlan::Placeholder {
            name: relation,
            alias,
            schema,
        } => {
            let stmt = SelectStmt {
                projection: vec![SelectItem::Wildcard],
                from: vec![TableRef::Table {
                    name: relation.clone(),
                    alias: (**alias != **relation).then(|| alias.to_string()),
                }],
                ..Default::default()
            };
            let outputs = schema
                .fields
                .iter()
                .map(|f| (f.clone(), f.column()))
                .collect();
            Ok(SelectBuilder {
                stmt,
                outputs,
                grouped: false,
                next_sub: 0,
            })
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut b = build(input)?;
            if b.grouped || b.has_order_or_limit() || b.stmt.distinct {
                b.wrap();
            }
            let pred = b.rewrite(predicate, input.schema())?;
            b.stmt.selection = Some(match b.stmt.selection.take() {
                Some(existing) => Expr::and(existing, pred),
                None => pred,
            });
            Ok(b)
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let mut b = build(input)?;
            if b.has_order_or_limit() || b.stmt.distinct {
                b.wrap();
            }
            let in_schema = input.schema();
            let mut new_outputs = Vec::with_capacity(exprs.len());
            for ((e, _), field) in exprs.iter().zip(&*schema.fields) {
                new_outputs.push((field.clone(), b.rewrite(e, in_schema)?));
            }
            b.outputs = new_outputs;
            b.stmt.projection = b.output_items();
            Ok(b)
        }
        LogicalPlan::SemiJoin {
            left,
            right,
            on,
            residual,
            negated,
        } => {
            let mut lb = build(left)?;
            if lb.grouped || lb.has_order_or_limit() || lb.stmt.distinct {
                lb.wrap();
            }
            // The right side always becomes a derived table with a fresh
            // alias so inner references are unambiguous even when the same
            // base table appears on both sides (e.g. TPC-H Q18).
            let mut rb = build(right)?;
            rb.next_sub = rb.next_sub.max(lb.next_sub) + 40; // avoid alias clashes
            rb.wrap();
            lb.next_sub = lb.next_sub.max(rb.next_sub);
            let lschema = left.schema();
            let rschema = right.schema();
            let mut inner_conds: Vec<Expr> = Vec::new();
            for (le, re) in on {
                let l = lb.rewrite(le, lschema)?;
                let r = rb.rewrite(re, rschema)?;
                inner_conds.push(Expr::eq(l, r));
            }
            if let Some(res) = residual {
                // Residual references the concatenated schema: left refs
                // rewrite through lb, right refs through rb.
                let mut err = None;
                let rewritten = res.clone().transform(&mut |x| match &x {
                    Expr::Column { qualifier, name } => {
                        let qualifier = qualifier.as_deref();
                        match lschema.lookup(qualifier, name) {
                            Ok(idx) => lb.outputs[idx].1.clone(),
                            Err(left) => match rschema.lookup(qualifier, name) {
                                Ok(idx) => rb.outputs[idx].1.clone(),
                                Err(right) => {
                                    // What the concatenated schema says: a
                                    // name unknown on both sides is unknown,
                                    // one a side holds twice is ambiguous.
                                    let miss = if (left, right) == (Miss::Unknown, Miss::Unknown) {
                                        Miss::Unknown
                                    } else {
                                        Miss::Ambiguous
                                    };
                                    err.get_or_insert_with(|| miss.error(qualifier, name));
                                    x
                                }
                            },
                        }
                    }
                    _ => x,
                });
                if let Some(e2) = err {
                    return Err(e2);
                }
                inner_conds.push(rewritten);
            }
            let mut exists_query = rb.stmt;
            exists_query.selection =
                Expr::conjoin(exists_query.selection.take().into_iter().chain(inner_conds));
            let exists = Expr::Exists {
                query: Box::new(exists_query),
                negated: *negated,
            };
            lb.stmt.selection = Some(match lb.stmt.selection.take() {
                Some(existing) => Expr::and(existing, exists),
                None => exists,
            });
            Ok(lb)
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            residual,
            schema,
        } => {
            let mut lb = build(left)?;
            let mut rb = build(right)?;
            if lb.grouped || lb.has_order_or_limit() || lb.stmt.distinct || !is_spj(&lb.stmt) {
                lb.wrap();
            }
            if rb.grouped || rb.has_order_or_limit() || rb.stmt.distinct || !is_spj(&rb.stmt) {
                rb.wrap();
            }
            let lschema = left.schema();
            let rschema = right.schema();
            // Merge FROM lists and WHERE clauses.
            let mut conds = Vec::new();
            for (le, re) in on {
                let l = lb.rewrite(le, lschema)?;
                let r = rb.rewrite(re, rschema)?;
                conds.push(Expr::eq(l, r));
            }
            // Offset sub-counter to keep generated aliases unique.
            let base = lb.next_sub.max(rb.next_sub);
            let mut outputs = lb.outputs;
            outputs.extend(rb.outputs);
            let mut stmt = lb.stmt;
            stmt.from.extend(rb.stmt.from);
            let left_sel = stmt.selection.take();
            let right_sel = rb.stmt.selection;
            let mut b = SelectBuilder {
                stmt,
                outputs,
                grouped: false,
                next_sub: base,
            };
            let residual_rewritten = match residual {
                Some(res) => Some(b.rewrite(res, schema)?),
                None => None,
            };
            b.stmt.selection = Expr::conjoin(
                left_sel
                    .into_iter()
                    .chain(right_sel)
                    .chain(conds)
                    .chain(residual_rewritten),
            );
            Ok(b)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            schema,
        } => {
            let mut b = build(input)?;
            if b.grouped || b.has_order_or_limit() || b.stmt.distinct {
                b.wrap();
            }
            let in_schema = input.schema();
            let mut fields = schema.fields.iter().cloned();
            let mut outputs = Vec::with_capacity(schema.len());
            let mut group_exprs = Vec::with_capacity(group_by.len());
            for ((e, _), field) in group_by.iter().zip(&mut fields) {
                let rewritten = b.rewrite(e, in_schema)?;
                group_exprs.push(rewritten.clone());
                outputs.push((field, rewritten));
            }
            for ((agg, _), field) in aggregates.iter().zip(fields) {
                let call = AggCall {
                    func: agg.func,
                    arg: match &agg.arg {
                        Some(a) => Some(b.rewrite(a, in_schema)?),
                        None => None,
                    },
                    distinct: agg.distinct,
                };
                outputs.push((field, call.to_expr()));
            }
            b.outputs = outputs;
            b.stmt.projection = b.output_items();
            b.stmt.group_by = group_exprs;
            b.grouped = true;
            Ok(b)
        }
        LogicalPlan::Sort { input, keys } => {
            let mut b = build(input)?;
            if b.has_order_or_limit() {
                b.wrap();
            }
            let in_schema = input.schema();
            let mut order_by = Vec::new();
            for (e, desc) in keys {
                let rewritten = b.rewrite(e, in_schema)?;
                order_by.push(OrderByExpr {
                    expr: rewritten,
                    desc: *desc,
                });
            }
            b.stmt.order_by = order_by;
            Ok(b)
        }
        LogicalPlan::Limit { input, fetch } => {
            let mut b = build(input)?;
            if b.stmt.limit.is_some() {
                b.wrap();
            }
            b.stmt.limit = Some(*fetch);
            Ok(b)
        }
        LogicalPlan::SubqueryAlias { input, alias, .. } => {
            let mut b = build(input)?;
            // Render the input as a derived table under the given alias.
            if matches!(b.stmt.projection.as_slice(), [SelectItem::Wildcard]) {
                b.stmt.projection = b.output_items();
            }
            let inner = std::mem::take(&mut b.stmt);
            let outputs = b
                .outputs
                .into_iter()
                .map(|(f, _)| {
                    let field = Field {
                        qualifier: Some(alias.clone()),
                        ..f
                    };
                    let column = field.column();
                    (field, column)
                })
                .collect();
            Ok(SelectBuilder {
                stmt: SelectStmt {
                    projection: vec![SelectItem::Wildcard],
                    from: vec![TableRef::Derived {
                        query: Box::new(inner),
                        alias: alias.to_string(),
                    }],
                    ..Default::default()
                },
                outputs,
                grouped: false,
                next_sub: b.next_sub,
            })
        }
        LogicalPlan::OneRow => Ok(SelectBuilder {
            stmt: SelectStmt {
                projection: vec![SelectItem::Wildcard],
                ..Default::default()
            },
            outputs: Vec::new(),
            grouped: false,
            next_sub: 0,
        }),
        LogicalPlan::Distinct { input } => {
            let mut b = build(input)?;
            if b.grouped || b.has_order_or_limit() || b.stmt.distinct {
                b.wrap();
            }
            // DISTINCT applies to the visible output columns.
            if matches!(b.stmt.projection.as_slice(), [SelectItem::Wildcard]) {
                b.stmt.projection = b.output_items();
            }
            b.stmt.distinct = true;
            Ok(b)
        }
    }
}

/// True if a statement is a plain select-project-join block whose FROM items
/// can be merged with another block's.
fn is_spj(s: &SelectStmt) -> bool {
    s.group_by.is_empty()
        && s.having.is_none()
        && s.order_by.is_empty()
        && s.limit.is_none()
        && !s.distinct
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::{render_select_string, Dialect};
    use crate::value::Value;

    fn scan(rel: &str, alias: &str, cols: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::scan(rel, alias, cols.iter().map(|(n, t)| (Name::from(*n), *t)))
    }

    #[test]
    fn schema_resolution() {
        let s = scan("t", "t", &[("a", DataType::Int), ("b", DataType::Str)]);
        let schema = s.schema();
        assert_eq!(schema.resolve(None, "a"), Ok(0));
        assert_eq!(schema.resolve(Some("t"), "b"), Ok(1));
        assert!(matches!(
            schema.resolve(None, "zz"),
            Err(SchemaError::Unknown(_))
        ));
        // Case-insensitive.
        assert_eq!(schema.resolve(Some("T"), "A"), Ok(0));
    }

    #[test]
    fn ambiguous_columns_detected() {
        let l = scan("t", "t1", &[("a", DataType::Int)]);
        let r = scan("t", "t2", &[("a", DataType::Int)]);
        let j = l.join(r, vec![(Expr::qcol("t1", "a"), Expr::qcol("t2", "a"))]);
        let schema = j.schema();
        assert!(matches!(
            schema.resolve(None, "a"),
            Err(SchemaError::Ambiguous(_))
        ));
        assert_eq!(schema.resolve(Some("t2"), "a"), Ok(1));
    }

    #[test]
    fn join_schema_concat() {
        let l = scan("l", "l", &[("x", DataType::Int)]);
        let r = scan("r", "r", &[("y", DataType::Str)]);
        let j = l.join(r, vec![]);
        assert_eq!(j.schema().len(), 2);
    }

    #[test]
    fn type_inference() {
        let s = scan(
            "t",
            "t",
            &[
                ("i", DataType::Int),
                ("f", DataType::Float),
                ("d", DataType::Date),
                ("s", DataType::Str),
            ],
        );
        let schema = s.schema();
        let check = |sql: &str, ty: DataType| {
            let e = crate::parser::parse_expr(sql).unwrap();
            assert_eq!(infer_type(&e, schema).unwrap(), ty, "for {sql}");
        };
        check("i + 1", DataType::Int);
        check("i + f", DataType::Float);
        check("i / 2", DataType::Float);
        check("d + interval '1' year", DataType::Date);
        check("d - d", DataType::Int);
        check("i < 3", DataType::Bool);
        check("s || 'x'", DataType::Str);
        check("extract(year from d)", DataType::Int);
        check("count(*)", DataType::Int);
        check("sum(i)", DataType::Int);
        check("avg(i)", DataType::Float);
        check("case when i > 0 then 'pos' else 'neg' end", DataType::Str);
        check("cast(i as double)", DataType::Float);
    }

    #[test]
    fn lower_scan_filter_project() {
        let plan = scan("t", "t", &[("a", DataType::Int), ("b", DataType::Int)])
            .filter(Expr::binary(
                BinaryOp::Gt,
                Expr::qcol("t", "a"),
                Expr::lit(Value::Int(5)),
            ))
            .project(vec![(Expr::qcol("t", "b"), "b".into())]);
        let stmt = plan_to_select(&plan).unwrap();
        let sql = render_select_string(&stmt, Dialect::Generic);
        assert_eq!(sql, "SELECT t.b AS b FROM t WHERE t.a > 5");
    }

    #[test]
    fn lower_join_merges_from() {
        let l = scan("l", "l", &[("x", DataType::Int)]);
        let r = scan("r", "r", &[("x", DataType::Int)]);
        let plan = l.join(r, vec![(Expr::qcol("l", "x"), Expr::qcol("r", "x"))]);
        let stmt = plan_to_select(&plan).unwrap();
        let sql = render_select_string(&stmt, Dialect::Generic);
        assert_eq!(sql, "SELECT l.x AS x, r.x AS x FROM l, r WHERE l.x = r.x");
    }

    #[test]
    fn lower_aggregate() {
        let plan = scan("t", "t", &[("g", DataType::Str), ("v", DataType::Float)]).aggregate(
            vec![(Expr::qcol("t", "g"), "g".into())],
            vec![(
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(Expr::qcol("t", "v")),
                    distinct: false,
                },
                "total".into(),
            )],
        );
        let stmt = plan_to_select(&plan).unwrap();
        let sql = render_select_string(&stmt, Dialect::Generic);
        assert_eq!(
            sql,
            "SELECT t.g AS g, sum(t.v) AS total FROM t GROUP BY t.g"
        );
    }

    #[test]
    fn lower_filter_after_aggregate_wraps() {
        let agg = scan("t", "t", &[("g", DataType::Str), ("v", DataType::Float)]).aggregate(
            vec![(Expr::qcol("t", "g"), "g".into())],
            vec![(
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(Expr::qcol("t", "v")),
                    distinct: false,
                },
                "total".into(),
            )],
        );
        let filtered = agg.filter(Expr::binary(
            BinaryOp::Gt,
            Expr::col("total"),
            Expr::lit(Value::Int(10)),
        ));
        let stmt = plan_to_select(&filtered).unwrap();
        let sql = render_select_string(&stmt, Dialect::Generic);
        assert!(sql.contains("FROM (SELECT"), "should wrap: {sql}");
        assert!(sql.contains("xdb_sub0"), "derived alias: {sql}");
        // Round-trips through the parser.
        crate::parser::parse_select(&sql).unwrap();
    }

    #[test]
    fn lower_post_agg_projection_inlines() {
        // Project(total / cnt) over Aggregate — references substitute to
        // the aggregate expressions inside the same block.
        let agg = scan("t", "t", &[("v", DataType::Float)]).aggregate(
            vec![],
            vec![
                (
                    AggCall {
                        func: AggFunc::Sum,
                        arg: Some(Expr::qcol("t", "v")),
                        distinct: false,
                    },
                    "total".into(),
                ),
                (
                    AggCall {
                        func: AggFunc::Count,
                        arg: None,
                        distinct: false,
                    },
                    "cnt".into(),
                ),
            ],
        );
        let proj = agg.project(vec![(
            Expr::binary(BinaryOp::Div, Expr::col("total"), Expr::col("cnt")),
            "mean".into(),
        )]);
        let stmt = plan_to_select(&proj).unwrap();
        let sql = render_select_string(&stmt, Dialect::Generic);
        assert_eq!(sql, "SELECT sum(t.v) / count(*) AS mean FROM t");
    }

    #[test]
    fn lower_sort_limit() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan("t", "t", &[("a", DataType::Int)])),
                keys: vec![(Expr::qcol("t", "a"), true)],
            }),
            fetch: 10,
        };
        let sql = render_select_string(&plan_to_select(&plan).unwrap(), Dialect::Generic);
        assert_eq!(sql, "SELECT t.a AS a FROM t ORDER BY t.a DESC LIMIT 10");
    }

    #[test]
    fn lower_placeholder_as_table() {
        let plan = LogicalPlan::placeholder("xdb_vvn", "vvn", [("type".into(), DataType::Str)]);
        let sql = render_select_string(&plan_to_select(&plan).unwrap(), Dialect::Generic);
        assert_eq!(sql, "SELECT vvn.type AS type FROM xdb_vvn AS vvn");
    }

    #[test]
    fn compact_notation_matches_paper_style() {
        let v = scan("Vaccines", "V", &[("id", DataType::Int)]);
        let vn = scan("Vaccination", "VN", &[("v_id", DataType::Int)]);
        let plan = v
            .project(vec![(Expr::qcol("V", "id"), "id".into())])
            .join(
                vn.project(vec![(Expr::qcol("VN", "v_id"), "v_id".into())]),
                vec![],
            )
            .project(vec![(Expr::col("id"), "id".into())]);
        assert_eq!(plan.compact_notation(), "π(⋈(π(V),π(VN)))");
    }

    #[test]
    fn lower_distinct() {
        let plan = LogicalPlan::Distinct {
            input: Box::new(scan("t", "t", &[("a", DataType::Int)])),
        };
        let sql = render_select_string(&plan_to_select(&plan).unwrap(), Dialect::Generic);
        assert_eq!(sql, "SELECT DISTINCT t.a AS a FROM t");
    }

    /// A semi join's residual that names no column of either side reports
    /// the column as every other lowering error does, and a name one side
    /// holds twice is ambiguous, not unknown.
    #[test]
    fn semi_join_residual_misses_name_the_column() {
        let pair = scan("t", "l", &[("x", DataType::Int)])
            .join(scan("t", "m", &[("x", DataType::Int)]), vec![]);
        let semi = |residual: Expr| LogicalPlan::SemiJoin {
            left: Box::new(pair.clone()),
            right: Box::new(scan("r", "r", &[("y", DataType::Int)])),
            on: vec![],
            residual: Some(residual),
            negated: false,
        };
        let gt = |column: Expr| Expr::binary(BinaryOp::Gt, column, Expr::qcol("r", "y"));
        assert_eq!(
            plan_to_select(&semi(gt(Expr::qcol("l", "zz")))),
            Err(SchemaError::Unknown("l.zz".into()))
        );
        assert_eq!(
            plan_to_select(&semi(gt(Expr::col("x")))),
            Err(SchemaError::Ambiguous("x".into()))
        );
        assert!(plan_to_select(&semi(gt(Expr::qcol("m", "x")))).is_ok());
    }

    #[test]
    fn wrap_disambiguates_duplicate_names() {
        // Join of two scans with the same column name, then aggregate on
        // top forces a wrap with unique aliases.
        let l = scan("t", "t1", &[("a", DataType::Int)]);
        let r = scan("t", "t2", &[("a", DataType::Int)]);
        let j = l.join(r, vec![(Expr::qcol("t1", "a"), Expr::qcol("t2", "a"))]);
        let sorted = LogicalPlan::Sort {
            input: Box::new(j),
            keys: vec![(Expr::qcol("t1", "a"), false)],
        };
        // Filter over sort forces wrap.
        let f = sorted.filter(Expr::binary(
            BinaryOp::Gt,
            Expr::qcol("t2", "a"),
            Expr::lit(Value::Int(0)),
        ));
        let stmt = plan_to_select(&f).unwrap();
        let sql = render_select_string(&stmt, Dialect::Generic);
        crate::parser::parse_select(&sql).unwrap();
        assert!(sql.matches(" AS ").count() >= 2, "{sql}");
    }
}
