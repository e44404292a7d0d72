//! Plan annotation and finalization (Sections IV-B2 and IV-B3), fused into
//! one bottom-up pass.
//!
//! Rules 1–3 are structural: leaves carry the annotation of the DBMS their
//! table lives on, unary operators inherit their input's annotation, and
//! binary operators with same-annotated inputs stay put — successive
//! operators with the same annotation therefore *fuse into one task*
//! (exactly the finalization grouping of Section IV-B3). Rule 4 fires at a
//! cross-database join or semi join, through one decision whatever the
//! [`PlacementPolicy`]: Equation 1 (or a heuristic) picks the operator's
//! annotation and the movement type per moved input, and each moved input
//! is *cut* into its own task, leaving a `?` placeholder (dummy operator)
//! behind.

use crate::consult_cache::Probe;
use crate::cost::{decide_placement_with_profiles, CandidateCost, InputSide, Placement};
use crate::global::GlobalCatalog;
use crate::plan::{placeholder_alias, placeholder_name, DelegationPlan, Edge, Task};
use crate::profiles::CostProfiles;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use xdb_engine::cluster::Cluster;
use xdb_engine::error::{EngineError, Result};
use xdb_engine::relation::Relation;
use xdb_net::{Movement, NodeId};
use xdb_sql::algebra::{named_columns, plan_to_select, LogicalPlan, Name, PlanSchema};
use xdb_sql::ast::Expr;
use xdb_sql::display::render_select_string;
use xdb_sql::stats::{ColumnStats, Estimator, StatsProvider};
use xdb_sql::value::Value;
use xdb_sql::Dialect;

/// Where cross-database operators are placed: the candidate step of the
/// one Rule 4 decision every cross-database operator goes through.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum PlacementPolicy {
    /// XDB's Rule 4 / Equation 1 (cost-based).
    #[default]
    CostBased,
    /// Always the left input's DBMS — the ScleraDB-style heuristic the
    /// paper contrasts against ("employs heuristics to define the join
    /// operator placement").
    LeftInput,
    /// Always a fixed node that hosts no base data — the mediator of MW
    /// systems. Used by the baselines to *decompose* a query into local
    /// sub-queries plus a global (mediator) fragment.
    Mediator(NodeId),
}

/// Knobs for the annotator (flipped by ablation benches and reused by the
/// mediator baselines).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnnotateOptions {
    /// Disable the paper's candidate pruning: consider *every* DBMS as a
    /// placement candidate for every cross-database operation.
    pub no_pruning: bool,
    /// Force every inter-task movement to the given type.
    pub force_movement: Option<Movement>,
    /// Placement rule for cross-database operators.
    pub placement: PlacementPolicy,
    /// Fuse co-located joins into one task. MW connectors that cannot push
    /// joins down (Presto-style) set this to false.
    pub no_colocated_fusion: bool,
    /// Restrict the annotation set `A` to these nodes (the paper's
    /// "other network topologies can be supported by constraining the
    /// possible values of set A", Section IV-B2). Cross-database
    /// operators are only placed on listed nodes; leaf tasks still run
    /// where their tables live.
    pub allowed_placements: Option<Vec<NodeId>>,
}

/// One cross-database placement decision, recorded for observability: the
/// option the optimizer chose plus every option it weighed.
#[derive(Debug, Clone)]
pub struct PlacementDecision {
    pub chosen: Placement,
    /// Every costed `(a, x_l, x_r)` option, in evaluation order. Empty for
    /// heuristic policies (LeftInput / Mediator), which cost nothing.
    pub candidates: Vec<CandidateCost>,
    /// Consulting round-trips actually *paid* for this decision (cache
    /// hits are free).
    pub paid_consults: u64,
    /// Estimator summary of the left input as the optimizer saw it — the
    /// predicted side of the cost-model observatory's per-edge ledger.
    pub left: InputSide,
    /// Estimator summary of the right input.
    pub right: InputSide,
    /// Estimated output rows of the probe join (zero for heuristic
    /// policies, which never build the probe).
    pub out_rows: f64,
}

/// Annotation outcome: the delegation plan plus consulting accounting.
#[derive(Debug, Clone)]
pub struct Annotation {
    pub plan: DelegationPlan,
    /// EXPLAIN-probe round-trips performed: the consultation-cache misses
    /// of this run (drives the `ann` phase of Fig 15).
    pub consults: u64,
    /// Consultation-cache hits observed by *this* annotation run (counted
    /// locally, not from the shared cache's global counters, so concurrent
    /// queries cannot pollute each other's accounting).
    pub cache_hits: u64,
    /// One entry per cross-database operator, in annotation (bottom-up)
    /// order.
    pub decisions: Vec<PlacementDecision>,
}

/// FNV-1a over a canonical rendering — the repo-local stable hash (no
/// dependency on `DefaultHasher`'s unstable seed/algorithm).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The repo-local stable hash as a 16-hex-digit string (query history
/// keys SQL texts and plan fingerprints by it).
pub fn stable_hash_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Stable digest of a relation's ordered result cells (`{:?}|` per value,
/// `\n` per row): how two runs show they returned the same answer. A float
/// is written rounded to 12 significant digits, and a zero of either sign
/// as `0`, so two plans that add the same numbers in another order digest
/// alike.
pub fn result_digest(relation: &Relation) -> String {
    let mut cells = String::new();
    for i in 0..relation.len() {
        for c in 0..relation.width() {
            let _ = match relation.value(i, c) {
                Value::Float(0.0) => write!(cells, "Float(0)|"),
                Value::Float(f) => write!(cells, "Float({f:.11e})|"),
                v => write!(cells, "{v:?}|"),
            };
        }
        cells.push('\n');
    }
    stable_hash_hex(cells.as_bytes())
}

/// Canonical fingerprint of an annotated delegation plan: a stable hash
/// over every task's placement + fragment key and every edge's movement
/// choice. Two runs of the same SQL share the fingerprint iff the
/// annotator produced the same placed, movement-annotated task DAG — a
/// changed fingerprint for the same query is a *plan flip*, the primary
/// signal the drift detector watches.
pub fn plan_fingerprint(plan: &DelegationPlan) -> String {
    let keys = fragment_keys(plan);
    let mut canon = String::new();
    for id in plan.topo_order() {
        let task = plan.task(id);
        let _ = writeln!(canon, "t{id}@{}:{}", task.dbms, keys[&id]);
    }
    let mut edges: Vec<String> = plan
        .edges
        .iter()
        .map(|e| format!("t{}-{}->t{}", e.from, e.movement, e.to))
        .collect();
    edges.sort();
    for e in edges {
        let _ = writeln!(canon, "{e}");
    }
    stable_hash_hex(canon.as_bytes())
}

/// Canonical fragment key of every task in a delegation plan.
///
/// A task's key covers its *entire upstream sub-DAG*: the task body is
/// rendered as dialect-neutral canonical text (`plan_to_select` →
/// `render_select_string(Generic)`, falling back to `tree_string`; the
/// text feeds `plan_fingerprint`, so it stays text), with
/// each placeholder rebound to a name derived from the producing
/// fragment's own key, combined with the assigned DBMS and the sorted
/// `(movement, child-key)` list of its in-edges. Two tasks with equal keys
/// therefore denote the same computation on the same engine fed by the
/// same upstream fragments — safe to deploy once and share.
///
/// Keys are compared for equality only; a hash collision in the rebound
/// placeholder names could at worst merge two *different* renderings, so
/// the full child key (not just its hash) is folded into the in-edge list
/// to keep keys injective over the sub-DAG structure.
pub(crate) fn fragment_keys(plan: &DelegationPlan) -> HashMap<usize, String> {
    let mut keys: HashMap<usize, String> = HashMap::new();
    for id in plan.topo_order() {
        let task = plan.task(id);
        let mut bindings: HashMap<String, String> = HashMap::new();
        let mut in_list: Vec<String> = Vec::new();
        for edge in plan.in_edges(id) {
            let child = &keys[&edge.from];
            bindings.insert(
                placeholder_name(edge.from),
                format!("__frag_{:016x}", fnv1a64(child.as_bytes())),
            );
            in_list.push(format!("{}<{child}>", edge.movement));
        }
        in_list.sort();
        let mut body = task.plan.clone();
        // An unbound placeholder keeps its task-local name in the key.
        let _ = crate::delegation::bind_placeholders(&mut body, &bindings);
        let rendered = match plan_to_select(&body) {
            Ok(stmt) => render_select_string(&stmt, Dialect::Generic),
            Err(_) => body.tree_string(),
        };
        keys.insert(
            id,
            format!("{}@{rendered}|{}", task.dbms, in_list.join(",")),
        );
    }
    keys
}

/// Rewrite rule produced by cutting a subtree into a task: references into
/// the cut subtree's schema become references to the placeholder relation.
#[derive(Debug, Clone)]
pub struct Rename {
    pub cut_schema: PlanSchema,
    /// Schema of the placeholder left behind, field for field.
    pub placeholder: PlanSchema,
}

/// A partially-annotated subtree: its (single) annotation, the fused plan
/// fragment, and pending renames from cuts below it.
struct Partial {
    dbms: NodeId,
    fragment: LogicalPlan,
    renames: Vec<Rename>,
}

pub struct Annotator<'a> {
    catalog: &'a GlobalCatalog,
    cluster: &'a Cluster,
    options: AnnotateOptions,
    tasks: Vec<Task>,
    /// Movement of each cut task's out-edge.
    movements: HashMap<usize, Movement>,
    consults: u64,
    cache_hits: u64,
    decisions: Vec<PlacementDecision>,
    /// Snapshot of the learned cost profiles, taken once per annotation run
    /// so every decision in one plan prices against the same feedback
    /// state. `None` under static pricing or when nothing has been learned
    /// — candidate costing is then bit-exactly the static model.
    learned: Option<Arc<CostProfiles>>,
}

impl<'a> Annotator<'a> {
    /// An annotator that prices against the catalog's learned profiles.
    pub fn new(
        catalog: &'a GlobalCatalog,
        cluster: &'a Cluster,
        options: AnnotateOptions,
    ) -> Annotator<'a> {
        Annotator::pricing_with(catalog, cluster, options, catalog.learned_profiles())
    }

    /// An annotator that prices against `learned`; `None` is the static
    /// Eq. 1–3 model.
    pub(crate) fn pricing_with(
        catalog: &'a GlobalCatalog,
        cluster: &'a Cluster,
        options: AnnotateOptions,
        learned: Option<Arc<CostProfiles>>,
    ) -> Annotator<'a> {
        Annotator {
            catalog,
            cluster,
            options,
            tasks: Vec::new(),
            movements: HashMap::new(),
            consults: 0,
            cache_hits: 0,
            decisions: Vec::new(),
            learned,
        }
    }

    /// Annotate and finalize an optimized logical plan into a delegation
    /// plan.
    pub fn run(mut self, plan: &LogicalPlan) -> Result<Annotation> {
        let root_partial = self.annotate(plan)?;
        let root = self.finalize_root(root_partial)?;
        let edges = self.collect_edges();
        Ok(Annotation {
            plan: DelegationPlan {
                tasks: self.tasks,
                edges,
                root,
            },
            consults: self.consults,
            cache_hits: self.cache_hits,
            decisions: self.decisions,
        })
    }

    fn annotate(&mut self, plan: &LogicalPlan) -> Result<Partial> {
        match plan {
            // Rule 1: leaves are annotated with their home DBMS.
            LogicalPlan::Scan { relation, .. } => {
                let dbms = self
                    .catalog
                    .location(relation)
                    .ok_or_else(|| {
                        EngineError::Catalog(format!("no location for table {relation:?}"))
                    })?
                    .clone();
                Ok(Partial {
                    dbms,
                    fragment: plan.clone(),
                    renames: Vec::new(),
                })
            }
            LogicalPlan::Placeholder { .. } => {
                Err(EngineError::Execution("placeholder in user plan".into()))
            }
            LogicalPlan::OneRow => Err(EngineError::Unsupported(
                "cross-database delegation of a FROM-less query".into(),
            )),
            // Rule 2: unary operators inherit their input's annotation.
            LogicalPlan::Filter { input, predicate } => {
                let child = self.annotate(input)?;
                let predicate = apply_renames(predicate.clone(), &child.renames);
                Ok(Partial {
                    dbms: child.dbms,
                    fragment: LogicalPlan::Filter {
                        input: Box::new(child.fragment),
                        predicate,
                    },
                    renames: child.renames,
                })
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let child = self.annotate(input)?;
                let exprs = exprs
                    .iter()
                    .map(|(e, n)| (apply_renames(e.clone(), &child.renames), n.clone()))
                    .collect();
                Ok(Partial {
                    dbms: child.dbms,
                    fragment: child.fragment.project(exprs),
                    // A projection re-bases the name scope: ancestor
                    // references address its bare outputs, never the
                    // underlying scans, so pending renames end here.
                    renames: Vec::new(),
                })
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
                ..
            } => {
                let child = self.annotate(input)?;
                let group_by = group_by
                    .iter()
                    .map(|(e, n)| (apply_renames(e.clone(), &child.renames), n.clone()))
                    .collect();
                let aggregates = aggregates
                    .iter()
                    .map(|(a, n)| {
                        let mut a = a.clone();
                        a.arg = a.arg.map(|e| apply_renames(e, &child.renames));
                        (a, n.clone())
                    })
                    .collect();
                Ok(Partial {
                    dbms: child.dbms,
                    fragment: child.fragment.aggregate(group_by, aggregates),
                    // Aggregates re-base the name scope (see Project).
                    renames: Vec::new(),
                })
            }
            LogicalPlan::Sort { input, keys } => {
                let child = self.annotate(input)?;
                let keys = keys
                    .iter()
                    .map(|(e, d)| (apply_renames(e.clone(), &child.renames), *d))
                    .collect();
                Ok(Partial {
                    dbms: child.dbms,
                    fragment: LogicalPlan::Sort {
                        input: Box::new(child.fragment),
                        keys,
                    },
                    renames: child.renames,
                })
            }
            LogicalPlan::Limit { input, fetch } => {
                let child = self.annotate(input)?;
                Ok(Partial {
                    dbms: child.dbms,
                    fragment: LogicalPlan::Limit {
                        input: Box::new(child.fragment),
                        fetch: *fetch,
                    },
                    renames: child.renames,
                })
            }
            LogicalPlan::Distinct { input } => {
                let child = self.annotate(input)?;
                Ok(Partial {
                    dbms: child.dbms,
                    fragment: LogicalPlan::Distinct {
                        input: Box::new(child.fragment),
                    },
                    renames: child.renames,
                })
            }
            LogicalPlan::SubqueryAlias { input, alias, .. } => {
                let child = self.annotate(input)?;
                Ok(Partial {
                    dbms: child.dbms,
                    fragment: child.fragment.alias(alias.clone()),
                    // Alias scopes re-base the name space as well.
                    renames: Vec::new(),
                })
            }
            // Rules 3 and 4 hold for both binary operators alike.
            LogicalPlan::SemiJoin {
                left,
                right,
                on,
                residual,
                negated,
            } => self.binary(
                left,
                right,
                on,
                residual.as_ref(),
                |left, right, on, residual| LogicalPlan::SemiJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                    on,
                    residual,
                    negated: *negated,
                },
            ),
            LogicalPlan::Join {
                left,
                right,
                on,
                residual,
                ..
            } => self.binary(left, right, on, residual.as_ref(), LogicalPlan::join_on),
        }
    }

    /// Annotate a binary operator: both inputs, then its conditions
    /// rewritten through the cuts below, then Rule 3 (same annotation: stay
    /// fused) or Rule 4 (place it and cut every moved input). `build` makes
    /// the operator from its final inputs and conditions.
    fn binary(
        &mut self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        on: &[(Expr, Expr)],
        residual: Option<&Expr>,
        build: impl FnOnce(LogicalPlan, LogicalPlan, Vec<(Expr, Expr)>, Option<Expr>) -> LogicalPlan,
    ) -> Result<Partial> {
        let mut l = self.annotate(left)?;
        let mut r = self.annotate(right)?;
        let on: Vec<(Expr, Expr)> = on
            .iter()
            .map(|(le, re)| {
                (
                    apply_renames(le.clone(), &l.renames),
                    apply_renames(re.clone(), &r.renames),
                )
            })
            .collect();
        let residual =
            residual.map(|res| apply_renames(apply_renames(res.clone(), &l.renames), &r.renames));
        let mut renames = std::mem::take(&mut l.renames);
        renames.append(&mut r.renames);

        // Rule 3: same annotation on both inputs → stay fused. Under
        // `no_colocated_fusion` (Presto-style connectors) only the
        // mediator fragment itself keeps fusing.
        let may_fuse = !self.options.no_colocated_fusion
            || matches!(&self.options.placement, PlacementPolicy::Mediator(n) if *n == l.dbms);
        if l.dbms == r.dbms && may_fuse {
            return Ok(Partial {
                dbms: l.dbms,
                fragment: build(l.fragment, r.fragment, on, residual),
                renames,
            });
        }

        // Rule 4. The conditions must then address the placeholders of the
        // cut inputs. Each side's expressions are rewritten only through
        // that side's cut (semi-join scopes may share bare column names, so
        // cross-application would capture wrongly).
        let placement = self.place(&l, &r, &on, residual.as_ref())?;
        let (left, l_cut) = self.cut(l, &placement.dbms, placement.left_move)?;
        let (right, r_cut) = self.cut(r, &placement.dbms, placement.right_move)?;
        let on = on
            .into_iter()
            .map(|(le, re)| {
                (
                    apply_renames(le, l_cut.as_slice()),
                    apply_renames(re, r_cut.as_slice()),
                )
            })
            .collect();
        let residual = residual
            .map(|res| apply_renames(apply_renames(res, l_cut.as_slice()), r_cut.as_slice()));
        renames.extend(l_cut);
        renames.extend(r_cut);
        Ok(Partial {
            dbms: placement.dbms,
            fragment: build(left, right, on, residual),
            renames,
        })
    }

    /// Rule 4 as one decision, whatever the policy: estimate both inputs,
    /// let the policy yield the operator's annotation and the movement of
    /// each input, and record the decision.
    fn place(
        &mut self,
        l: &Partial,
        r: &Partial,
        on: &[(Expr, Expr)],
        residual: Option<&Expr>,
    ) -> Result<Placement> {
        let est = Estimator::new(&*self);
        let side = |p: &Partial| InputSide {
            dbms: p.dbms.clone(),
            rows: est.rows(&p.fragment),
            bytes: est.bytes(&p.fragment),
        };
        let (left, right) = (side(l), side(r));
        let fixed = |dbms: &NodeId, right_move| Placement {
            dbms: dbms.clone(),
            left_move: Movement::Implicit,
            right_move,
            cost: 0.0,
        };
        let (chosen, candidates, out_rows, paid_consults) = match &self.options.placement {
            // Equation 1 over the consulted candidates. A semi join is
            // probed and priced as the inner join of its inputs.
            PlacementPolicy::CostBased => {
                let probe =
                    l.fragment
                        .clone()
                        .join_on(r.fragment.clone(), on.to_vec(), residual.cloned());
                let out_rows = est.rows(&probe);
                let paid_before = self.consults;
                let (chosen, costed) = self.price(&left, &right, &probe, out_rows)?;
                (chosen, costed, out_rows, self.consults - paid_before)
            }
            // ScleraDB-style heuristic: the left input's home wins; the
            // moved side is materialized.
            PlacementPolicy::LeftInput => (
                fixed(
                    &l.dbms,
                    self.options.force_movement.unwrap_or(Movement::Explicit),
                ),
                Vec::new(),
                0.0,
                0,
            ),
            // Mediator decomposition: every cross-database operator runs at
            // the mediator; inputs are fetched.
            PlacementPolicy::Mediator(node) => {
                (fixed(node, Movement::Implicit), Vec::new(), 0.0, 0)
            }
        };
        self.decisions.push(PlacementDecision {
            chosen: chosen.clone(),
            candidates,
            paid_consults,
            left,
            right,
            out_rows,
        });
        Ok(chosen)
    }

    /// Consult every candidate engine with `probe` and price every
    /// `(a, x_l, x_r)` option it offers.
    fn price(
        &mut self,
        left: &InputSide,
        right: &InputSide,
        probe: &LogicalPlan,
        out_rows: f64,
    ) -> Result<(Placement, Vec<CandidateCost>)> {
        let cluster = self.cluster;
        let candidates = self.candidates(&left.dbms, &right.dbms)?;
        #[cfg(test)]
        tests::PROBES.with(|probes| probes.borrow_mut().push(probe.clone()));
        // The sub-query this EXPLAIN-style probe ships to each candidate,
        // keyed by its structure: equal sub-plans share one cache entry,
        // and a hit neither lowers nor renders it.
        let key = Probe::plan(probe);
        let cache = &self.catalog.consult_cache;
        for cand in &candidates {
            let generation = cluster.engine(cand.as_str())?.ddl_generation();
            if cache.lookup(cand, &key, generation) {
                self.cache_hits += 1;
            } else {
                // One real round-trip per candidate; the memoized answer
                // serves every later evaluation of this probe.
                self.consults += 1;
                cache.store(cand, &key, generation);
            }
        }
        let profile = |n: &NodeId| cluster.engine(n.as_str()).map(|e| &e.profile);
        decide_placement_with_profiles(
            &cluster.topology,
            &profile,
            left,
            right,
            out_rows,
            &candidates,
            self.options.force_movement,
            self.learned.as_deref(),
        )
    }

    /// The annotation set `A` of one cross-database operator: its two
    /// input annotations under the paper's pruning, every engine without
    /// it, then constrained to `allowed_placements`. Every candidate is an
    /// engine: it is consulted, priced by its own profile, and receives
    /// the operator's DDL.
    fn candidates(&self, l: &NodeId, r: &NodeId) -> Result<Vec<NodeId>> {
        let mut candidates: Vec<NodeId> = if self.options.no_pruning {
            self.cluster
                .node_names()
                .into_iter()
                .map(NodeId::new)
                .collect()
        } else {
            vec![l.clone(), r.clone()]
        };
        if let Some(allowed) = &self.options.allowed_placements {
            candidates.retain(|c| allowed.contains(c));
            // If neither input's home is admissible, fall back to the full
            // allowed set: both inputs move to a permitted third party.
            if candidates.is_empty() {
                candidates = allowed.clone();
            }
        }
        match candidates
            .iter()
            .find(|c| self.cluster.engine(c.as_str()).is_err())
        {
            Some(c) => Err(EngineError::Catalog(format!(
                "placement candidate {:?} is not an engine of the cluster \
                 (allowed_placements: {:?})",
                c.as_str(),
                self.options
                    .allowed_placements
                    .iter()
                    .flatten()
                    .map(NodeId::as_str)
                    .collect::<Vec<_>>()
            ))),
            None => Ok(candidates),
        }
    }

    /// Cut `input` into its own task unless it already sits at `at`;
    /// returns what takes its place (the placeholder leaf, or the input
    /// itself) and the rename rule for ancestor expressions.
    fn cut(
        &mut self,
        input: Partial,
        at: &NodeId,
        movement: Movement,
    ) -> Result<(LogicalPlan, Option<Rename>)> {
        if input.dbms == *at {
            return Ok((input.fragment, None));
        }
        let id = self.tasks.len();
        let schema = input.fragment.schema().clone();
        let new_names = unique_names(&schema)?;
        // Fix the task's output columns with an explicit rename projection.
        let task_plan = input
            .fragment
            .project(rename_projection(&schema, new_names));
        let placeholder = LogicalPlan::placeholder(
            placeholder_name(id),
            placeholder_alias(id),
            task_plan
                .schema()
                .fields
                .iter()
                .map(|f| (f.name.clone(), f.data_type)),
        );
        let est_rows = Estimator::new(&*self).rows(&task_plan);
        self.tasks.push(Task {
            id,
            dbms: input.dbms,
            output_fields: named_columns(&task_plan.schema().fields),
            plan: task_plan,
            est_rows,
        });
        self.movements.insert(id, movement);
        let rename = Rename {
            cut_schema: schema,
            placeholder: placeholder.schema().clone(),
        };
        Ok((placeholder, Some(rename)))
    }

    /// Finalize the root task.
    fn finalize_root(&mut self, partial: Partial) -> Result<usize> {
        let id = self.tasks.len();
        let schema = partial.fragment.schema();
        // The root view's columns must be unique too; wrap only if needed
        // (the binder's top projection usually guarantees uniqueness).
        let needs_wrap = {
            let mut seen = std::collections::HashSet::new();
            schema
                .fields
                .iter()
                .any(|f| !seen.insert(f.name.to_ascii_lowercase()))
        };
        let plan = if needs_wrap {
            let exprs = rename_projection(schema, unique_names(schema)?);
            partial.fragment.project(exprs)
        } else {
            partial.fragment
        };
        let est_rows = Estimator::new(&*self).rows(&plan);
        self.tasks.push(Task {
            id,
            dbms: partial.dbms,
            output_fields: named_columns(&plan.schema().fields),
            plan,
            est_rows,
        });
        Ok(id)
    }

    /// Derive the edge set from placeholder references inside task bodies.
    fn collect_edges(&self) -> Vec<Edge> {
        let mut edges = Vec::new();
        for task in &self.tasks {
            let mut stack = vec![&task.plan];
            while let Some(p) = stack.pop() {
                if let LogicalPlan::Placeholder { name, .. } = p {
                    if let Some(from) = parse_placeholder(name) {
                        edges.push(Edge {
                            from,
                            to: task.id,
                            movement: *self.movements.get(&from).unwrap_or(&Movement::Implicit),
                        });
                    }
                }
                stack.extend(p.children());
            }
        }
        edges.sort_by_key(|e| (e.to, e.from));
        edges
    }
}

/// The projection that renames every field of `schema` to its entry in
/// `new_names`.
fn rename_projection(schema: &PlanSchema, new_names: Vec<Name>) -> Vec<(Expr, Name)> {
    schema
        .fields
        .iter()
        .zip(new_names)
        .map(|(f, n)| (f.column(), n))
        .collect()
}

/// Extract the task id from a placeholder name.
fn parse_placeholder(name: &str) -> Option<usize> {
    name.strip_prefix("__task_")?.parse().ok()
}

/// The statistics an annotation run estimates over: a placeholder's rows
/// are the estimate its task was cut with, everything else is the
/// catalog's. The run owns its estimates, so concurrent annotations over
/// one catalog cannot see (or clear) each other's.
impl StatsProvider for Annotator<'_> {
    fn table_rows(&self, relation: &str) -> Option<f64> {
        match parse_placeholder(relation) {
            Some(id) => self.tasks.get(id).map(|t| t.est_rows),
            None => self.catalog.table_rows(relation),
        }
    }

    fn column_stats(&self, relation: &str, column: &str) -> Option<ColumnStats> {
        self.catalog.column_stats(relation, column)
    }
}

/// Unique bare output names for a schema: field name (shared),
/// disambiguated with its qualifier when duplicated.
pub(crate) fn unique_names(schema: &PlanSchema) -> Result<Vec<Name>> {
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(schema.fields.len());
    for f in &*schema.fields {
        if used.insert(f.name.to_ascii_lowercase()) {
            out.push(f.name.clone());
            continue;
        }
        let mut name = match &f.qualifier {
            Some(q) => format!("{q}_{}", f.name),
            None => {
                return Err(EngineError::Unsupported(format!(
                    "duplicate unqualified column {:?} at a task boundary",
                    &*f.name
                )))
            }
        };
        let mut i = 0;
        while !used.insert(name.to_ascii_lowercase()) {
            i += 1;
            name = format!("{}_{}_{i}", f.qualifier.as_deref().unwrap_or(""), f.name);
        }
        out.push(name.into());
    }
    Ok(out)
}

/// Apply cut renames (oldest first) to an expression.
pub(crate) fn apply_renames(e: Expr, renames: &[Rename]) -> Expr {
    let mut out = e;
    for r in renames {
        out = out.transform(&mut |x| match &x {
            Expr::Column { qualifier, name } => {
                match r.cut_schema.lookup(qualifier.as_deref(), name) {
                    Ok(idx) => r.placeholder.fields[idx].column(),
                    Err(_) => x,
                }
            }
            _ => x,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use xdb_sql::value::DataType;

    /// Floats digest by their value to 12 significant digits: a sum taken
    /// in another order, or a zero of the other sign, digests alike; a
    /// change in the sixth digit does not.
    #[test]
    fn result_digest_rounds_floats() {
        let digest = |f: f64| {
            let fields = vec![("x".to_string(), DataType::Float)];
            result_digest(&Relation::new(fields, vec![vec![Value::Float(f)]]))
        };
        assert_ne!(0.1 + 0.2 + 0.3, 0.3 + 0.2 + 0.1);
        assert_eq!(digest(0.1 + 0.2 + 0.3), digest(0.3 + 0.2 + 0.1));
        assert_eq!(digest(-0.0), digest(0.0));
        assert_ne!(digest(1.0), digest(1.000001));
        assert_ne!(digest(1.0), digest(-1.0));
    }
    use xdb_sql::bind::bind_select;
    use xdb_sql::optimize::{optimize, JoinShape, OptimizeOptions};
    use xdb_sql::parse_select;
    use xdb_sql::structural::encode_plan;

    thread_local! {
        /// Every probe `Annotator::price` built on this thread.
        pub(super) static PROBES: RefCell<Vec<LogicalPlan>> = const { RefCell::new(Vec::new()) };
    }

    /// The learned store of `tests/plans_pinned.rs::annotations_are_pinned`.
    fn fixed_profiles() -> CostProfiles {
        let mut profiles = CostProfiles::default();
        for _ in 0..40 {
            profiles.observe_wire("db1", "db2", Movement::Implicit, 0.35);
            profiles.observe_wire("db2", "db1", Movement::Explicit, 0.8);
            profiles.observe_wire("db3", "db1", Movement::Implicit, 0.5);
            profiles.observe_compute("db2", 1.6);
            profiles.observe_compute("db5", 0.7);
        }
        profiles
    }

    /// Over the sweep `annotations_are_pinned` holds to a constant, the
    /// structural key partitions the probes exactly as their rendered text
    /// did: two probes have equal texts if and only if they have equal
    /// keys, so the consult accounting cannot move. Only the cost-based
    /// policies of that sweep build probes.
    #[test]
    fn probe_keys_partition_probes_as_their_text_did() {
        use xdb_tpch::{build_cluster, ProfileAssignment, TableDist, TpchQuery};
        let policies = [
            AnnotateOptions::default(),
            AnnotateOptions {
                no_pruning: true,
                ..Default::default()
            },
            AnnotateOptions {
                allowed_placements: Some(vec![NodeId::new("db1"), NodeId::new("db2")]),
                ..Default::default()
            },
        ];
        PROBES.with(|probes| probes.borrow_mut().clear());
        for td in [TableDist::Td1, TableDist::Td2, TableDist::Td3] {
            let cluster = build_cluster(
                td,
                0.001,
                xdb_net::Scenario::OnPremise,
                &ProfileAssignment::heterogeneous(),
            )
            .unwrap();
            let catalog = GlobalCatalog::discover(&cluster).unwrap();
            for table in catalog.table_names() {
                catalog.consult(&cluster, &table).unwrap();
            }
            for learned in [CostProfiles::default(), fixed_profiles()] {
                catalog.set_profiles(learned);
                for q in TpchQuery::ALL.into_iter().chain(TpchQuery::EXTENDED) {
                    let select = parse_select(q.sql()).unwrap();
                    for join_shape in [JoinShape::LeftDeep, JoinShape::Bushy] {
                        let options = OptimizeOptions {
                            join_shape,
                            ..Default::default()
                        };
                        let plan =
                            optimize(bind_select(&select, &catalog).unwrap(), &catalog, options);
                        for policy in &policies {
                            for force_movement in [None, Some(Movement::Explicit)] {
                                let options = AnnotateOptions {
                                    force_movement,
                                    ..policy.clone()
                                };
                                Annotator::new(&catalog, &cluster, options)
                                    .run(&plan)
                                    .unwrap();
                            }
                        }
                    }
                }
            }
        }
        let probes = PROBES.with(|probes| std::mem::take(&mut *probes.borrow_mut()));
        let mut key_of_text: HashMap<String, Vec<u8>> = HashMap::new();
        let mut text_of_key: HashMap<Vec<u8>, String> = HashMap::new();
        for probe in &probes {
            let text = match plan_to_select(probe) {
                Ok(stmt) => render_select_string(&stmt, Dialect::Generic),
                Err(_) => probe.tree_string(),
            };
            let mut key = Vec::new();
            encode_plan(probe, &mut key);
            let known_key = key_of_text
                .entry(text.clone())
                .or_insert_with(|| key.clone());
            assert!(*known_key == key, "one text, two keys: {text}");
            let known_text = text_of_key.entry(key).or_insert_with(|| text.clone());
            assert_eq!(*known_text, text, "one key, two texts");
        }
        // The sweep repeats probes: the partition has something to hold.
        assert!(probes.len() > 2 * key_of_text.len(), "{}", probes.len());
    }

    /// The motivating scenario of Table I, generated at a size where the
    /// optimizer's plan matches the paper's Figure 5a shape.
    fn vaccination_cluster() -> (Cluster, GlobalCatalog) {
        crate::scenario::build(crate::scenario::ScenarioConfig::default()).unwrap()
    }

    /// The example cross-database query of Fig 3 (age-group CASE kept
    /// short).
    const EXAMPLE_QUERY: &str = crate::scenario::EXAMPLE_QUERY;

    fn annotate_query(sql: &str) -> (Annotation, Cluster) {
        let (c, g) = vaccination_cluster();
        let plan = bind_select(&parse_select(sql).unwrap(), &g).unwrap();
        let plan = optimize(plan, &g, OptimizeOptions::default());
        let ann = Annotator::new(&g, &c, AnnotateOptions::default())
            .run(&plan)
            .unwrap();
        (ann, c)
    }

    #[test]
    fn single_dbms_query_is_one_task() {
        let (ann, _) = annotate_query("SELECT name FROM citizen WHERE age > 30");
        assert_eq!(ann.plan.tasks.len(), 1);
        assert!(ann.plan.edges.is_empty());
        assert_eq!(ann.plan.task(ann.plan.root).dbms.as_str(), "cdb");
        assert_eq!(ann.consults, 0);
    }

    #[test]
    fn colocated_join_stays_fused() {
        let (ann, _) =
            annotate_query("SELECT v.vtype FROM vaccines v, vaccination vn WHERE v.id = vn.v_id");
        assert_eq!(ann.plan.tasks.len(), 1, "{}", ann.plan.describe());
        assert_eq!(ann.plan.task(ann.plan.root).dbms.as_str(), "vdb");
    }

    #[test]
    fn example_query_produces_three_tasks() {
        let (ann, _) = annotate_query(EXAMPLE_QUERY);
        // Three DBMSes → three tasks (Fig 5a shape) with two inter-DBMS
        // movements.
        assert_eq!(ann.plan.tasks.len(), 3, "{}", ann.plan.describe());
        assert_eq!(ann.plan.edges.len(), 2);
        // Each DBMS hosts exactly one task.
        let mut hosts: Vec<&str> = ann.plan.tasks.iter().map(|t| t.dbms.as_str()).collect();
        hosts.sort();
        assert_eq!(hosts, vec!["cdb", "hdb", "vdb"]);
        // Rule-4 consulting happened: one memoized probe per candidate of
        // each of the 2 cross-db joins (2 × 2 candidates).
        assert_eq!(ann.consults, 4);
    }

    #[test]
    fn consult_cache_halves_probe_roundtrips() {
        let (c, g) = vaccination_cluster();
        let plan = bind_select(&parse_select(EXAMPLE_QUERY).unwrap(), &g).unwrap();
        let plan = optimize(plan, &g, OptimizeOptions::default());
        // One round-trip per candidate of each of the 2 cross-db joins,
        // not one per (candidate, movement) option (that would be 2 × 4).
        let cached = Annotator::new(&g, &c, AnnotateOptions::default())
            .run(&plan)
            .unwrap();
        assert_eq!(cached.consults, 4);
        // Re-annotating the same query is free: every probe hits.
        let again = Annotator::new(&g, &c, AnnotateOptions::default())
            .run(&plan)
            .unwrap();
        assert_eq!(again.consults, 0);
        assert_eq!(again.cache_hits, 4);
        assert_eq!(again.plan.describe(), cached.plan.describe());
    }

    #[test]
    fn annotation_never_places_on_third_party_when_pruned() {
        let (ann, _) = annotate_query(EXAMPLE_QUERY);
        // Every edge's consumer is one of the edge's input DBMSes by
        // construction; tasks live only where their base tables live.
        for t in &ann.plan.tasks {
            assert!(["cdb", "vdb", "hdb"].contains(&t.dbms.as_str()));
        }
    }

    #[test]
    fn cut_rewrites_ancestor_references() {
        // The aggregate at the root references v.vtype, which is cut away
        // into the VDB task: the reference must have been rewritten to the
        // placeholder alias.
        let (ann, _) = annotate_query(EXAMPLE_QUERY);
        let root = ann.plan.task(ann.plan.root);
        // Root plan must bind & lower to SQL without unresolved columns.
        let stmt = xdb_sql::algebra::plan_to_select(&root.plan).unwrap();
        let sql = xdb_sql::display::render_select_string(&stmt, xdb_sql::Dialect::Generic);
        assert!(!sql.is_empty());
    }

    #[test]
    fn force_movement_applies_to_all_edges() {
        let (c, g) = vaccination_cluster();
        let plan = bind_select(&parse_select(EXAMPLE_QUERY).unwrap(), &g).unwrap();
        let plan = optimize(plan, &g, OptimizeOptions::default());
        for forced in [Movement::Implicit, Movement::Explicit] {
            let ann = Annotator::new(
                &g,
                &c,
                AnnotateOptions {
                    force_movement: Some(forced),
                    ..Default::default()
                },
            )
            .run(&plan)
            .unwrap();
            assert!(ann.plan.edges.iter().all(|e| e.movement == forced));
        }
    }

    #[test]
    fn task_outputs_have_unique_names() {
        let (ann, _) = annotate_query(EXAMPLE_QUERY);
        for t in &ann.plan.tasks {
            let mut seen = std::collections::HashSet::new();
            for (n, _) in &t.output_fields {
                assert!(seen.insert(n.to_ascii_lowercase()), "dup {n} in t{}", t.id);
            }
        }
    }

    /// A placeholder's rows are registered with the annotation that cut
    /// its task, as the task's own estimate, and never in the catalog: a
    /// consumer task is estimated over its producers' estimates.
    #[test]
    fn placeholder_estimates_registered() {
        let (c, g) = vaccination_cluster();
        let plan = bind_select(&parse_select(EXAMPLE_QUERY).unwrap(), &g).unwrap();
        let plan = optimize(plan, &g, OptimizeOptions::default());
        let ann = Annotator::new(&g, &c, AnnotateOptions::default())
            .run(&plan)
            .unwrap();
        let tasks = &ann.plan.tasks;
        let stats = Annotator {
            tasks: tasks.clone(),
            ..Annotator::new(&g, &c, AnnotateOptions::default())
        };
        assert!(!ann.plan.edges.is_empty());
        for e in &ann.plan.edges {
            let name = placeholder_name(e.from);
            assert_eq!(g.table_rows(&name), None, "{name} in the catalog");
            let rows = tasks[e.from].est_rows;
            assert!(rows >= 1.0, "{name}: {rows}");
            assert_eq!(stats.table_rows(&name), Some(rows), "{name}");
        }
        for t in tasks {
            let rows = Estimator::new(&stats).rows(&t.plan);
            assert_eq!(rows, t.est_rows, "t{}", t.id);
        }
    }

    #[test]
    fn constrained_placements_respected() {
        let (c, g) = vaccination_cluster();
        let plan = bind_select(&parse_select(EXAMPLE_QUERY).unwrap(), &g).unwrap();
        let plan = optimize(plan, &g, OptimizeOptions::default());
        // Forbid placing cross-database operators on hdb (e.g. the health
        // department's network segment cannot host foreign traffic).
        let ann = Annotator::new(
            &g,
            &c,
            AnnotateOptions {
                allowed_placements: Some(vec![NodeId::new("cdb"), NodeId::new("vdb")]),
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        // Only hdb's own leaf task (scanning measurements) may sit on
        // hdb; every task with a placeholder input (a cross-database
        // operator) must be on cdb or vdb.
        for t in &ann.plan.tasks {
            if ann.plan.in_edges(t.id).count() > 0 {
                assert_ne!(t.dbms.as_str(), "hdb", "{}", ann.plan.describe());
            }
        }
    }

    #[test]
    fn no_pruning_widens_search() {
        // Separate federations per run: the consultation cache would
        // otherwise let the second annotation ride on the first's probes.
        let (c, g) = vaccination_cluster();
        let plan = bind_select(&parse_select(EXAMPLE_QUERY).unwrap(), &g).unwrap();
        let plan = optimize(plan, &g, OptimizeOptions::default());
        let pruned = Annotator::new(&g, &c, AnnotateOptions::default())
            .run(&plan)
            .unwrap();
        let (c2, g2) = vaccination_cluster();
        let plan2 = bind_select(&parse_select(EXAMPLE_QUERY).unwrap(), &g2).unwrap();
        let plan2 = optimize(plan2, &g2, OptimizeOptions::default());
        let full = Annotator::new(
            &g2,
            &c2,
            AnnotateOptions {
                no_pruning: true,
                ..Default::default()
            },
        )
        .run(&plan2)
        .unwrap();
        assert!(full.consults > pruned.consults);
    }
}
