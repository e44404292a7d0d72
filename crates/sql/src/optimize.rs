//! Rule/cost-based logical optimization shared by the local engines and the
//! XDB cross-database optimizer (Section IV-B1).
//!
//! Three passes:
//! 1. **SPJ normalization**: collect each select-project-join region into a
//!    join graph (relations + predicates) and classify predicates into
//!    per-relation filters, equi-join edges, and residual conditions;
//! 2. **join ordering**: left-deep enumeration (exhaustive DP for up to
//!    [`DP_RELATION_LIMIT`] relations, greedy beyond) minimizing the total
//!    estimated intermediate cardinality — the paper restricts itself to
//!    left-deep trees (footnote 5);
//! 3. **column pruning**: projection pushdown to the leaves, which is what
//!    keeps inter-DBMS transfers small.

use crate::algebra::{Field, LogicalPlan, PlanSchema};
use crate::ast::{BinaryOp, Expr};
use crate::stats::{Estimator, StatsProvider};

/// Maximum region size for exhaustive left-deep DP enumeration.
pub const DP_RELATION_LIMIT: usize = 10;

/// Most relations one select-project-join region may hold: a set of them
/// is a `u64` mask. The binder rejects a FROM clause with more.
pub const MAX_REGION_RELATIONS: usize = u64::BITS as usize;

/// Join-tree shape the enumerator may produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JoinShape {
    /// Left-deep only — the paper's setting (footnote 5).
    #[default]
    LeftDeep,
    /// Full bushy enumeration — the paper's future-work extension: bushy
    /// trees expose independent subtrees that decentralized execution can
    /// pipeline in parallel.
    Bushy,
}

/// Knobs for the optimizer (ablation benches flip these). Part of the key
/// the middleware caches an optimised plan under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptimizeOptions {
    /// Reorder joins (off = keep the user's FROM order).
    pub reorder_joins: bool,
    /// Push projections down to the leaves.
    pub prune_columns: bool,
    /// Shape of the enumerated join trees.
    pub join_shape: JoinShape,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            reorder_joins: true,
            prune_columns: true,
            join_shape: JoinShape::LeftDeep,
        }
    }
}

/// Optimize a bound logical plan.
pub fn optimize(
    plan: LogicalPlan,
    stats: &dyn StatsProvider,
    options: OptimizeOptions,
) -> LogicalPlan {
    let ctx = Ctx {
        est: Estimator::new(stats),
        options,
    };
    let plan = ctx.rewrite(plan);
    if options.prune_columns {
        prune(plan, None)
    } else {
        plan
    }
}

struct Ctx<'a> {
    est: Estimator<'a>,
    options: OptimizeOptions,
}

impl<'a> Ctx<'a> {
    fn rewrite(&self, plan: LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::Filter { .. } | LogicalPlan::Join { .. } => self.spj_region(plan),
            LogicalPlan::Project { input, exprs, .. } => self.rewrite(*input).project(exprs),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
                ..
            } => self.rewrite(*input).aggregate(group_by, aggregates),
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: Box::new(self.rewrite(*input)),
                keys,
            },
            LogicalPlan::Limit { input, fetch } => LogicalPlan::Limit {
                input: Box::new(self.rewrite(*input)),
                fetch,
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(self.rewrite(*input)),
            },
            LogicalPlan::SubqueryAlias { input, alias, .. } => self.rewrite(*input).alias(alias),
            // Semi joins bound an optimization region: each side is
            // optimized independently (predicates must not cross them).
            LogicalPlan::SemiJoin {
                left,
                right,
                on,
                residual,
                negated,
            } => LogicalPlan::SemiJoin {
                left: Box::new(self.rewrite(*left)),
                right: Box::new(self.rewrite(*right)),
                on,
                residual,
                negated,
            },
            leaf => leaf,
        }
    }

    /// Normalize and reorder one select-project-join region.
    fn spj_region(&self, root: LogicalPlan) -> LogicalPlan {
        let mut relations: Vec<LogicalPlan> = Vec::new();
        let mut predicates: Vec<Expr> = Vec::new();
        self.collect_region(root, &mut relations, &mut predicates);

        let schemas: Vec<&PlanSchema> = relations.iter().map(LogicalPlan::schema).collect();

        // Classify predicates.
        let mut filters: Vec<Vec<Expr>> = vec![Vec::new(); relations.len()];
        let mut edges: Vec<JoinEdge> = Vec::new();
        let mut residuals: Vec<(u64, Expr)> = Vec::new(); // (relation bitset, predicate)
        for pred in predicates {
            match classify(&pred, &schemas) {
                Classified::Single(i) => filters[i].push(pred),
                Classified::EquiEdge(e) => edges.push(e),
                Classified::Multi(mask) => residuals.push((mask, pred)),
                Classified::Constant => residuals.push((0, pred)),
            }
        }

        // Apply per-relation filters.
        let leaves: Vec<LogicalPlan> = relations
            .into_iter()
            .enumerate()
            .map(
                |(i, r)| match Expr::conjoin(std::mem::take(&mut filters[i])) {
                    Some(p) => r.filter(p),
                    None => r,
                },
            )
            .collect();

        if leaves.len() == 1 {
            let mut plan = leaves.into_iter().next().unwrap();
            for (_, pred) in residuals {
                plan = plan.filter(pred);
            }
            return plan;
        }

        // Bushy enumeration builds the tree directly.
        if self.options.reorder_joins
            && self.options.join_shape == JoinShape::Bushy
            && leaves.len() <= DP_RELATION_LIMIT
        {
            return self.bushy_plan(leaves, &edges, residuals);
        }

        // Choose a join order.
        let order = if self.options.reorder_joins {
            self.order_joins(&leaves, &edges)
        } else {
            (0..leaves.len()).collect()
        };

        // Assemble the left-deep tree, moving each edge and residual into
        // the join where all its relations are first present.
        let mut edges: Vec<Option<JoinEdge>> = edges.into_iter().map(Some).collect();
        let mut residuals: Vec<Option<(u64, Expr)>> = residuals.into_iter().map(Some).collect();
        let mut leaves: Vec<Option<LogicalPlan>> = leaves.into_iter().map(Some).collect();
        let mut order = order.into_iter();
        let first = order
            .next()
            .expect("a region of two or more leaves has an order");
        let mut plan = leaves[first].take().expect("an order names each leaf once");
        let mut in_tree: u64 = 1 << first;
        for idx in order {
            let right = leaves[idx].take().expect("an order names each leaf once");
            let on = edges
                .iter_mut()
                .filter_map(|slot| slot.take_if(|e| e.connects(in_tree, idx)))
                .map(|e| e.oriented(in_tree))
                .collect();
            in_tree |= 1 << idx;
            let residual_here = residuals
                .iter_mut()
                .filter_map(|slot| slot.take_if(|(mask, _)| *mask != 0 && *mask & !in_tree == 0))
                .map(|(_, pred)| pred);
            plan = plan.join_on(right, on, Expr::conjoin(residual_here));
        }
        // Anything left over (constants, or predicates that failed
        // classification) goes on top, and so do unused edges, as
        // equality filters (only disconnected self-referencing predicates
        // leave one).
        let leftover = residuals.into_iter().flatten().map(|(_, p)| p);
        let unused_edge_preds = edges
            .into_iter()
            .flatten()
            .map(|e| Expr::eq(e.left, e.right));
        match Expr::conjoin(leftover.chain(unused_edge_preds)) {
            Some(p) => plan.filter(p),
            None => plan,
        }
    }

    /// Exhaustive bushy join enumeration over one region: classic subset
    /// DP where each subset's best plan may split into any partition, not
    /// just (subset minus one relation, relation). Residual predicates
    /// attach at the join where their relations first meet — a condition
    /// of the two side-masks only, so it is consistent across candidate
    /// splits.
    fn bushy_plan(
        &self,
        leaves: Vec<LogicalPlan>,
        edges: &[JoinEdge],
        residuals: Vec<(u64, Expr)>,
    ) -> LogicalPlan {
        let n = leaves.len();
        #[derive(Clone)]
        struct Entry {
            cost: f64,
            plan: LogicalPlan,
        }
        let full: u64 = (1 << n) - 1;
        let mut best: Vec<Option<Entry>> = vec![None; 1 << n];
        for (i, leaf) in leaves.iter().enumerate() {
            best[1 << i] = Some(Entry {
                cost: 0.0,
                plan: leaf.clone(),
            });
        }
        let join_of = |lmask: u64, rmask: u64, l: &LogicalPlan, r: &LogicalPlan| {
            let mut on = Vec::new();
            for e in edges {
                if let Some((le, re)) = e.orient_sets(lmask, rmask) {
                    on.push((le, re));
                }
            }
            let combined = lmask | rmask;
            let residual_here: Vec<Expr> = residuals
                .iter()
                .filter(|(m, _)| {
                    *m != 0 && m & !combined == 0 && m & !lmask != 0 && m & !rmask != 0
                })
                .map(|(_, p)| p.clone())
                .collect();
            let connected = !on.is_empty();
            let joined = l
                .clone()
                .join_on(r.clone(), on, Expr::conjoin(residual_here));
            (joined, connected)
        };
        for mask in 1u64..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            // Enumerate proper sub-splits; `s > mask ^ s` halves the
            // symmetric pairs.
            let mut s = (mask - 1) & mask;
            while s > 0 {
                let t = mask ^ s;
                if s > t {
                    let pair = match (&best[s as usize], &best[t as usize]) {
                        (Some(ls), Some(rs)) => Some((ls.clone(), rs.clone())),
                        _ => None,
                    };
                    if let Some((ls, rs)) = pair {
                        for (lmask, rmask, le, re) in [(s, t, &ls, &rs), (t, s, &rs, &ls)] {
                            let (joined, connected) = join_of(lmask, rmask, &le.plan, &re.plan);
                            let rows = self.est.rows(&joined);
                            let step = if connected { rows } else { rows * 1e6 };
                            let cost = le.cost + re.cost + step;
                            let better = match &best[mask as usize] {
                                Some(e) => cost < e.cost,
                                None => true,
                            };
                            if better {
                                best[mask as usize] = Some(Entry { cost, plan: joined });
                            }
                        }
                    }
                }
                s = (s - 1) & mask;
            }
        }
        let plan = best[full as usize]
            .take()
            .expect("full subset always has a plan")
            .plan;
        // Residuals that never attached (constants / unresolvable) plus a
        // final guard for predicates over a single relation set.
        let mut attached = vec![false; residuals.len()];
        fn mark_attached(plan: &LogicalPlan, residuals: &[(u64, Expr)], attached: &mut [bool]) {
            if let LogicalPlan::Join {
                residual: Some(res),
                ..
            } = plan
            {
                for part in res.conjuncts() {
                    for (i, (_, p)) in residuals.iter().enumerate() {
                        if !attached[i] && p == part {
                            attached[i] = true;
                            break;
                        }
                    }
                }
            }
            for c in plan.children() {
                mark_attached(c, residuals, attached);
            }
        }
        mark_attached(&plan, &residuals, &mut attached);
        let leftover: Vec<Expr> = residuals
            .into_iter()
            .zip(attached)
            .filter(|(_, a)| !a)
            .map(|((_, p), _)| p)
            .collect();
        match Expr::conjoin(leftover) {
            Some(p) => plan.filter(p),
            None => plan,
        }
    }

    fn collect_region(
        &self,
        node: LogicalPlan,
        relations: &mut Vec<LogicalPlan>,
        predicates: &mut Vec<Expr>,
    ) {
        match node {
            LogicalPlan::Filter { input, predicate } => {
                predicates.extend(predicate.into_conjuncts());
                self.collect_region(*input, relations, predicates);
            }
            LogicalPlan::Join {
                left,
                right,
                on,
                residual,
                ..
            } => {
                self.collect_region(*left, relations, predicates);
                self.collect_region(*right, relations, predicates);
                for (l, r) in on {
                    predicates.push(Expr::eq(l, r));
                }
                if let Some(res) = residual {
                    predicates.extend(res.into_conjuncts());
                }
            }
            other => relations.push(self.rewrite(other)),
        }
    }

    /// Left-deep join ordering minimizing the sum of intermediate result
    /// cardinalities. Exhaustive DP for small regions, greedy otherwise.
    fn order_joins(&self, leaves: &[LogicalPlan], edges: &[JoinEdge]) -> Vec<usize> {
        let graph = self.join_graph(leaves, edges);
        if leaves.len() <= DP_RELATION_LIMIT {
            graph.order_dp()
        } else {
            graph.order_greedy()
        }
    }

    /// The region's join graph with pre-computed per-leaf cardinalities and
    /// per-edge distinct counts, so enumeration costs are pure arithmetic
    /// (no plan cloning, no repeated estimator recursion — this is what
    /// keeps Q8's 8-relation DP in the hundreds of microseconds).
    fn join_graph(&self, leaves: &[LogicalPlan], edges: &[JoinEdge]) -> JoinGraph {
        let leaf_rows: Vec<f64> = leaves.iter().map(|l| self.est.rows(l)).collect();
        let distinct = |side: &Expr, rel: usize| {
            self.est
                .expr_distinct(side, &leaves[rel])
                .unwrap_or(leaf_rows[rel] * crate::stats::DEFAULT_EQ_SELECTIVITY)
        };
        let edges: Vec<(usize, usize, f64)> = edges
            .iter()
            .map(|e| {
                let d = distinct(&e.left, e.left_rel).max(distinct(&e.right, e.right_rel));
                (e.left_rel, e.right_rel, d.max(1.0))
            })
            .collect();
        JoinGraph::new(leaf_rows, &edges)
    }
}

/// A region's join graph as the orderings read it: each leaf's estimated
/// rows and, per leaf, its incident edges in edge order as (other end's
/// bit, distinct count) pairs.
struct JoinGraph {
    leaf_rows: Vec<f64>,
    incident: Vec<Vec<(u64, f64)>>,
}

impl JoinGraph {
    /// `edges` are (left leaf, right leaf, distinct count), in edge order.
    fn new(leaf_rows: Vec<f64>, edges: &[(usize, usize, f64)]) -> JoinGraph {
        let mut incident = vec![Vec::new(); leaf_rows.len()];
        for &(l, r, d) in edges {
            incident[l].push((1u64 << r, d));
            incident[r].push((1u64 << l, d));
        }
        JoinGraph {
            leaf_rows,
            incident,
        }
    }

    /// Cardinality of joining `rows` rows over the relations in `mask` with
    /// leaf `idx`, and whether an edge connects the two. Mirrors the
    /// estimator's join formula: cross product divided by max-distinct per
    /// crossing edge. The crossing edges are those of `idx`'s list whose
    /// other end is in `mask`, met in edge order: the divisions, in the
    /// order, of a pass over every edge of the region, so the result is the
    /// same to the last bit.
    fn join_rows(&self, mask: u64, rows: f64, idx: usize) -> (f64, bool) {
        let mut card = rows * self.leaf_rows[idx];
        let mut connected = false;
        for &(other, d) in &self.incident[idx] {
            if mask & other != 0 {
                card /= d;
                connected = true;
            }
        }
        (card.max(1.0), connected)
    }

    fn order_dp(&self) -> Vec<usize> {
        let n = self.leaf_rows.len();
        #[derive(Clone, Copy)]
        struct Entry {
            cost: f64,
            rows: f64,
            /// Last relation added + predecessor mask, for reconstruction.
            last: usize,
        }
        let full: u64 = (1 << n) - 1;
        let mut best: Vec<Option<Entry>> = vec![None; 1 << n];
        for (i, rows) in self.leaf_rows.iter().enumerate() {
            best[1 << i] = Some(Entry {
                cost: 0.0,
                rows: *rows,
                last: i,
            });
        }
        for size in 1..n {
            for mask in 1u64..=full {
                if mask.count_ones() as usize != size {
                    continue;
                }
                let Some(entry) = best[mask as usize] else {
                    continue;
                };
                for idx in 0..n {
                    if mask & (1 << idx) != 0 {
                        continue;
                    }
                    let (rows, connected) = self.join_rows(mask, entry.rows, idx);
                    // Penalize cross joins heavily but keep them feasible.
                    let step_cost = if connected { rows } else { rows * 1e6 };
                    let cost = entry.cost + step_cost;
                    let next = (mask | (1 << idx)) as usize;
                    let better = match &best[next] {
                        Some(e) => cost < e.cost,
                        None => true,
                    };
                    if better {
                        best[next] = Some(Entry {
                            cost,
                            rows,
                            last: idx,
                        });
                    }
                }
            }
        }
        // Reconstruct the order by walking predecessor masks.
        let mut order = Vec::with_capacity(n);
        let mut mask = full;
        while mask != 0 {
            let Some(entry) = best[mask as usize] else {
                return (0..n).collect();
            };
            order.push(entry.last);
            mask &= !(1 << entry.last);
        }
        order.reverse();
        order
    }

    fn order_greedy(&self) -> Vec<usize> {
        let n = self.leaf_rows.len();
        // Start from the smallest relation.
        let mut start = 0;
        let mut start_rows = f64::INFINITY;
        for (i, r) in self.leaf_rows.iter().enumerate() {
            if *r < start_rows {
                start_rows = *r;
                start = i;
            }
        }
        let mut order = vec![start];
        let mut mask: u64 = 1 << start;
        let mut current_rows = start_rows;
        while order.len() < n {
            let mut pick: Option<(usize, f64, f64)> = None;
            for idx in 0..n {
                if mask & (1 << idx) != 0 {
                    continue;
                }
                let (rows, connected) = self.join_rows(mask, current_rows, idx);
                let cost = if connected { rows } else { rows * 1e6 };
                let better = match &pick {
                    Some((_, c, _)) => cost < *c,
                    None => true,
                };
                if better {
                    pick = Some((idx, cost, rows));
                }
            }
            let (idx, _, rows) = pick.expect("a relation outside the order is left");
            order.push(idx);
            mask |= 1 << idx;
            current_rows = rows;
        }
        order
    }
}

/// An equi-join edge between two relations of a region.
#[derive(Debug, Clone)]
struct JoinEdge {
    left_rel: usize,
    right_rel: usize,
    left: Expr,
    right: Expr,
}

impl JoinEdge {
    /// If this edge connects subset `left_mask` with subset `right_mask`,
    /// return `(left_side_expr, right_side_expr)`.
    fn orient_sets(&self, left_mask: u64, right_mask: u64) -> Option<(Expr, Expr)> {
        let lbit = 1u64 << self.left_rel;
        let rbit = 1u64 << self.right_rel;
        if left_mask & lbit != 0 && right_mask & rbit != 0 {
            Some((self.left.clone(), self.right.clone()))
        } else if left_mask & rbit != 0 && right_mask & lbit != 0 {
            Some((self.right.clone(), self.left.clone()))
        } else {
            None
        }
    }

    /// Does this edge connect the partial tree `mask` with leaf `idx`?
    fn connects(&self, mask: u64, idx: usize) -> bool {
        (mask & (1 << self.left_rel) != 0 && idx == self.right_rel)
            || (mask & (1 << self.right_rel) != 0 && idx == self.left_rel)
    }

    /// The edge as `(tree_side_expr, leaf_side_expr)` for a partial tree
    /// `mask` it [connects](JoinEdge::connects) with a leaf.
    fn oriented(self, mask: u64) -> (Expr, Expr) {
        if mask & (1 << self.left_rel) != 0 {
            (self.left, self.right)
        } else {
            (self.right, self.left)
        }
    }
}

enum Classified {
    Single(usize),
    EquiEdge(JoinEdge),
    Multi(u64),
    Constant,
}

/// Relation bitmask referenced by an expression, resolved against the
/// per-relation schemas. `None` if some column resolves nowhere.
fn relations_of(e: &Expr, schemas: &[&PlanSchema]) -> Option<u64> {
    let mut mask = 0u64;
    let mut ok = true;
    e.walk(&mut |x| {
        if let Expr::Column { qualifier, name } = x {
            let mut found = None;
            for (i, s) in schemas.iter().enumerate() {
                if s.lookup(qualifier.as_deref(), name).is_ok() {
                    if found.is_some() {
                        // Ambiguous across relations — binder would have
                        // rejected this; treat conservatively.
                        ok = false;
                    }
                    found = Some(i);
                }
            }
            match found {
                Some(i) => mask |= 1 << i,
                None => ok = false,
            }
        }
    });
    ok.then_some(mask)
}

fn classify(pred: &Expr, schemas: &[&PlanSchema]) -> Classified {
    let Some(mask) = relations_of(pred, schemas) else {
        // Unresolvable: keep as a top-level residual over everything.
        return Classified::Multi(u64::MAX >> (u64::BITS as usize - schemas.len()));
    };
    match mask.count_ones() {
        0 => Classified::Constant,
        1 => Classified::Single(mask.trailing_zeros() as usize),
        2 => {
            // Equi-join edge if it is `lhs = rhs` with each side on one
            // relation.
            if let Expr::Binary {
                op: BinaryOp::Eq,
                left,
                right,
            } = pred
            {
                if let (Some(lm), Some(rm)) =
                    (relations_of(left, schemas), relations_of(right, schemas))
                {
                    if lm.count_ones() == 1 && rm.count_ones() == 1 && lm != rm {
                        return Classified::EquiEdge(JoinEdge {
                            left_rel: lm.trailing_zeros() as usize,
                            right_rel: rm.trailing_zeros() as usize,
                            left: (**left).clone(),
                            right: (**right).clone(),
                        });
                    }
                }
            }
            Classified::Multi(mask)
        }
        _ => Classified::Multi(mask),
    }
}

// ---------------------------------------------------------------------------
// Column pruning (projection pushdown).
// ---------------------------------------------------------------------------

/// A column requirement: qualifier (if any) and name, borrowed from the
/// expression that needs the column.
type Need<'a> = (Option<&'a str>, &'a str);

fn needs_of<'a>(e: &'a Expr, out: &mut Vec<Need<'a>>) {
    e.walk(&mut |x| {
        if let Expr::Column { qualifier, name } = x {
            let need = (qualifier.as_deref(), &**name);
            if !out.contains(&need) {
                out.push(need);
            }
        }
    });
}

/// Does `field` (with its qualifier) satisfy requirement `need`?
fn satisfies(field_qualifier: Option<&str>, field_name: &str, need: &Need) -> bool {
    if !need.1.eq_ignore_ascii_case(field_name) {
        return false;
    }
    match (need.0, field_qualifier) {
        (None, _) => true,
        (Some(q), Some(fq)) => q.eq_ignore_ascii_case(fq),
        (Some(_), None) => false,
    }
}

/// `required` plus what `exprs` need, or `None` (keep everything) when
/// `required` is.
fn with_needs_of<'a>(
    required: Option<&[Need<'a>]>,
    exprs: impl IntoIterator<Item = &'a Expr>,
) -> Option<Vec<Need<'a>>> {
    let mut needs = required?.to_vec();
    for e in exprs {
        needs_of(e, &mut needs);
    }
    Some(needs)
}

/// Prune unused columns. `required == None` keeps everything (the root).
fn prune(plan: LogicalPlan, required: Option<&[Need]>) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan {
            relation,
            alias,
            schema,
        } => {
            let Some(req) = required else {
                return LogicalPlan::Scan {
                    relation,
                    alias,
                    schema,
                };
            };
            let needed = |f: &Field| {
                req.iter()
                    .any(|need| satisfies(Some(&alias), &f.name, need))
            };
            if schema.fields.iter().all(needed) {
                return LogicalPlan::Scan {
                    relation,
                    alias,
                    schema,
                };
            }
            let column = |f: &Field| (f.name.clone(), f.data_type);
            let mut fields: Vec<_> = schema
                .fields
                .iter()
                .filter(|f| needed(f))
                .map(column)
                .collect();
            if fields.is_empty() {
                // Keep one column so the scan still produces rows (e.g.
                // `count(*)`).
                fields.extend(schema.fields.first().map(column));
            }
            LogicalPlan::scan(relation, alias, fields)
        }
        // Placeholders stand in for another task's already-shaped output;
        // never prune them here.
        leaf @ (LogicalPlan::Placeholder { .. } | LogicalPlan::OneRow) => leaf,
        LogicalPlan::Filter { input, predicate } => {
            let needs = with_needs_of(required, [&predicate]);
            let input = prune(*input, needs.as_deref());
            LogicalPlan::Filter {
                input: Box::new(input),
                predicate,
            }
        }
        LogicalPlan::Project {
            input, mut exprs, ..
        } => {
            if let Some(req) = required {
                let wanted = |n: &str| req.iter().any(|need| satisfies(None, n, need));
                if exprs.iter().any(|(_, n)| wanted(n)) {
                    exprs.retain(|(_, n)| wanted(n));
                } else {
                    exprs.truncate(1);
                }
            }
            let mut needs = Vec::new();
            for (e, _) in &exprs {
                needs_of(e, &mut needs);
            }
            let input = prune(*input, Some(&needs));
            input.project(exprs)
        }
        LogicalPlan::SemiJoin {
            left,
            right,
            on,
            residual,
            negated,
        } => {
            // Left keeps the caller's requirements plus its join keys;
            // right keeps only its join keys (+ any residual references).
            let mut lneeds: Vec<Need> = required.map(<[Need]>::to_vec).unwrap_or_default();
            let keep_all = required.is_none();
            let mut rneeds: Vec<Need> = Vec::new();
            for (l, r) in &on {
                needs_of(l, &mut lneeds);
                needs_of(r, &mut rneeds);
            }
            if let Some(res) = &residual {
                needs_of(res, &mut lneeds);
                needs_of(res, &mut rneeds);
            }
            let left = prune(*left, if keep_all { None } else { Some(&lneeds) });
            let right = prune(*right, Some(&rneeds));
            LogicalPlan::SemiJoin {
                left: Box::new(left),
                right: Box::new(right),
                on,
                residual,
                negated,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            residual,
            ..
        } => {
            let (lp, rp) = match required {
                None => (prune(*left, None), prune(*right, None)),
                Some(req) => {
                    let mut needs = req.to_vec();
                    for (l, r) in &on {
                        needs_of(l, &mut needs);
                        needs_of(r, &mut needs);
                    }
                    if let Some(res) = &residual {
                        needs_of(res, &mut needs);
                    }
                    // Split needs by which side can satisfy them; pass
                    // ambiguous bare names to both sides (over-keeping is
                    // safe).
                    let ls = left.schema();
                    let rs = right.schema();
                    let mut lneeds = Vec::new();
                    let mut rneeds = Vec::new();
                    for need in needs {
                        let in_l = ls.lookup(need.0, need.1).is_ok();
                        let in_r = rs.lookup(need.0, need.1).is_ok();
                        if in_l {
                            lneeds.push(need);
                        }
                        if in_r || !in_l {
                            rneeds.push(need);
                        }
                    }
                    (prune(*left, Some(&lneeds)), prune(*right, Some(&rneeds)))
                }
            };
            lp.join_on(rp, on, residual)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => {
            let mut needs = Vec::new();
            for (e, _) in &group_by {
                needs_of(e, &mut needs);
            }
            for (a, _) in &aggregates {
                if let Some(arg) = &a.arg {
                    needs_of(arg, &mut needs);
                }
            }
            let input = prune(*input, Some(&needs));
            input.aggregate(group_by, aggregates)
        }
        LogicalPlan::Sort { input, keys } => {
            let needs = with_needs_of(required, keys.iter().map(|(e, _)| e));
            let input = prune(*input, needs.as_deref());
            LogicalPlan::Sort {
                input: Box::new(input),
                keys,
            }
        }
        LogicalPlan::Limit { input, fetch } => LogicalPlan::Limit {
            input: Box::new(prune(*input, required)),
            fetch,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            // DISTINCT semantics depend on the full row; keep everything.
            input: Box::new(prune(*input, None)),
        },
        LogicalPlan::SubqueryAlias { input, alias, .. } => {
            let inner_required: Option<Vec<Need>> = required.map(|req| {
                req.iter()
                    .filter(|(q, _)| q.is_none_or(|q| q.eq_ignore_ascii_case(&alias)))
                    .map(|&(_, n)| (None, n))
                    .collect()
            });
            let input = prune(*input, inner_required.as_deref());
            input.alias(alias)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{bind_select, intern_fields, ResolvedRelation, SchemaProvider};
    use crate::parser::parse_select;
    use crate::stats::{ColumnStats, NoStats};
    use crate::value::{DataType, Value};
    use std::collections::HashMap;

    struct TestCatalog {
        relations: HashMap<String, ResolvedRelation>,
        rows: HashMap<String, f64>,
        distinct: HashMap<(String, String), f64>,
    }

    impl SchemaProvider for TestCatalog {
        fn resolve_relation(&self, name: &str) -> Option<ResolvedRelation> {
            self.relations.get(&name.to_ascii_lowercase()).cloned()
        }
    }

    impl StatsProvider for TestCatalog {
        fn table_rows(&self, relation: &str) -> Option<f64> {
            self.rows.get(&relation.to_ascii_lowercase()).copied()
        }

        fn column_stats(&self, relation: &str, column: &str) -> Option<ColumnStats> {
            self.distinct
                .get(&(relation.to_ascii_lowercase(), column.to_ascii_lowercase()))
                .map(|d| ColumnStats {
                    n_distinct: *d,
                    min: None,
                    max: None,
                })
        }
    }

    fn catalog() -> TestCatalog {
        let mut relations = HashMap::new();
        let mut rows = HashMap::new();
        let mut distinct = HashMap::new();
        for (name, cols, count) in [
            (
                "customer",
                vec![
                    ("c_custkey", DataType::Int),
                    ("c_name", DataType::Str),
                    ("c_mktsegment", DataType::Str),
                    ("c_nationkey", DataType::Int),
                ],
                1500.0,
            ),
            (
                "orders",
                vec![
                    ("o_orderkey", DataType::Int),
                    ("o_custkey", DataType::Int),
                    ("o_orderdate", DataType::Date),
                ],
                15000.0,
            ),
            (
                "lineitem",
                vec![
                    ("l_orderkey", DataType::Int),
                    ("l_extendedprice", DataType::Float),
                    ("l_discount", DataType::Float),
                    ("l_shipdate", DataType::Date),
                ],
                60000.0,
            ),
            (
                "nation",
                vec![("n_nationkey", DataType::Int), ("n_name", DataType::Str)],
                25.0,
            ),
        ] {
            relations.insert(
                name.to_string(),
                ResolvedRelation::Base {
                    fields: intern_fields(&cols),
                },
            );
            rows.insert(name.to_string(), count);
            for (c, _) in cols {
                let d = match c {
                    "c_custkey" => 1500.0,
                    "o_orderkey" => 15000.0,
                    "o_custkey" => 1000.0,
                    "l_orderkey" => 15000.0,
                    "n_nationkey" => 25.0,
                    _ => count / 10.0,
                };
                distinct.insert((name.to_string(), c.to_string()), d);
            }
        }
        TestCatalog {
            relations,
            rows,
            distinct,
        }
    }

    fn opt(sql: &str) -> LogicalPlan {
        let cat = catalog();
        let plan = bind_select(&parse_select(sql).unwrap(), &cat).unwrap();
        optimize(plan, &cat, OptimizeOptions::default())
    }

    /// Collect join order as the sequence of scan relations, left-deep.
    fn scan_order(plan: &LogicalPlan) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(p: &LogicalPlan, out: &mut Vec<String>) {
            if let LogicalPlan::Scan { relation, .. } = p {
                out.push(relation.clone());
            }
            for c in p.children() {
                walk(c, out);
            }
        }
        walk(plan, &mut out);
        out
    }

    #[test]
    fn filters_pushed_to_scans() {
        let plan = opt(
            "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey AND c_mktsegment = 'BUILDING'",
        );
        let tree = plan.tree_string();
        // The segment filter must sit directly above the customer scan,
        // below the join.
        let seg = tree.find("c_mktsegment").unwrap();
        let join = tree.find("Join").unwrap();
        assert!(seg > join, "filter should be below the join: {tree}");
    }

    #[test]
    fn join_order_starts_small() {
        let plan = opt("SELECT c_name FROM lineitem, orders, customer \
             WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey");
        let order = scan_order(&plan);
        // customer (1.5k) or orders should come before lineitem (60k) as
        // the leftmost; lineitem must not be first.
        assert_ne!(order[0], "lineitem", "{order:?}");
    }

    #[test]
    fn no_cross_products_when_connected() {
        let plan = opt(
            "SELECT c_name FROM customer, orders, lineitem, nation \
             WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND c_nationkey = n_nationkey",
        );
        // Every Join node must have at least one equi condition.
        fn check(p: &LogicalPlan) {
            if let LogicalPlan::Join { on, .. } = p {
                assert!(!on.is_empty(), "cross join in {}", p.tree_string());
            }
            for c in p.children() {
                check(c);
            }
        }
        check(&plan);
    }

    #[test]
    fn columns_pruned_at_scans() {
        let plan = opt("SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey");
        fn scan_widths(p: &LogicalPlan, out: &mut Vec<(String, usize)>) {
            if let LogicalPlan::Scan {
                relation, schema, ..
            } = p
            {
                out.push((relation.clone(), schema.len()));
            }
            for c in p.children() {
                scan_widths(c, out);
            }
        }
        let mut widths = Vec::new();
        scan_widths(&plan, &mut widths);
        for (rel, w) in widths {
            match rel.as_str() {
                "customer" => assert_eq!(w, 2, "c_name + c_custkey"),
                "orders" => assert_eq!(w, 1, "o_custkey only"),
                other => panic!("unexpected scan {other}"),
            }
        }
    }

    #[test]
    fn residual_or_predicate_placed_at_join() {
        let plan = opt("SELECT c_name FROM customer, nation \
             WHERE c_nationkey = n_nationkey AND (c_mktsegment = 'A' OR n_name = 'B')");
        fn has_residual(p: &LogicalPlan) -> bool {
            if let LogicalPlan::Join { residual, .. } = p {
                if residual.is_some() {
                    return true;
                }
            }
            p.children().iter().any(|c| has_residual(c))
        }
        assert!(has_residual(&plan), "{}", plan.tree_string());
    }

    #[test]
    fn semantics_preserving_shape() {
        // Optimized plan schema equals the bound plan schema (names/types).
        let cat = catalog();
        let sql = "SELECT c_name, sum(l_extendedprice * (1 - l_discount)) AS rev \
                   FROM customer, orders, lineitem \
                   WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey \
                   GROUP BY c_name ORDER BY rev DESC LIMIT 5";
        let bound = bind_select(&parse_select(sql).unwrap(), &cat).unwrap();
        let optimized = optimize(bound.clone(), &cat, OptimizeOptions::default());
        assert_eq!(
            bound
                .schema()
                .fields
                .iter()
                .map(|f| &f.name)
                .collect::<Vec<_>>(),
            optimized
                .schema()
                .fields
                .iter()
                .map(|f| &f.name)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn reorder_can_be_disabled() {
        let cat = catalog();
        let sql = "SELECT c_name FROM lineitem, orders, customer \
                   WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey";
        let plan = bind_select(&parse_select(sql).unwrap(), &cat).unwrap();
        let fixed = optimize(
            plan,
            &cat,
            OptimizeOptions {
                reorder_joins: false,
                prune_columns: false,
                join_shape: JoinShape::LeftDeep,
            },
        );
        assert_eq!(scan_order(&fixed), vec!["lineitem", "orders", "customer"]);
    }

    #[test]
    fn single_relation_region() {
        let plan = opt("SELECT c_name FROM customer WHERE c_mktsegment = 'X'");
        assert!(matches!(plan, LogicalPlan::Project { .. }));
    }

    #[test]
    fn greedy_used_beyond_dp_limit() {
        // Build a star query with 11 relations joined to a hub — exceeds
        // DP_RELATION_LIMIT and exercises the greedy path.
        let mut relations = HashMap::new();
        let mut rows = HashMap::new();
        let mut fields = vec![("hub_id".to_string(), DataType::Int)];
        for i in 0..11 {
            relations.insert(
                format!("dim{i}"),
                ResolvedRelation::Base {
                    fields: intern_fields(&[(format!("d{i}_id"), DataType::Int)]),
                },
            );
            rows.insert(format!("dim{i}"), 10.0 * (i as f64 + 1.0));
            fields.push((format!("d{i}_ref"), DataType::Int));
        }
        relations.insert(
            "hub".to_string(),
            ResolvedRelation::Base {
                fields: intern_fields(&fields),
            },
        );
        rows.insert("hub".to_string(), 10000.0);
        let cat = TestCatalog {
            relations,
            rows,
            distinct: HashMap::new(),
        };
        let mut sql = String::from("SELECT hub.hub_id FROM hub");
        let mut conds = Vec::new();
        for i in 0..11 {
            sql.push_str(&format!(", dim{i}"));
            conds.push(format!("hub.d{i}_ref = dim{i}.d{i}_id"));
        }
        sql.push_str(" WHERE ");
        sql.push_str(&conds.join(" AND "));
        let plan = bind_select(&parse_select(&sql).unwrap(), &cat).unwrap();
        let optimized = optimize(plan, &cat, OptimizeOptions::default());
        assert_eq!(scan_order(&optimized).len(), 12);
    }

    #[test]
    fn bushy_enumeration_produces_bushy_tree_when_profitable() {
        // Two star sub-queries joined by a narrow bridge: (a ⋈ b) ⋈ (c ⋈ d)
        // is cheaper bushy than any left-deep order.
        let mut relations = HashMap::new();
        let mut rows = HashMap::new();
        let mut distinct = HashMap::new();
        for (name, key_a, key_b, count) in [
            ("ta", "x1", "y1", 1000.0),
            ("tb", "x2", "y1", 1000.0),
            ("tc", "x3", "y2", 1000.0),
            ("td", "x4", "y2", 1000.0),
        ] {
            relations.insert(
                name.to_string(),
                ResolvedRelation::Base {
                    fields: intern_fields(&[(key_a, DataType::Int), (key_b, DataType::Int)]),
                },
            );
            rows.insert(name.to_string(), count);
            // The bridge columns (x2, x3) are low-cardinality, so the
            // bridge join expands 100x: any left-deep order pays that
            // expansion twice, the bushy split only once.
            let bridge = matches!(key_a, "x2" | "x3");
            distinct.insert(
                (name.to_string(), key_a.to_string()),
                if bridge { 10.0 } else { 1000.0 },
            );
            distinct.insert((name.to_string(), key_b.to_string()), 1000.0);
        }
        let cat = TestCatalog {
            relations,
            rows,
            distinct,
        };
        let sql = "SELECT ta.x1 FROM ta, tb, tc, td \
                   WHERE ta.y1 = tb.y1 AND tc.y2 = td.y2 AND tb.x2 = tc.x3";
        let plan = bind_select(&parse_select(sql).unwrap(), &cat).unwrap();
        let bushy = optimize(
            plan.clone(),
            &cat,
            OptimizeOptions {
                join_shape: JoinShape::Bushy,
                ..Default::default()
            },
        );
        // Schema is preserved.
        let leftdeep = optimize(plan, &cat, OptimizeOptions::default());
        assert_eq!(bushy.schema(), leftdeep.schema());
        // The bushy tree has at least one join whose right child is a join.
        fn has_bushy_join(p: &LogicalPlan) -> bool {
            if let LogicalPlan::Join { right, .. } = p {
                fn contains_join(p: &LogicalPlan) -> bool {
                    matches!(p, LogicalPlan::Join { .. })
                        || p.children().iter().any(|c| contains_join(c))
                }
                if contains_join(right) {
                    return true;
                }
            }
            p.children().iter().any(|c| has_bushy_join(c))
        }
        assert!(has_bushy_join(&bushy), "{}", bushy.tree_string());
        assert!(!has_bushy_join(&leftdeep), "{}", leftdeep.tree_string());
    }

    #[test]
    fn bushy_keeps_all_predicates() {
        let cat = catalog();
        let sql = "SELECT c_name FROM customer, orders, lineitem, nation \
             WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey \
               AND c_nationkey = n_nationkey AND (c_mktsegment = 'A' OR n_name = 'B')";
        let plan = bind_select(&parse_select(sql).unwrap(), &cat).unwrap();
        let bushy = optimize(
            plan,
            &cat,
            OptimizeOptions {
                join_shape: JoinShape::Bushy,
                ..Default::default()
            },
        );
        // All three equi edges appear somewhere, plus the OR residual.
        let mut equi = 0;
        let mut residuals = 0;
        fn walk(p: &LogicalPlan, equi: &mut usize, residuals: &mut usize) {
            if let LogicalPlan::Join { on, residual, .. } = p {
                *equi += on.len();
                *residuals += residual.is_some() as usize;
            }
            for c in p.children() {
                walk(c, equi, residuals);
            }
        }
        walk(&bushy, &mut equi, &mut residuals);
        assert_eq!(equi, 3, "{}", bushy.tree_string());
        assert_eq!(residuals, 1, "{}", bushy.tree_string());
    }

    #[test]
    fn prune_keeps_count_star_scans_nonempty() {
        let plan = opt("SELECT count(*) FROM customer");
        fn min_scan_width(p: &LogicalPlan) -> usize {
            if let LogicalPlan::Scan { schema, .. } = p {
                return schema.len();
            }
            p.children()
                .iter()
                .map(|c| min_scan_width(c))
                .min()
                .unwrap_or(usize::MAX)
        }
        assert!(min_scan_width(&plan) >= 1);
    }

    #[test]
    fn optimize_with_no_stats_is_safe() {
        let cat = catalog();
        let plan = bind_select(
            &parse_select("SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey")
                .unwrap(),
            &cat,
        )
        .unwrap();
        let optimized = optimize(plan, &NoStats, OptimizeOptions::default());
        assert_eq!(scan_order(&optimized).len(), 2);
        // Still resolvable end-to-end.
        let _ = crate::algebra::plan_to_select(&optimized).unwrap();
        let _ = Value::Int(0); // silence unused import lint paths
    }

    /// Cardinality of joining two disjoint subsets by a pass over every
    /// edge of the region: what the orderings computed before each leaf
    /// kept its incidence list, and the oracle of [`JoinGraph::join_rows`].
    fn all_edges_join_rows(
        lmask: u64,
        rmask: u64,
        lrows: f64,
        rrows: f64,
        edges: &[(usize, usize, f64)],
    ) -> (f64, bool) {
        let mut card = lrows * rrows;
        let mut connected = false;
        for &(l, r, d) in edges {
            let lbit = 1u64 << l;
            let rbit = 1u64 << r;
            let crosses = (lmask & lbit != 0 && rmask & rbit != 0)
                || (lmask & rbit != 0 && rmask & lbit != 0);
            if crosses {
                card /= d;
                connected = true;
            }
        }
        (card.max(1.0), connected)
    }

    /// [`JoinGraph::order_dp`] over [`all_edges_join_rows`].
    fn all_edges_dp(leaf_rows: &[f64], edges: &[(usize, usize, f64)]) -> Vec<usize> {
        let n = leaf_rows.len();
        let full: u64 = (1 << n) - 1;
        // (cost, rows, last relation added)
        let mut best: Vec<Option<(f64, f64, usize)>> = vec![None; 1 << n];
        for (i, rows) in leaf_rows.iter().enumerate() {
            best[1 << i] = Some((0.0, *rows, i));
        }
        for size in 1..n {
            for mask in 1u64..=full {
                if mask.count_ones() as usize != size {
                    continue;
                }
                let Some((cost, rows, _)) = best[mask as usize] else {
                    continue;
                };
                for (idx, idx_rows) in leaf_rows.iter().enumerate() {
                    if mask & (1 << idx) != 0 {
                        continue;
                    }
                    let (joined, connected) =
                        all_edges_join_rows(mask, 1 << idx, rows, *idx_rows, edges);
                    let cost = cost + if connected { joined } else { joined * 1e6 };
                    let next = (mask | (1 << idx)) as usize;
                    if best[next].is_none_or(|(c, _, _)| cost < c) {
                        best[next] = Some((cost, joined, idx));
                    }
                }
            }
        }
        let mut order = Vec::new();
        let mut mask = full;
        while mask != 0 {
            let Some((_, _, last)) = best[mask as usize] else {
                return (0..n).collect();
            };
            order.push(last);
            mask &= !(1 << last);
        }
        order.reverse();
        order
    }

    /// [`JoinGraph::order_greedy`] over [`all_edges_join_rows`].
    fn all_edges_greedy(leaf_rows: &[f64], edges: &[(usize, usize, f64)]) -> Vec<usize> {
        let n = leaf_rows.len();
        let mut start = 0;
        let mut start_rows = f64::INFINITY;
        for (i, r) in leaf_rows.iter().enumerate() {
            if *r < start_rows {
                start_rows = *r;
                start = i;
            }
        }
        let mut order = vec![start];
        let mut mask: u64 = 1 << start;
        let mut current_rows = start_rows;
        while order.len() < n {
            let mut pick: Option<(usize, f64, f64)> = None;
            for (idx, idx_rows) in leaf_rows.iter().enumerate() {
                if mask & (1 << idx) != 0 {
                    continue;
                }
                let (rows, connected) =
                    all_edges_join_rows(mask, 1 << idx, current_rows, *idx_rows, edges);
                let cost = if connected { rows } else { rows * 1e6 };
                if pick.is_none_or(|(_, c, _)| cost < c) {
                    pick = Some((idx, cost, rows));
                }
            }
            let (idx, _, rows) = pick.unwrap();
            order.push(idx);
            mask |= 1 << idx;
            current_rows = rows;
        }
        order
    }

    /// (left leaf, right leaf, distinct count), in edge order.
    type Edges = Vec<(usize, usize, f64)>;

    /// A random join graph: 2–14 leaves whose rows come from a small set
    /// (so costs tie), and up to 2n edges between distinct leaves, a
    /// quarter of them doubled by a parallel edge the other way round; with
    /// few edges the graph falls apart into components.
    fn random_join_graph() -> BoxedStrategy<(Vec<f64>, Edges)> {
        const ROWS: [f64; 6] = [1.0, 5.0, 25.0, 150.0, 1500.0, 60000.0];
        // Not powers of two, so dividing in another order moves bits.
        const DISTINCT: [f64; 5] = [1.0, 3.0, 7.0, 25.0, 1000.0];
        BoxedStrategy::new(|rng| {
            let n = 2 + rng.below(13) as usize;
            let rows = (0..n).map(|_| ROWS[rng.below(6) as usize]).collect();
            let mut edges = Vec::new();
            for _ in 0..rng.below(2 * n as u64 + 1) {
                let l = rng.below(n as u64) as usize;
                let r = (l + 1 + rng.below(n as u64 - 1) as usize) % n;
                edges.push((l, r, DISTINCT[rng.below(5) as usize]));
                if rng.below(4) == 0 {
                    edges.push((r, l, DISTINCT[rng.below(5) as usize]));
                }
            }
            (rows, edges)
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Reading incidence lists divides by the same distinct counts in
        /// the same order as a pass over every edge: a step's cardinality
        /// is the same to the last bit, and both orderings choose what
        /// they chose before, ties included.
        #[test]
        fn incidence_lists_order_joins_like_the_all_edges_pass(graph in random_join_graph()) {
            let (rows, edges) = graph;
            let n = rows.len();
            let incident = JoinGraph::new(rows.clone(), &edges);
            // Every subset of up to ten leaves, an even spread beyond.
            let stride = (1usize << n).div_ceil(1 << 10);
            for mask in (0..1u64 << n).step_by(stride) {
                for idx in (0..n).filter(|idx| mask & (1 << idx) == 0) {
                    let (card, connected) = incident.join_rows(mask, 1234.5, idx);
                    let (all_card, all_connected) =
                        all_edges_join_rows(mask, 1 << idx, 1234.5, rows[idx], &edges);
                    prop_assert_eq!(card.to_bits(), all_card.to_bits());
                    prop_assert_eq!(connected, all_connected);
                }
            }
            prop_assert_eq!(incident.order_dp(), all_edges_dp(&rows, &edges));
            prop_assert_eq!(incident.order_greedy(), all_edges_greedy(&rows, &edges));
        }
    }
}
