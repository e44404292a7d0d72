//! The cross-database placement/movement cost model (Equations 1–3 of
//! Section IV-B2).
//!
//! For a binary operator `o` whose inputs carry different annotations, the
//! optimizer solves
//!
//! ```text
//! argmin  cost(o, a) + cost(o_l --x_l--> o, a) + cost(o_r --x_r--> o, a)
//! a, x_l, x_r
//! ```
//!
//! with `a` pruned to the two input annotations (the `|R|+|S| >
//! max(|R|,|S|)` argument of the paper) unless pruning is disabled for the
//! ablation study.
//!
//! The paper leaves the dependence of `cost(o, a)` on the movement type
//! implicit; we make it explicit (see DESIGN.md §3): a join consuming a
//! *pipelined* foreign input pays the wrapper's per-row fetch overhead γ,
//! while a join over a *materialized* local input enjoys the
//! local-optimization discount β (statistics, hash build on a real table).
//! Without this refinement explicit movement would never be chosen,
//! contradicting the paper's own optimal plans (Fig 5a).

use crate::profiles::CostProfiles;
use xdb_engine::error::{EngineError, Result};
use xdb_engine::profile::EngineProfile;
use xdb_net::{Movement, NodeId, Topology};

/// Local-optimization discount for joins over materialized inputs.
pub const MATERIALIZED_JOIN_DISCOUNT: f64 = 0.9;

/// One candidate input of a cross-database operator.
#[derive(Debug, Clone)]
pub struct InputSide {
    pub dbms: NodeId,
    /// Estimated rows flowing out of this input.
    pub rows: f64,
    /// Estimated bytes flowing out of this input.
    pub bytes: f64,
}

/// A resolved placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub dbms: NodeId,
    /// Movement for the left input (`Implicit` when it stays local).
    pub left_move: Movement,
    /// Movement for the right input.
    pub right_move: Movement,
    pub cost: f64,
}

/// Cost of moving `rows`/`bytes` from `src` into `a` and consuming them
/// there via movement `x` (Equations 2–3), with the pure wire time broken
/// out: returns `(wire_ms, total_ms)`. The wire term is what the
/// observatory re-prices with observed encoded bytes; the remainder is
/// per-row engine overhead.
///
/// With `learned = None` — or when the store has no sample at any
/// granularity for the edge — this is **bit-exactly** the static model:
/// the learned branches are skipped entirely, not multiplied by 1.0.
/// Otherwise:
///
/// - the wire term prices the *learned encoded* byte volume
///   (`bytes × wire_ratio(src→a/x)`) instead of the raw estimate;
/// - an explicit move's serialized producer start-up is scaled by the
///   producer engine's learned compute factor.
#[allow(clippy::too_many_arguments)] // mirrors Eq. 2–3's parameter list
pub(crate) fn movement_cost_split(
    topology: &Topology,
    src: &NodeId,
    a: &NodeId,
    a_profile: &EngineProfile,
    src_startup_ms: f64,
    rows: f64,
    bytes: f64,
    x: Movement,
    learned: Option<&CostProfiles>,
) -> (f64, f64) {
    if src == a {
        return (0.0, 0.0);
    }
    let wire = match learned.and_then(|p| p.wire_ratio(src.as_str(), a.as_str(), x)) {
        Some(r) => topology.transfer_ms(
            src,
            a,
            (bytes.max(0.0) * r) as u64,
            a_profile.protocol_overhead,
        ),
        None => topology.transfer_ms(src, a, bytes.max(0.0) as u64, a_profile.protocol_overhead),
    };
    let total = match x {
        // Implicit: wire cost + per-row wrapper fetch overhead γ at the
        // consumer. The producer's start-up overlaps with the consumer's
        // pipeline, so it is not charged here.
        Movement::Implicit => wire + rows * a_profile.foreign_row_cost_ms,
        // Explicit: wire cost + scanCost — writing the materialized copy
        // and reading it back once (Eq. 3's scan of the relation at `a`).
        // Materialization serializes the producer's query *before* the
        // consumer runs, so the producer's start-up lands on the critical
        // path.
        Movement::Explicit => {
            let src_startup = match learned.and_then(|p| p.compute_factor(src.as_str())) {
                Some(f) => src_startup_ms * f,
                None => src_startup_ms,
            };
            wire + src_startup
                + rows * a_profile.write_cost_ms
                + rows * a_profile.cpu_tuple_cost_ms * crate::cost::SCAN_WEIGHT
        }
    };
    (wire, total)
}

/// Weight of re-scanning a materialized relation (mirrors
/// `xdb_engine::exec::weights::SCAN`).
pub const SCAN_WEIGHT: f64 = 0.2;

/// Cost of evaluating the join at `a`, given how each input arrives.
pub(crate) fn join_exec_cost(
    a_profile: &EngineProfile,
    left_rows: f64,
    right_rows: f64,
    out_rows: f64,
    any_materialized: bool,
) -> f64 {
    let work =
        (left_rows + right_rows + out_rows) * a_profile.cpu_tuple_cost_ms * a_profile.olap_factor;
    if any_materialized {
        work * MATERIALIZED_JOIN_DISCOUNT
    } else {
        work
    }
}

/// Eq. 1–3 cost split of one candidate, in simulated milliseconds.
/// `exec_ms + move_left_ms + move_right_ms + startup_ms` equals
/// `CandidateCost::cost` exactly (same floating-point additions, same
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostComponents {
    /// Pure wire time of the left input (`topology.transfer_ms` over the
    /// estimated raw bytes); zero when the input is local to `a`.
    pub wire_left_ms: f64,
    pub wire_right_ms: f64,
    /// Full Eq. 2–3 movement cost of the left input (wire + per-row
    /// wrapper/write overhead); includes `wire_left_ms`.
    pub move_left_ms: f64,
    pub move_right_ms: f64,
    /// Eq. 1 join execution cost at `a`.
    pub exec_ms: f64,
    /// Consumer engine start-up charged by placing the stage at `a`.
    pub startup_ms: f64,
}

/// One fully-costed `(a, x_l, x_r)` option considered by
/// [`decide_placement_with_profiles`] — kept for observability: the trace
/// records what the optimizer weighed, not just what it chose.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCost {
    pub dbms: NodeId,
    pub left_move: Movement,
    pub right_move: Movement,
    pub cost: f64,
    /// Per-component split of `cost`, for the cost-model observatory.
    pub components: CostComponents,
}

/// Solve Equation 1 for one cross-database binary operator: the chosen
/// placement and every costed option in evaluation order, for
/// trace/EXPLAIN output.
///
/// `candidates` is the annotation search space: the two input annotations
/// under the paper's pruning, or every DBMS when pruning is disabled.
/// `profiles` resolves a node to its engine's profile. Consulting is the
/// caller's: one probe per candidate engine, memoised by the consultation
/// cache, however many `(a, x_l, x_r)` options that candidate offers.
///
/// Every candidate is re-priced through the `learned` cost profiles. With
/// `learned = None` (or an empty/irrelevant store) every arithmetic
/// operation is identical to the static path — the bit-exact contract
/// behind `XdbOptions::learned_costs = false`.
///
/// Learned re-pricing per candidate `a`:
/// - movement terms via [`movement_cost_split`] (encoded-byte
///   wire estimates, calibrated producer start-up);
/// - Eq. 1 exec and consumer start-up scaled by `a`'s learned compute
///   factor (observed statement work per predicted compute unit).
///
/// The `CostComponents` breakdown stores the *scaled* values, so the
/// components-sum-to-`cost` invariant holds bit-exactly in both modes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_placement_with_profiles<'p>(
    topology: &Topology,
    profiles: &dyn Fn(&NodeId) -> Result<&'p EngineProfile>,
    left: &InputSide,
    right: &InputSide,
    out_rows: f64,
    candidates: &[NodeId],
    force_movement: Option<Movement>,
    learned: Option<&CostProfiles>,
) -> Result<(Placement, Vec<CandidateCost>)> {
    let movements: &[Movement] = match force_movement {
        Some(Movement::Implicit) => &[Movement::Implicit],
        Some(Movement::Explicit) => &[Movement::Explicit],
        None => &[Movement::Implicit, Movement::Explicit],
    };
    let (left_startup_ms, right_startup_ms) = (
        profiles(&left.dbms)?.startup_ms,
        profiles(&right.dbms)?.startup_ms,
    );
    let mut best: Option<Placement> = None;
    let mut costed: Vec<CandidateCost> = Vec::new();
    for a in candidates {
        let a_profile = profiles(a)?;
        // Per input: if it is already local to `a`, it neither moves nor
        // offers a movement choice.
        let left_opts: &[Movement] = if &left.dbms == a {
            &[Movement::Implicit]
        } else {
            movements
        };
        let right_opts: &[Movement] = if &right.dbms == a {
            &[Movement::Implicit]
        } else {
            movements
        };
        for &xl in left_opts {
            for &xr in right_opts {
                let (wire_l, move_l) = movement_cost_split(
                    topology,
                    &left.dbms,
                    a,
                    a_profile,
                    left_startup_ms,
                    left.rows,
                    left.bytes,
                    xl,
                    learned,
                );
                let (wire_r, move_r) = movement_cost_split(
                    topology,
                    &right.dbms,
                    a,
                    a_profile,
                    right_startup_ms,
                    right.rows,
                    right.bytes,
                    xr,
                    learned,
                );
                let any_materialized = (xl == Movement::Explicit && &left.dbms != a)
                    || (xr == Movement::Explicit && &right.dbms != a);
                let exec_static =
                    join_exec_cost(a_profile, left.rows, right.rows, out_rows, any_materialized);
                // Placing the operator at `a` pulls another pipeline stage
                // onto that engine: its per-query start-up is part of
                // cost(o, a). This is what steers plans away from
                // high-start-up engines (Hive) in the heterogeneous setup
                // (Fig 10). A learned compute factor calibrates both the
                // exec and start-up terms to `a`'s observed statement work.
                let (exec, startup) = match learned.and_then(|p| p.compute_factor(a.as_str())) {
                    Some(f) => (exec_static * f, a_profile.startup_ms * f),
                    None => (exec_static, a_profile.startup_ms),
                };
                let cost = exec + move_l + move_r + startup;
                costed.push(CandidateCost {
                    dbms: a.clone(),
                    left_move: xl,
                    right_move: xr,
                    cost,
                    components: CostComponents {
                        wire_left_ms: wire_l,
                        wire_right_ms: wire_r,
                        move_left_ms: move_l,
                        move_right_ms: move_r,
                        exec_ms: exec,
                        startup_ms: startup,
                    },
                });
                let better = match &best {
                    Some(b) => cost < b.cost - 1e-12,
                    None => true,
                };
                if better {
                    best = Some(Placement {
                        dbms: a.clone(),
                        left_move: xl,
                        right_move: xr,
                        cost,
                    });
                }
            }
        }
    }
    let placement =
        best.ok_or_else(|| EngineError::Catalog("no placement candidate to price".into()))?;
    Ok((placement, costed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sum the optimizer compares, in its order of additions.
    fn total(c: &CostComponents) -> f64 {
        c.exec_ms + c.move_left_ms + c.move_right_ms + c.startup_ms
    }
    use std::sync::LazyLock;
    use xdb_net::Topology;

    static POSTGRES: LazyLock<EngineProfile> = LazyLock::new(EngineProfile::postgres);

    /// Every node is a PostgreSQL engine.
    fn postgres(_: &NodeId) -> Result<&'static EngineProfile> {
        Ok(&POSTGRES)
    }

    fn setup() -> (Topology, EngineProfile) {
        (
            Topology::lan(&["db1", "db2", "db3"]),
            EngineProfile::postgres(),
        )
    }

    fn side(dbms: &str, rows: f64) -> InputSide {
        InputSide {
            dbms: NodeId::new(dbms),
            rows,
            bytes: rows * 50.0,
        }
    }

    /// The static arm: no learned profiles.
    fn decide_static(
        topology: &Topology,
        profiles: &dyn Fn(&NodeId) -> Result<&'static EngineProfile>,
        left: &InputSide,
        right: &InputSide,
        out_rows: f64,
        candidates: &[NodeId],
        force_movement: Option<Movement>,
    ) -> (Placement, Vec<CandidateCost>) {
        decide_placement_with_profiles(
            topology,
            profiles,
            left,
            right,
            out_rows,
            candidates,
            force_movement,
            None,
        )
        .unwrap()
    }

    #[test]
    fn local_input_costs_nothing_to_move() {
        let (topo, p) = setup();
        let c = movement_cost_split(
            &topo,
            &NodeId::new("db1"),
            &NodeId::new("db1"),
            &p,
            p.startup_ms,
            1e6,
            5e7,
            Movement::Implicit,
            None,
        )
        .1;
        assert_eq!(c, 0.0);
    }

    #[test]
    fn explicit_costs_more_to_move_than_implicit_for_small_inputs() {
        let (topo, p) = setup();
        let (a, b) = (NodeId::new("db1"), NodeId::new("db2"));
        let i = movement_cost_split(
            &topo,
            &a,
            &b,
            &p,
            p.startup_ms,
            1_000.0,
            50_000.0,
            Movement::Implicit,
            None,
        )
        .1;
        let e = movement_cost_split(
            &topo,
            &a,
            &b,
            &p,
            p.startup_ms,
            1_000.0,
            50_000.0,
            Movement::Explicit,
            None,
        )
        .1;
        assert!(e > i);
    }

    #[test]
    fn placement_moves_small_side_to_big_side() {
        let (topo, _) = setup();
        let profiles = postgres;
        let small = side("db1", 1_000.0);
        let big = side("db2", 1_000_000.0);
        let (placement, costed) = decide_static(
            &topo,
            &profiles,
            &small,
            &big,
            1_000_000.0,
            &[small.dbms.clone(), big.dbms.clone()],
            None,
        );
        // Moving the small side to db2 is cheaper than moving the big one.
        assert_eq!(placement.dbms.as_str(), "db2");
        assert_eq!(placement.right_move, Movement::Implicit); // local side
                                                              // a=db1: right moves (2 options); a=db2: left moves (2 options) —
                                                              // the paper's four options per cross-database operation (Sec VI-E).
        assert_eq!(costed.len(), 4);
    }

    #[test]
    fn explicit_chosen_when_moved_side_tiny_vs_huge_local_join() {
        // Materialization discount on a huge join outweighs the write cost
        // of a tiny moved input.
        let (topo, _) = setup();
        let profiles = postgres;
        let moved = side("db1", 10_000.0);
        let kept = side("db2", 10_000_000.0);
        let placement = decide_static(
            &topo,
            &profiles,
            &moved,
            &kept,
            10_000_000.0,
            &[moved.dbms.clone(), kept.dbms.clone()],
            None,
        )
        .0;
        assert_eq!(placement.dbms.as_str(), "db2");
        assert_eq!(
            placement.left_move,
            Movement::Explicit,
            "tiny side should be materialized next to the huge join"
        );
    }

    #[test]
    fn force_movement_restricts_options() {
        let (topo, _) = setup();
        let profiles = postgres;
        let l = side("db1", 10_000.0);
        let r = side("db2", 10_000_000.0);
        let forced = decide_static(
            &topo,
            &profiles,
            &l,
            &r,
            1e7,
            &[l.dbms.clone(), r.dbms.clone()],
            Some(Movement::Implicit),
        )
        .0;
        assert_eq!(forced.left_move, Movement::Implicit);
        assert_eq!(forced.right_move, Movement::Implicit);
    }

    #[test]
    fn candidate_components_sum_to_cost_exactly() {
        let (topo, _) = setup();
        let profiles = postgres;
        let l = side("db1", 100_000.0);
        let r = side("db2", 200_000.0);
        let (_, costed) = decide_static(
            &topo,
            &profiles,
            &l,
            &r,
            200_000.0,
            &[l.dbms.clone(), r.dbms.clone()],
            None,
        );
        assert!(!costed.is_empty());
        for c in &costed {
            // Bit-exact: the breakdown is the same additions in the same
            // order as the total the optimizer compared.
            assert_eq!(total(&c.components), c.cost);
            assert!(c.components.wire_left_ms <= c.components.move_left_ms);
            assert!(c.components.wire_right_ms <= c.components.move_right_ms);
            // The moved side's wire term is exactly the topology's price
            // for the estimated raw bytes.
            if c.dbms != l.dbms {
                let p = profiles(&c.dbms).unwrap();
                let expect =
                    topo.transfer_ms(&l.dbms, &c.dbms, l.bytes as u64, p.protocol_overhead);
                assert_eq!(c.components.wire_left_ms, expect);
            }
        }
    }

    #[test]
    fn empty_profiles_match_static_costs_bit_exactly() {
        let (topo, _) = setup();
        let profiles = postgres;
        let l = side("db1", 100_000.0);
        let r = side("db2", 200_000.0);
        let cands = [l.dbms.clone(), r.dbms.clone()];
        let empty = CostProfiles::default();
        let (p_static, c_static) = decide_static(&topo, &profiles, &l, &r, 2e5, &cands, None);
        let (p_learned, c_learned) = decide_placement_with_profiles(
            &topo,
            &profiles,
            &l,
            &r,
            2e5,
            &cands,
            None,
            Some(&empty),
        )
        .unwrap();
        assert_eq!(p_static, p_learned);
        assert_eq!(c_static, c_learned);
    }

    #[test]
    fn learned_wire_ratio_reprices_the_moved_side() {
        let (topo, _) = setup();
        let l = side("db1", 100_000.0);
        let r = side("db2", 200_000.0);
        // History: db1's exports compress 4x on the wire; saturate the
        // prior so the smoothed factor sits at the observed mean.
        let mut learned = CostProfiles::default();
        for _ in 0..1000 {
            learned.observe_wire("db1", "db2", Movement::Implicit, 0.25);
        }
        let p = EngineProfile::postgres();
        let (wire_static, _) = movement_cost_split(
            &topo,
            &l.dbms,
            &r.dbms,
            &p,
            p.startup_ms,
            l.rows,
            l.bytes,
            Movement::Implicit,
            None,
        );
        let (wire_learned, _) = movement_cost_split(
            &topo,
            &l.dbms,
            &r.dbms,
            &p,
            p.startup_ms,
            l.rows,
            l.bytes,
            Movement::Implicit,
            Some(&learned),
        );
        assert!(
            wire_learned < wire_static * 0.5,
            "{wire_learned} vs {wire_static}"
        );
        // An edge the store never saw by shape, link, or consuming engine
        // still falls back to the global ratio — learned compression is a
        // federation-wide signal until finer-grained samples arrive.
        let (wire_other, _) = movement_cost_split(
            &topo,
            &r.dbms,
            &NodeId::new("db3"),
            &p,
            p.startup_ms,
            r.rows,
            r.bytes,
            Movement::Implicit,
            Some(&learned),
        );
        let (wire_other_static, _) = movement_cost_split(
            &topo,
            &r.dbms,
            &NodeId::new("db3"),
            &p,
            p.startup_ms,
            r.rows,
            r.bytes,
            Movement::Implicit,
            None,
        );
        assert!(wire_other < wire_other_static, "{wire_other}");
    }

    #[test]
    fn asymmetric_wire_ratios_flip_the_placement_side() {
        let (topo, _) = setup();
        let profiles = postgres;
        // Statically the tie goes to moving the (slightly) smaller left
        // side into db2.
        let l = side("db1", 90_000.0);
        let r = side("db2", 100_000.0);
        let cands = [l.dbms.clone(), r.dbms.clone()];
        let (static_placement, _) = decide_static(&topo, &profiles, &l, &r, 1e5, &cands, None);
        assert_eq!(static_placement.dbms.as_str(), "db2");
        // Learned: db1→db2 traffic barely compresses while db2→db1
        // compresses 10x (e.g. dictionary-coded strings), so moving the
        // *right* side is actually cheaper.
        let mut learned = CostProfiles::default();
        for _ in 0..1000 {
            learned.observe_wire("db1", "db2", Movement::Implicit, 1.0);
            learned.observe_wire("db1", "db2", Movement::Explicit, 1.0);
            learned.observe_wire("db2", "db1", Movement::Implicit, 0.1);
            learned.observe_wire("db2", "db1", Movement::Explicit, 0.1);
        }
        let (learned_placement, costed) = decide_placement_with_profiles(
            &topo,
            &profiles,
            &l,
            &r,
            1e5,
            &cands,
            None,
            Some(&learned),
        )
        .unwrap();
        assert_eq!(learned_placement.dbms.as_str(), "db1");
        // Exact breakdowns.
        for c in &costed {
            assert_eq!(total(&c.components), c.cost);
        }
    }

    #[test]
    fn learned_compute_factor_scales_exec_and_startup() {
        let (topo, _) = setup();
        let profiles = postgres;
        let l = side("db1", 100_000.0);
        let r = side("db2", 200_000.0);
        let cands = [l.dbms.clone(), r.dbms.clone()];
        let mut learned = CostProfiles::default();
        for _ in 0..1000 {
            learned.observe_compute("db2", 1.8);
        }
        let (_, c_static) = decide_static(&topo, &profiles, &l, &r, 2e5, &cands, None);
        let (_, c_learned) = decide_placement_with_profiles(
            &topo,
            &profiles,
            &l,
            &r,
            2e5,
            &cands,
            None,
            Some(&learned),
        )
        .unwrap();
        let f = learned.compute_factor("db2").unwrap();
        assert!(f > 1.7, "{f}");
        for (s, c) in c_static.iter().zip(&c_learned) {
            assert_eq!(total(&c.components), c.cost);
            if c.dbms.as_str() == "db2" {
                assert!((c.components.exec_ms - s.components.exec_ms * f).abs() < 1e-9);
                assert!((c.components.startup_ms - s.components.startup_ms * f).abs() < 1e-9);
            } else {
                // db1 was never observed: untouched.
                assert_eq!(c.components.exec_ms, s.components.exec_ms);
                assert_eq!(c.components.startup_ms, s.components.startup_ms);
            }
        }
    }

    #[test]
    fn empty_candidate_set_is_an_error() {
        // `allowed_placements: Some(vec![])` leaves nothing to place on.
        let (topo, _) = setup();
        let (l, r) = (side("db1", 10.0), side("db2", 10.0));
        let decided =
            decide_placement_with_profiles(&topo, &postgres, &l, &r, 10.0, &[], None, None);
        assert_eq!(
            decided.unwrap_err(),
            EngineError::Catalog("no placement candidate to price".into())
        );
    }

    #[test]
    fn third_party_candidate_is_worse_than_input_annotations() {
        // The pruning argument: moving both R and S to a third DBMS always
        // transfers more than moving one into the other (uniform network).
        let (topo, _) = setup();
        let profiles = postgres;
        let l = side("db1", 100_000.0);
        let r = side("db2", 200_000.0);
        let all = [NodeId::new("db1"), NodeId::new("db2"), NodeId::new("db3")];
        let placement = decide_static(&topo, &profiles, &l, &r, 200_000.0, &all, None).0;
        assert_ne!(placement.dbms.as_str(), "db3");
    }
}
