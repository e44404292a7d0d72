//! Core half of the cost-model observatory: join the annotator's Eq. 1–3
//! placement decisions (predicted) against the transfer ledger and trace
//! counters of the finished run (observed). The record types, error
//! arithmetic, and aggregation live in [`xdb_obs::costmodel`]; this module
//! owns everything that needs the cluster — topology pricing, engine
//! profiles, and the side-effect-free calibration factors.
//!
//! Purely observational: the join reads already-final state (decisions,
//! the script-ordered ledger slice this query appended, trace counters)
//! and never writes metrics, spans, or ledger entries — so enabling it
//! cannot perturb any deterministic observable.

use crate::annotate::PlacementDecision;
use crate::calibration::Calibration;
use crate::cost::movement_cost_split;
use xdb_engine::cluster::Cluster;
use xdb_net::{params, Movement, NodeId, Purpose, Transfer};
use xdb_obs::costmodel::{CandidateObs, CostObservation, DecisionObs, EdgeJoin};

fn movement_label(m: Movement) -> &'static str {
    match m {
        Movement::Implicit => "implicit",
        Movement::Explicit => "explicit",
    }
}

fn movement_purpose(m: Movement) -> Purpose {
    match m {
        Movement::Implicit => Purpose::InterDbmsPipeline,
        Movement::Explicit => Purpose::Materialization,
    }
}

/// Dominant codec of an observed edge by encoded bytes (lexicographically
/// first name on ties — `codec_bytes` order is deterministic, but the key
/// should not depend on it).
fn dominant_codec(t: &Transfer) -> String {
    let mut best: Option<(&str, u64)> = None;
    for (name, bytes) in &t.codec_bytes {
        let better = match best {
            None => true,
            Some((bn, bb)) => *bytes > bb || (*bytes == bb && *name < bn),
        };
        if better {
            best = Some((name, *bytes));
        }
    }
    best.map(|(n, _)| n.to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// Join one query's placement decisions against the ledger records it
/// appended (`fresh` — script order, hence deterministic) and its
/// per-engine statement work. Each predicted movement claims the first
/// unclaimed fresh record with matching `(from, to, purpose)`.
pub(crate) fn build_cost_observation(
    cluster: &Cluster,
    decisions: &[PlacementDecision],
    fresh: &[Transfer],
    statements: &[(String, f64)],
) -> CostObservation {
    if decisions.is_empty() {
        return CostObservation::default();
    }
    let cal = Calibration::analytic(cluster);
    let profile = |n: &NodeId| {
        cluster
            .engine(n.as_str())
            .map(|e| e.profile.clone())
            .unwrap_or_else(|_| xdb_engine::EngineProfile::postgres())
    };
    let mut claimed = vec![false; fresh.len()];
    let mut obs = CostObservation::default();
    for (i, d) in decisions.iter().enumerate() {
        let chosen = &d.chosen;
        let consumer = profile(&chosen.dbms);
        let mut chosen_marked = false;
        let mut best_rejected: Option<f64> = None;
        let candidates: Vec<CandidateObs> = d
            .candidates
            .iter()
            .map(|c| {
                let picked = !chosen_marked
                    && c.dbms == chosen.dbms
                    && c.left_move == chosen.left_move
                    && c.right_move == chosen.right_move;
                if picked {
                    chosen_marked = true;
                } else {
                    best_rejected = Some(match best_rejected {
                        Some(b) if b <= c.cost => b,
                        _ => c.cost,
                    });
                }
                CandidateObs {
                    dbms: c.dbms.as_str().to_string(),
                    left_move: movement_label(c.left_move).to_string(),
                    right_move: movement_label(c.right_move).to_string(),
                    predicted_ms: c.cost,
                    wire_left_ms: c.components.wire_left_ms,
                    wire_right_ms: c.components.wire_right_ms,
                    move_left_ms: c.components.move_left_ms,
                    move_right_ms: c.components.move_right_ms,
                    exec_ms: c.components.exec_ms,
                    startup_ms: c.components.startup_ms,
                    calib_factor: cal.factor(c.dbms.as_str()).unwrap_or(1.0),
                    chosen: picked,
                }
            })
            .collect();
        let chosen_cand = candidates.iter().find(|c| c.chosen);

        // Join the chosen movements against the ledger: one expected edge
        // per input that is not already local to the chosen engine.
        let sides = [
            (&d.left, chosen.left_move, true),
            (&d.right, chosen.right_move, false),
        ];
        let mut edges: Vec<EdgeJoin> = Vec::new();
        // Observed decision cost: predicted compute terms + movement terms
        // re-priced with the observed wire (encoded bytes, actual rows).
        let mut observed_ms = chosen_cand.map_or(0.0, |c| c.exec_ms + c.startup_ms);
        for (side, movement, is_left) in sides {
            if side.dbms == chosen.dbms {
                continue;
            }
            let purpose = movement_purpose(movement);
            let hit = fresh.iter().enumerate().position(|(j, t)| {
                !claimed[j] && t.purpose == purpose && t.from == side.dbms && t.to == chosen.dbms
            });
            let pred_wire_ms = chosen_cand.map_or_else(
                || {
                    cluster.topology.transfer_ms(
                        &side.dbms,
                        &chosen.dbms,
                        side.bytes.max(0.0) as u64,
                        consumer.protocol_overhead,
                    )
                },
                |c| {
                    if is_left {
                        c.wire_left_ms
                    } else {
                        c.wire_right_ms
                    }
                },
            );
            let mut edge = EdgeJoin {
                from: side.dbms.as_str().to_string(),
                to: chosen.dbms.as_str().to_string(),
                movement: movement_label(movement).to_string(),
                engine: chosen.dbms.as_str().to_string(),
                codec: "none".to_string(),
                pred_rows: side.rows.max(0.0) as u64,
                pred_bytes: side.bytes.max(0.0) as u64,
                pred_wire_ms,
                ..Default::default()
            };
            match hit {
                Some(j) => {
                    claimed[j] = true;
                    let t = &fresh[j];
                    edge.obs_rows = t.rows;
                    edge.obs_bytes = t.bytes;
                    edge.obs_encoded_bytes = t.encoded_bytes;
                    // Same Eq. 2–3 arithmetic as the prediction, fed the
                    // observed encoded bytes and row count.
                    let (obs_wire, obs_move) = movement_cost_split(
                        &cluster.topology,
                        &side.dbms,
                        &chosen.dbms,
                        &consumer,
                        profile(&side.dbms).startup_ms,
                        t.rows as f64,
                        t.encoded_bytes as f64,
                        movement,
                        None,
                    );
                    edge.obs_wire_ms = obs_wire;
                    edge.codec = dominant_codec(t);
                    edge.matched = true;
                    observed_ms += obs_move;
                    obs.pred_transfer_ms += edge.pred_wire_ms;
                    obs.obs_transfer_ms += obs_wire;
                }
                None => {
                    // Edge collapsed (e.g. folded away): keep the model's
                    // own movement term so observed stays comparable.
                    observed_ms += chosen_cand.map_or(0.0, |c| {
                        if is_left {
                            c.move_left_ms
                        } else {
                            c.move_right_ms
                        }
                    });
                }
            }
            edges.push(edge);
        }

        let consult_ms = d.paid_consults as f64 * params::CONSULT_ROUNDTRIP_MS;
        let predicted_ms = chosen_cand.map_or(0.0, |c| c.predicted_ms);
        let regret_ms = match best_rejected {
            Some(b) if chosen_cand.is_some() => observed_ms - b,
            _ => 0.0,
        };
        obs.pred_compute_ms +=
            chosen_cand.map_or(0.0, |c| (c.exec_ms + c.startup_ms) * c.calib_factor);
        obs.consult_ms += consult_ms;
        obs.decisions.push(DecisionObs {
            index: i as u64,
            dbms: chosen.dbms.as_str().to_string(),
            consult_ms,
            predicted_ms,
            observed_ms,
            best_rejected_ms: best_rejected.unwrap_or(0.0),
            regret_ms,
            candidates,
            edges,
        });
    }
    obs.obs_compute_ms = statements.iter().map(|(_, ms)| ms).sum();
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Xdb;
    use crate::global::GlobalCatalog;
    use crate::scenario::{self, ScenarioConfig};

    fn setup() -> (Cluster, GlobalCatalog) {
        scenario::build(ScenarioConfig::default()).unwrap()
    }

    #[test]
    fn observation_joins_decisions_to_ledger_edges() {
        let (cluster, catalog) = setup();
        let xdb = Xdb::new(&cluster, &catalog);
        let out = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
        let cost = &out.cost;
        assert!(
            !cost.is_empty(),
            "example query has cross-database decisions"
        );
        for d in &cost.decisions {
            // Exactly one candidate carries the chosen flag, and its
            // predicted total is the component sum, bit-exact.
            let chosen: Vec<_> = d.candidates.iter().filter(|c| c.chosen).collect();
            assert_eq!(chosen.len(), 1, "decision {}", d.index);
            let c = chosen[0];
            assert_eq!(
                c.predicted_ms,
                c.exec_ms + c.move_left_ms + c.move_right_ms + c.startup_ms
            );
            assert_eq!(d.predicted_ms, c.predicted_ms);
            for e in &d.edges {
                assert!(e.matched, "edge {}->{} unmatched", e.from, e.to);
                assert!(e.obs_encoded_bytes > 0);
                assert!(e.obs_encoded_bytes <= e.obs_bytes);
                assert_ne!(e.codec, "none");
                // Encoded bytes cost less wire time than the raw estimate
                // unless the estimator underestimated badly.
                assert!(e.obs_wire_ms > 0.0);
            }
            // A rejected candidate exists (two inputs, two movements), so
            // regret is live.
            assert!(d.best_rejected_ms > 0.0);
            assert_eq!(d.regret_ms, d.observed_ms - d.best_rejected_ms);
        }
        assert!(cost.obs_compute_ms > 0.0);
        assert!(cost.pred_compute_ms > 0.0);
        assert!(cost.pred_transfer_ms > 0.0);
        assert!(cost.obs_transfer_ms > 0.0);
    }

    #[test]
    fn consult_totals_equal_ann_phase_exactly() {
        let (cluster, catalog) = setup();
        let xdb = Xdb::new(&cluster, &catalog);
        let out = xdb.submit(scenario::EXAMPLE_QUERY).unwrap();
        let total: f64 = out.cost.decisions.iter().map(|d| d.consult_ms).sum();
        assert_eq!(total, out.cost.consult_ms);
        assert_eq!(total, out.breakdown.ann_ms);
    }

    #[test]
    fn empty_decisions_yield_empty_observation() {
        let (cluster, _) = setup();
        let obs = build_cost_observation(&cluster, &[], &[], &[("cdb".to_string(), 5.0)]);
        assert!(obs.is_empty());
        assert_eq!(obs.obs_compute_ms, 0.0);
    }
}
