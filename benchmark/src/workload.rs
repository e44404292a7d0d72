//! The four workloads and the operations of their rounds.
//!
//! Every workload submits the paper's six queries (Q3, Q5, Q7, Q8, Q9,
//! Q10). A *round* is a fixed multiset of operations sized to about
//! 150 ms on a quiet host; the seed only permutes it (and, for
//! `tenants_fold`, draws the tenants), so every run does the same work.
//! Scale factors are small on purpose: this host's slow phases are in the
//! memory system and hit a 100–200 MB working set harder than the
//! reference kernel, so a large federation cannot be normalised. What
//! large data costs is gated through the allocation counts instead.

use crate::stats::Rng;
use xdb_tpch::{TableDist, TpchQuery};

/// The paper's evaluation set, in its order; operations name a query by
/// its index here.
pub const QUERIES: [TpchQuery; 6] = TpchQuery::ALL;

/// Warm-up rounds, drawn from [`WARMUP_SEED`] whatever `--seed` says, so
/// that the learned cost profiles enter the measured rounds in one state.
pub const WARMUP_ROUNDS: usize = 10;
pub const WARMUP_SEED: u64 = 0x5eed;

/// Measured rounds at `--seconds` = [`NOMINAL_SECONDS`]; other values
/// scale the count, they do not cut a run off.
pub const NOMINAL_ROUNDS: usize = 100;
pub const NOMINAL_SECONDS: u64 = 20;

/// `tenants_fold`: scheduling window, windows per round, tenants.
pub const WINDOW: usize = 64;
pub const WINDOWS_PER_ROUND: usize = 4;
pub const TENANTS: usize = 64;
/// Copies of each query in one window: Q3 is the hot query (44 of 64,
/// with its share of the uniform 40% this is the 60%-hot mix of
/// `bench::tenants::submissions` as a fixed multiset).
const WINDOW_MIX: [usize; 6] = [44, 4, 4, 4, 4, 4];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `Xdb::submit` per operation.
    Submit,
    /// Operations go through `QueryServer::run` in windows, folding on.
    Session,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dist: TableDist,
    pub sf: f64,
    /// `Submit`: copies of each query in one round.
    pub copies: usize,
    /// Force every edge to be materialised (CTAS) instead of streamed.
    pub explicit: bool,
    pub mode: Mode,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "td1_exec",
        dist: TableDist::Td1,
        sf: 0.005,
        copies: 3,
        explicit: false,
        mode: Mode::Submit,
    },
    Workload {
        name: "td3_overhead",
        dist: TableDist::Td3,
        sf: 0.001,
        copies: 6,
        explicit: false,
        mode: Mode::Submit,
    },
    Workload {
        name: "td2_explicit",
        dist: TableDist::Td2,
        sf: 0.0025,
        copies: 4,
        explicit: true,
        mode: Mode::Submit,
    },
    Workload {
        name: "tenants_fold",
        dist: TableDist::Td1,
        sf: 0.002,
        copies: 0,
        explicit: false,
        mode: Mode::Session,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One operation: a query (index into [`QUERIES`]) and, for `Session`,
/// the tenant that submits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub query: usize,
    pub tenant: usize,
}

impl Workload {
    pub fn ops_per_round(&self) -> usize {
        match self.mode {
            Mode::Submit => self.copies * QUERIES.len(),
            Mode::Session => WINDOW * WINDOWS_PER_ROUND,
        }
    }

    /// Measured rounds for a `--seconds` value.
    pub fn rounds(&self, seconds: u64) -> usize {
        ((NOMINAL_ROUNDS as u64 * seconds) / NOMINAL_SECONDS).max(4) as usize
    }

    /// The operations of one round: a fresh permutation of the round's
    /// multiset. `Session` rounds permute each window on its own, so every
    /// window holds the same mix, and draw each tenant zipf-ish (the
    /// smaller of two uniform draws).
    pub fn round(&self, rng: &mut Rng) -> Vec<Op> {
        match self.mode {
            Mode::Submit => {
                let mut ops = multiset([self.copies; 6]);
                rng.shuffle(&mut ops);
                ops
            }
            Mode::Session => {
                let mut ops = Vec::with_capacity(self.ops_per_round());
                for _ in 0..WINDOWS_PER_ROUND {
                    let mut window = multiset(WINDOW_MIX);
                    rng.shuffle(&mut window);
                    for op in &mut window {
                        op.tenant = rng.below(TENANTS).min(rng.below(TENANTS));
                    }
                    ops.extend(window);
                }
                ops
            }
        }
    }
}

/// `copies[q]` operations of each query `q`, tenant 0, in query order.
fn multiset(copies: [usize; 6]) -> Vec<Op> {
    copies
        .iter()
        .enumerate()
        .flat_map(|(query, n)| std::iter::repeat_n(Op { query, tenant: 0 }, *n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(ops: &[Op]) -> [usize; 6] {
        let mut counts = [0usize; 6];
        for op in ops {
            counts[op.query] += 1;
        }
        counts
    }

    #[test]
    fn every_seed_does_the_same_work() {
        for w in &WORKLOADS {
            let a = w.round(&mut Rng::new(1));
            let b = w.round(&mut Rng::new(2));
            assert_eq!(a.len(), w.ops_per_round(), "{}", w.name);
            assert_eq!(b.len(), w.ops_per_round(), "{}", w.name);
            assert_eq!(counts(&a), counts(&b), "{}", w.name);
            assert_ne!(a, b, "{}: the seed permutes the round", w.name);
            assert_eq!(a, w.round(&mut Rng::new(1)), "{}", w.name);
        }
    }

    #[test]
    fn round_sizes_are_the_documented_ones() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(Workload::ops_per_round).collect();
        assert_eq!(sizes, vec![18, 36, 24, 256]);
        assert_eq!(WINDOW_MIX.iter().sum::<usize>(), WINDOW);
    }

    #[test]
    fn every_window_holds_the_same_mix() {
        let w = find("tenants_fold").unwrap();
        let ops = w.round(&mut Rng::new(9));
        for window in ops.chunks(WINDOW) {
            assert_eq!(counts(window), WINDOW_MIX);
            assert!(window.iter().all(|op| op.tenant < TENANTS));
        }
        // Zipf-ish: the lower half of the tenants submits most of the load.
        let low = ops.iter().filter(|op| op.tenant < TENANTS / 2).count();
        assert!(low * 10 > ops.len() * 6, "{low} of {}", ops.len());
    }

    #[test]
    fn seconds_scale_the_round_count() {
        let w = &WORKLOADS[0];
        assert_eq!(w.rounds(NOMINAL_SECONDS), NOMINAL_ROUNDS);
        assert_eq!(w.rounds(10), 50);
        assert_eq!(w.rounds(1), 5);
    }
}
