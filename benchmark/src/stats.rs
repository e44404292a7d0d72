//! The harness's own arithmetic: quantiles, reference normalisation and a
//! seeded generator for the workload inputs.

/// Nearest-rank quantile of an ascending slice: the smallest element with
/// at least `q·n` elements at or below it. For n = 100 the 90th
/// percentile is element 90 of 100, which leaves exactly ten samples
/// beyond it — the highest percentile a 100-round run supports.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median (the lower middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Coefficient of variation in percent.
pub fn cv_pct(values: &[f64]) -> f64 {
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    100.0 * var.sqrt() / m
}

/// Express each round in reference-kernel runs. The kernel runs before
/// the first round and after every round, so `refs` has one element more
/// than `rounds`; round `i` is divided by the mean of the two kernel runs
/// that bracket it.
pub fn normalise(rounds: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(
        refs.len(),
        rounds.len() + 1,
        "one kernel run around each round"
    );
    rounds
        .iter()
        .zip(refs.windows(2))
        .map(|(round, pair)| round / ((pair[0] + pair[1]) / 2.0))
        .collect()
}

/// Sum that depends only on the multiset of values, not on their order,
/// so that a simulated-clock total reads the same whatever the seed.
pub fn order_free_sum(values: &[f64]) -> f64 {
    sorted(values).iter().sum()
}

/// xorshift64*: the workload generator. The program under test receives
/// only the inputs generated from it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Spread small seeds over the state; zero is the one bad state.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = quantile(&v, 0.9);
        assert_eq!(p90, 90.0);
        assert_eq!(v.iter().filter(|x| **x > p90).count(), 10);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn rounds_are_divided_by_their_bracketing_pair() {
        let rounds = [100.0, 300.0, 90.0];
        let refs = [10.0, 30.0, 30.0, 6.0];
        assert_eq!(normalise(&rounds, &refs), vec![5.0, 10.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "one kernel run around each round")]
    fn normalise_needs_both_brackets() {
        normalise(&[1.0, 2.0], &[1.0, 1.0]);
    }

    #[test]
    fn sum_ignores_order() {
        let a = [0.1, 0.7, 1e9, 0.3, 2.5e-3];
        let mut b = a;
        b.reverse();
        assert_eq!(order_free_sum(&a).to_bits(), order_free_sum(&b).to_bits());
    }

    #[test]
    fn shuffle_permutes_and_repeats_per_seed() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..50).collect::<Vec<u32>>());
    }
}
