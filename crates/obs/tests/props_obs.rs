//! Property tests for the log-bucketed histogram: quantiles must be
//! monotone and bounded by the observed range, and the cumulative buckets
//! must cover every observation.

use proptest::prelude::*;
use xdb_obs::Histogram;

/// Dyadic values (multiples of 1/4), up to 256 of them.
fn dyadic_values() -> BoxedStrategy<Vec<f64>> {
    prop::collection::vec((0u32..4096).prop_map(|v| v as f64 / 4.0), 0..256).boxed()
}

proptest! {
    #[test]
    fn quantiles_monotone_and_bounded(
        values in prop::collection::vec(0.0f64..1.0e6, 1..256),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let mut h = Histogram::new();
        for v in &values {
            h.observe(*v);
        }
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(
            h.quantile(lo) <= h.quantile(hi),
            "q({lo}) = {} > q({hi}) = {}",
            h.quantile(lo),
            h.quantile(hi)
        );
        // Every quantile is clamped into the observed range.
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(h.quantile(0.0) >= min);
        prop_assert!(h.quantile(1.0) <= max);
        prop_assert_eq!(h.count, values.len() as u64);
    }

    #[test]
    fn cumulative_buckets_cover_count(values in dyadic_values()) {
        let mut h = Histogram::new();
        for v in &values {
            h.observe(*v);
        }
        let cum = h.cumulative_buckets();
        // Cumulative counts are non-decreasing and end at `count`.
        let mut prev = 0u64;
        for (_, c) in &cum {
            prop_assert!(*c >= prev);
            prev = *c;
        }
        if !values.is_empty() {
            prop_assert_eq!(prev, h.count);
        }
    }
}
