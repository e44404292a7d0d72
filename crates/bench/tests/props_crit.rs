//! Property test over the critical-path profiler: for any TD1 query, at
//! any transport chunk size, the critical-path latency attribution must
//! sum *exactly* to the query's
//! end-to-end simulated time (integer-nanosecond telescoping — no
//! epsilon), the steps must tile the window contiguously, and the whole
//! analysis must be bit-identical across those settings.

use proptest::prelude::*;
use xdb_bench::experiments::{onprem, CLOUD};
use xdb_core::{Xdb, XdbOptions};
use xdb_obs::critical::{critical_path, ns, CriticalPath};
use xdb_obs::Telemetry;
use xdb_tpch::{TableDist, TpchQuery};

/// One TD1 run; returns (end-to-end simulated ms, critical path).
fn run_td1(q: TpchQuery, chunk: usize) -> (f64, CriticalPath) {
    let e = onprem(TableDist::Td1, 0.002, &Telemetry::new_handle()).unwrap();
    e.cluster.ledger.clear();
    let xdb = Xdb::new(&e.cluster, &e.catalog)
        .with_client_node(CLOUD)
        .with_options(XdbOptions {
            stream_chunk_rows: chunk,
            ..Default::default()
        });
    let out = xdb.submit(q.sql()).unwrap();
    let crit = critical_path(&out.trace).expect("critical path");
    (out.breakdown.total_ms(), crit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn attribution_sums_exactly_to_end_to_end_time(
        qi in 0usize..TpchQuery::ALL.len(),
        cpick in 0usize..3,
    ) {
        let q = TpchQuery::ALL[qi];
        let chunk = [1usize, 4096, 0][cpick];
        let (total_ms, crit) = run_td1(q, chunk);
        // Exact integer equality: attribution tiles the window.
        prop_assert_eq!(crit.attributed_ns(), crit.total_ns);
        prop_assert_eq!(
            crit.attribution.iter().map(|a| a.ns).sum::<i64>(),
            crit.total_ns
        );
        prop_assert_eq!(crit.total_ns, ns(total_ms));
        // Steps are contiguous, gap-free, and start at the origin.
        prop_assert!(!crit.steps.is_empty());
        prop_assert_eq!(crit.steps[0].start_ns, 0);
        prop_assert_eq!(crit.steps.last().unwrap().end_ns, crit.total_ns);
        for w in crit.steps.windows(2) {
            prop_assert_eq!(w[0].end_ns, w[1].start_ns);
        }
        // The analysis itself is setting-invariant: the reference run
        // (unbounded chunks) produces the same steps and the same
        // attribution.
        let (_, reference) = run_td1(q, 0);
        prop_assert_eq!(&crit.steps, &reference.steps);
        prop_assert_eq!(
            format!("{:?}", crit.attribution),
            format!("{:?}", reference.attribution)
        );
    }
}
