//! Property test over the TD1 workload: a random TPC-H query executed
//! with a random transport chunk size must return exactly the relation
//! (and move exactly the encoded bytes) of the unchunked run — transport
//! morsels are unobservable end to end, not just codec-locally.

use proptest::prelude::*;
use xdb_bench::experiments::{onprem, CLOUD};
use xdb_core::{Xdb, XdbOptions};
use xdb_engine::relation::Relation;
use xdb_net::Purpose;
use xdb_obs::Telemetry;
use xdb_tpch::{TableDist, TpchQuery};

/// One TD1 run at the given chunk size: (result, raw bytes, encoded
/// bytes) over the pipelined + materialized edges.
fn run_td1(q: TpchQuery, chunk: usize) -> (Relation, u64, u64) {
    let e = onprem(TableDist::Td1, 0.002, &Telemetry::new_handle()).unwrap();
    e.cluster.ledger.clear();
    let xdb = Xdb::new(&e.cluster, &e.catalog)
        .with_client_node(CLOUD)
        .with_options(XdbOptions {
            stream_chunk_rows: chunk,
            ..Default::default()
        });
    let out = xdb.submit(q.sql()).unwrap();
    let raw = e.cluster.ledger.bytes_for(Purpose::InterDbmsPipeline)
        + e.cluster.ledger.bytes_for(Purpose::Materialization);
    let enc = e
        .cluster
        .ledger
        .snapshot()
        .iter()
        .filter(|t| {
            matches!(
                t.purpose,
                Purpose::InterDbmsPipeline | Purpose::Materialization
            )
        })
        .map(|t| t.encoded_bytes)
        .sum();
    (out.relation, raw, enc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn chunked_run_equals_unchunked(
        qi in 0usize..TpchQuery::ALL.len(),
        pick in 0usize..3,
    ) {
        let q = TpchQuery::ALL[qi];
        let chunk = [1usize, 7, 4096][pick];
        let (want, raw0, enc0) = run_td1(q, 0);
        let (got, raw, enc) = run_td1(q, chunk);
        // Bit-identical relation: same schema, same order, same values.
        prop_assert_eq!(&got.fields, &want.fields);
        prop_assert_eq!(got.columns(), want.columns());
        // Chunking must not change what the wire accounts for.
        prop_assert_eq!(raw, raw0);
        prop_assert_eq!(enc, enc0);
        prop_assert!(enc <= raw);
    }
}
