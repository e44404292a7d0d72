//! A workload owns its records: each record a runner returns, labels and
//! appends is the one its own submit returned, so workloads sharing a
//! federation and a telemetry handle neither stamp nor collect each
//! other's records.

use xdb_bench::experiments::{onprem, run_workload, Deployment};
use xdb_core::annotate::stable_hash_hex;
use xdb_core::XdbOptions;
use xdb_obs::{HistoryRecord, Telemetry};
use xdb_tpch::{TableDist, TpchQuery};

const SF: f64 = 0.002;

/// Two workloads on one TD1 federation. After a warm serial pass (warm,
/// so that planning costs the same), two threads released together each
/// run a labelled `run_workload` over a different query list, four rounds
/// of it; each gets exactly one record per submit of its own, in submit
/// order, with its own labels and `sql_fnv`s, and each record equals the
/// serial warm record of its query in every field but the query id. The
/// query ids all have three digits, so that the control messages, whose
/// DDL names the query, have their serial sizes.
#[test]
fn concurrent_workloads_own_their_records() {
    const ROUNDS: usize = 4;
    let env = onprem(TableDist::Td1, SF, &Telemetry::new_handle()).unwrap();
    let options = XdbOptions {
        learned_costs: false,
        ..Default::default()
    };
    while env.cluster.next_query_id() < 99 {}
    let lists = [
        [
            (TpchQuery::Q3, Deployment::Xdb),
            (TpchQuery::Q5, Deployment::Xdb),
            (TpchQuery::Q7, Deployment::Garlic),
        ],
        [
            (TpchQuery::Q8, Deployment::Xdb),
            (TpchQuery::Q9, Deployment::Presto(4)),
            (TpchQuery::Q10, Deployment::Xdb),
        ],
    ];
    let serial = lists.concat();
    run_workload(&env, &options, &serial, true).unwrap();
    let warm = run_workload(&env, &options, &serial, true).unwrap();
    let warm_record = |submit| {
        let at = serial.iter().position(|s| *s == submit).unwrap();
        &warm[at]
    };
    let workloads = lists.map(|list| list.repeat(ROUNDS));
    let start = std::sync::Barrier::new(workloads.len());
    let ran = std::thread::scope(|s| {
        let threads = workloads.each_ref().map(|submits| {
            s.spawn(|| {
                start.wait();
                run_workload(&env, &options, submits, true)
            })
        });
        threads.map(|t| t.join().unwrap().unwrap())
    });
    for (submits, records) in workloads.iter().zip(&ran) {
        assert_eq!(records.len(), submits.len(), "one record per submit");
        for (&(q, deployment), r) in submits.iter().zip(records) {
            let what = format!("{} on {}", q.name(), deployment.name());
            assert_eq!(r.label, q.name(), "{what}");
            assert_eq!(r.sql_fnv, stable_hash_hex(q.sql().as_bytes()), "{what}");
            let expected = HistoryRecord {
                query_id: r.query_id,
                ..warm_record((q, deployment)).clone()
            };
            assert!(*r == expected, "{what}: {r:?}\n!= {expected:?}");
        }
    }
    let ids = ran.iter().flatten().map(|r| r.query_id);
    assert!(ids.clone().all(|id| id < 1000));
    assert!(ids.filter(|&id| id > 0).count() == 4 * ROUNDS);
}
