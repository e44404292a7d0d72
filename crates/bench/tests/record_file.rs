//! The reports are projections of the one query record: rendered from the
//! checked-in `BENCH_history/history.jsonl`, with no federation built,
//! `repro profile` and `repro calibrate --runs 1` print what a live run
//! prints. A fresh run's records are compared with ones another process
//! wrote, so a change that moves any figure either of them shows (a plan,
//! a phase time, a critical path, a cost bundle) fails here until the
//! baseline is re-recorded:
//! `rm -rf BENCH_history && repro --sf 0.002 --history BENCH_history profile`.

use xdb_bench::calibrate::{run_calibrate, CalibrateReport};
use xdb_bench::profiler::{profile_workload, render_table};
use xdb_obs::history::{load_history_dir, HistoryRecord};
use xdb_obs::Telemetry;
use xdb_tpch::{TableDist, TpchQuery};

/// The scale factor `BENCH_history/` was recorded at.
const SF: f64 = 0.002;

fn checked_in() -> Vec<HistoryRecord> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history");
    let records = load_history_dir(dir).unwrap();
    assert_eq!(records.len(), TpchQuery::ALL.len());
    records
}

#[test]
fn profile_renders_from_the_checked_in_records() {
    let table = render_table(SF, &checked_in());
    let live = profile_workload(SF, &Telemetry::new_handle()).unwrap();
    assert_eq!(table, render_table(SF, &live));
    assert!(table.starts_with("TD1 critical-path profile"), "{table}");
    assert!(table.contains("dominant"), "{table}");
    for q in TpchQuery::ALL {
        assert!(table.contains(&format!("\n{:<6} ", q.name())), "{table}");
    }
}

#[test]
fn calibrate_renders_from_the_checked_in_records() {
    let report = CalibrateReport::project(TableDist::Td1, SF, 1, &checked_in()).render();
    let live = run_calibrate(TableDist::Td1, SF, 1).unwrap().render();
    assert_eq!(report, live);
}
