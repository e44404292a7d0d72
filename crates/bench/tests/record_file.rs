//! The reports are projections of the one query record: rendered from the
//! checked-in `BENCH_history/history.jsonl`, with no federation built,
//! `repro profile` and `repro calibrate --runs 1` print what a live run
//! prints. A fresh run's records are compared with ones another process
//! wrote, so a change that moves any figure either of them shows (a plan,
//! a phase time, a critical path, a cost bundle) fails here until the
//! baseline is re-recorded:
//! `rm -rf BENCH_history && repro --sf 0.002 --history BENCH_history profile`.
//! The drift, calibrate and replay reports are smoke-tested here as well:
//! they read and render those records.

use xdb_bench::calibrate::{run_calibrate, CalibrateReport};
use xdb_bench::drift::{compare, compare_dirs_with, DEFAULT_NOISE_PCT};
use xdb_bench::experiments::fig09;
use xdb_bench::profiler::{profile_workload, render_table};
use xdb_bench::replay::run_replay;
use xdb_core::CostProfiles;
use xdb_obs::history::{load_history_dir, HistoryRecord};
use xdb_obs::Telemetry;
use xdb_tpch::{TableDist, TpchQuery};

/// The scale factor `BENCH_history/` was recorded at.
const SF: f64 = 0.002;

const CHECKED_IN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_history");

fn checked_in() -> Vec<HistoryRecord> {
    let records = load_history_dir(CHECKED_IN).unwrap();
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
    let live = run_calibrate(TableDist::Td1, SF, 1, &Telemetry::new_handle())
        .unwrap()
        .render();
    assert_eq!(report, live);
}

/// The checked-in drift baseline stays readable: a stricter reader or a
/// schema change that strands `BENCH_history/` fails here, not only in the
/// bench gate (which drift-compares a fresh profile against it).
#[test]
fn the_checked_in_history_shows_no_drift_against_itself() {
    let report = compare_dirs_with(CHECKED_IN, CHECKED_IN, DEFAULT_NOISE_PCT, None).unwrap();
    assert!(report.passed(), "{}", report.render());
    assert!(report.render().contains("no drift"), "{}", report.render());
}

/// `repro --runs 2 calibrate` renders the predicted-vs-observed error
/// tables per engine, codec and edge shape and the per-query placement
/// regret table.
#[test]
fn calibrate_renders_every_table() {
    let report = run_calibrate(TableDist::Td1, SF, 2, &Telemetry::new_handle())
        .unwrap()
        .render();
    for heading in [
        "cost-model observatory",
        "prediction error by engine",
        "by codec",
        "by edge shape",
        "per-query placement regret",
    ] {
        assert!(report.contains(heading), "{heading}: {report}");
    }
}

/// A fresh fig9 history (learned costs on, so later runs may re-plan),
/// written to a history directory as `repro --history dir/ fig9` writes
/// it and read back from the file, feeds `replay`'s learned arm, which
/// keeps result rows bit-identical whatever it flips, and the history
/// compares clean against itself under a 25% plan-flip budget.
#[test]
fn a_fig9_history_feeds_replay_and_shows_no_drift() {
    let dir = std::env::temp_dir().join(format!("xdb_record_file_fig9_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = Telemetry::new_handle();
    telemetry.history.enable_dir(&dir).unwrap();
    for td in TableDist::ALL {
        fig09(td, SF, &telemetry).unwrap();
    }
    let records = load_history_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(records.len(), 3 * 4 * TpchQuery::ALL.len());
    let profiles = CostProfiles::from_history(&records);
    assert!(!profiles.is_empty());
    let replay = run_replay(
        TableDist::Td1,
        SF,
        Some(&profiles),
        "fig9",
        &Telemetry::new_handle(),
    )
    .unwrap();
    let text = replay.render();
    assert!(text.contains("plan flips:"), "{text}");
    assert!(
        text.contains("result rows: digests equal across arms"),
        "{text}"
    );
    let drift = compare(&records, &records, DEFAULT_NOISE_PCT, Some(25.0));
    assert!(drift.passed(), "{}", drift.render());
    assert!(drift.render().contains("no drift"), "{}", drift.render());
}
