//! Bad input on `repro`'s command line is a usage error: one `repro: …`
//! line on stderr that names the flag or the path, and exit status 2 —
//! never a panic (exit 101).

use std::process::Command;

/// Run `repro` with `args`; its exit code and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_input_is_a_usage_error_naming_the_flag_or_path() {
    let missing = std::env::temp_dir()
        .join(format!("repro_cli_{}", std::process::id()))
        .join("absent");
    let missing = missing.to_str().unwrap();
    let out_file = format!("{missing}/x.txt");
    let cases: &[(&[&str], &str)] = &[
        (&["--sf", "abc", "fig9"], "--sf takes a number, got \"abc\""),
        (&["--runs", "-1", "monitor"], "--runs takes a number"),
        (
            &["--tenants", "many", "tenants"],
            "--tenants takes a number",
        ),
        (&["--band", "x", "drift"], "--band takes a number"),
        (&["--flip-rate", "", "drift"], "--flip-rate takes a number"),
        (&["table2", "--sf"], "--sf takes a number"),
        (&["table2", "--out"], "--out takes a file path"),
        (&["--td", "4", "calibrate"], "--td takes 1|2|3, got \"4\""),
        (
            &["--log-level", "loud", "table2"],
            "unknown log level \"loud\"",
        ),
        (&["--out", &out_file, "table2"], &out_file),
        (
            &["--profiles", missing, "fig9"],
            "--profiles feeds `replay` only",
        ),
        (&["--profiles", missing], "--profiles feeds `replay` only"),
        (&["--profiles", missing, "replay"], missing),
        (&["--history", missing, "tenants"], "--history records"),
        (
            &["--history", missing, "table2", "table3"],
            "--history records",
        ),
        (&["--history", missing, "drift"], "--history records"),
        (&["--history", missing], "--history records"),
    ];
    for (args, needle) in cases {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("repro: "), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // A refused `--history` opened no directory.
    assert!(!std::path::Path::new(missing).exists(), "{missing}");
}

/// `calibrate` reports into `main`'s telemetry: its records land in
/// `--history`, a file that drift-compares clean against itself, and its
/// events in `--log`.
#[test]
fn calibrate_records_a_history_that_drift_reads() {
    let dir = std::env::temp_dir().join(format!("repro_cli_calibrate_{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    let log = format!("{dir}/events.jsonl");
    let (code, stderr) = repro(&[
        "--sf",
        "0.002",
        "--history",
        dir,
        "--log",
        &log,
        "calibrate",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let history = std::fs::read_to_string(format!("{dir}/history.jsonl")).unwrap();
    assert!(!history.is_empty());
    assert!(!std::fs::read_to_string(&log).unwrap().is_empty());
    let (code, stderr) = repro(&["drift", "--baseline", dir, "--current", dir]);
    assert_eq!(code, Some(0), "{stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// One run wires every export flag to its file: the Prometheus text, the
/// monitor JSON, the event log, the Chrome trace and the two tenant digests
/// are written, non-empty, and parse; the digests of the folded and the
/// unfolded arm are equal. (What the files say is held in process by the
/// `monitor`, `tenants` and `experiments` unit tests.)
#[test]
fn one_run_writes_every_export() {
    use xdb_obs::json::{self, Value};
    let dir = std::env::temp_dir().join(format!("repro_cli_exports_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (code, stderr) = repro(&[
        "--sf",
        "0.002",
        "--runs",
        "2",
        "--metrics",
        &path("m.prom"),
        "--json",
        &path("m.json"),
        "--log",
        &path("events.jsonl"),
        "--digest",
        &path("tn"),
        "--trace",
        &path("t.json"),
        "--out",
        &path("report.txt"),
        "monitor",
        "tenants",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let read = |name: &str| {
        let text = std::fs::read_to_string(path(name)).unwrap();
        assert!(!text.trim().is_empty(), "{name} is empty");
        text
    };
    read("report.txt");
    // Prometheus text: `# TYPE` comments and `series value` samples.
    for line in read("m.prom").lines() {
        let sample = line.rsplit_once(' ').map(|(_, v)| v.parse::<f64>());
        assert!(
            line.starts_with("# TYPE ") || matches!(sample, Some(Ok(_))),
            "m.prom: {line}"
        );
    }
    for name in ["m.json", "t.json"] {
        json::parse(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    let levels: Vec<String> = read("events.jsonl")
        .lines()
        .map(|line| {
            let event = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let level = event.get("level").and_then(Value::as_str);
            level.expect(line).to_string()
        })
        .collect();
    assert!(levels.iter().any(|l| l == "info"), "{levels:?}");
    assert_eq!(read("tn.folded.txt"), read("tn.unfolded.txt"));
    std::fs::remove_dir_all(&dir).unwrap();
}
