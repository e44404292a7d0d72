//! The command-line contract: what one run prints, for every workload,
//! against `BENCHMARK.json`; fixed `attempted` whatever the seed; refusal
//! to start under an `XDB_*` variable.

use std::path::Path;
use std::process::{Command, Output};
use xdb_obs::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_xdb-benchmark");

fn bench(workload: &str, seed: u64, trace: u8) -> Command {
    let mut cmd = Command::new(BIN);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        // Span files of traced runs go to <cwd>/benchmark/out.
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("XDB_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

fn result_of(output: &Output) -> Value {
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(result: &Value) -> Vec<(String, String)> {
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let spec = spec();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for w in &workloads {
        let mut attempted = Vec::new();
        for (seed, trace, section) in [
            (1, 0, "end_to_end"),
            (2, 0, "end_to_end"),
            (1, 1, "per_layer"),
        ] {
            let result = result_of(&bench(w, seed, trace).output().expect("runs"));
            assert_eq!(
                keys(&result),
                ["correct", "attempted", "failed", "metrics"],
                "{w}"
            );
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}");
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{w}"
            );
            assert_eq!(
                printed(&result),
                declared(&spec, section),
                "{w} --trace {trace}"
            );
            if trace == 0 {
                attempted.push(
                    result
                        .get("attempted")
                        .and_then(Value::as_f64)
                        .expect("attempted"),
                );
                for (name, _) in declared(&spec, section) {
                    let value = result.get("metrics").and_then(|m| m.get(&name));
                    let value = value.and_then(|m| m.get("value")).and_then(Value::as_f64);
                    assert!(value.expect("a number") > 0.0, "{w}/{name} is never 0");
                }
            }
        }
        assert_eq!(
            attempted[0], attempted[1],
            "{w}: attempted is fixed whatever the seed"
        );
        assert!(attempted[0] >= 1.0);
    }
}

#[test]
fn refuses_to_start_under_an_xdb_variable() {
    let output = bench("td3_overhead", 1, 0)
        .env("XDB_SEQUENTIAL", "1")
        .output()
        .expect("runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no result is printed");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("XDB_SEQUENTIAL"), "{stderr}");
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "td1_exec",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "td1_exec",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
        &["--workload", "td1_exec", "--seed", "1", "--seconds", "1"][..],
    ] {
        let output = Command::new(BIN).args(args).output().expect("runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
