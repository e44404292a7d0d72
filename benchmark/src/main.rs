//! `xdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the environment, a few ungated numbers and, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use xdb_benchmark::run::{self, Args, Metric, Report};
use xdb_benchmark::{host, workload};

const USAGE: &str =
    "usage: xdb-benchmark --workload <td1_exec|td3_overhead|td2_explicit|tenants_fold> \
--seed <n> --seconds <1..60> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value.as_str()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

fn print(report: &Report) {
    let mut env = String::from("{\"env\": {");
    for (i, (k, v)) in report.env.iter().enumerate() {
        if i > 0 {
            env.push_str(", ");
        }
        let _ = write!(env, "\"{k}\": \"{v}\"");
    }
    env.push_str("}}");
    println!("{env}");
    println!("{{\"extras\": {}}}", metrics_json(&report.extras));
    if let Some(path) = &report.span_file {
        println!("{{\"span_file\": \"{}\"}}", path.display());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Ten `XDB_*` variables switch library code paths; two result files
    // are comparable only if none was set.
    let set = host::xdb_variables();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with {} set: unset them first",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    match run::run(&args, start) {
        Ok(report) if report.metrics.iter().all(|m| m.value.is_finite()) => {
            print(&report);
            ExitCode::SUCCESS
        }
        Ok(report) => {
            let bad: Vec<&str> = report
                .metrics
                .iter()
                .filter(|m| !m.value.is_finite())
                .map(|m| m.name)
                .collect();
            eprintln!("no result: {} could not be measured", bad.join(", "));
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("no result: set-up failed: {e}");
            ExitCode::from(1)
        }
    }
}
