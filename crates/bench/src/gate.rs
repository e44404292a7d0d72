//! Bench regression gate: re-run the deterministic simulated monitor
//! workload and compare it against the checked-in baseline
//! (`BENCH_monitor.json`), failing when any series regressed past its
//! threshold. Simulated monitor values are bit-deterministic, so the gate
//! defaults to 0.5% slack: any behavioural change that moves latency or
//! bytes must re-baseline explicitly. (Host time is gated elsewhere, by
//! `BENCHMARK.json`.)
//!
//! Driven by `repro gate` (see `scripts/bench_gate.sh`); all comparisons
//! treat *higher is worse* — every gated series is a latency or a byte
//! count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use xdb_obs::json;

/// Default slack for deterministic simulated monitor values (percent).
pub const MONITOR_THRESHOLD_PCT: f64 = 0.5;
/// Version of the monitor snapshot layout (`repro monitor --json`,
/// `BENCH_monitor.json`). The gate rejects mismatched-version baselines
/// instead of mis-parsing them. v2 added the engine-link profile
/// dimension (`onprem` / `geo`): rows carry a `"profile"` field and gate
/// keys read `profile/query/deployment/metric`. v3 added the per-codec
/// byte split (`.../codec_bytes/<codec>`) and the cost-model observatory
/// series (`.../cal_abs_err_pct`, `.../regret_ms` on XDB cells). v4 added
/// the learned-cost plan-flip share (`.../plan_flip_rate` on XDB cells):
/// each run's learned-cost plan compared against a static-cost re-plan of
/// the same SQL, so a pricing or feedback change that silently starts (or
/// stops) flipping plans fails the gate even when latency stays flat.
pub const MONITOR_SCHEMA_VERSION: u64 = 4;

/// One gated series.
#[derive(Debug, Clone)]
pub struct GateCheck {
    pub name: String,
    pub baseline: f64,
    pub current: f64,
    /// Relative change in percent; positive = slower / more bytes.
    pub delta_pct: f64,
    pub regressed: bool,
}

/// Outcome of comparing one measurement set against its baseline.
#[derive(Debug, Clone)]
pub struct GateReport {
    pub label: String,
    pub threshold_pct: f64,
    pub checks: Vec<GateCheck>,
    /// Baseline series missing from the current measurement — treated as
    /// failures so a silently dropped benchmark cannot pass the gate.
    pub missing: Vec<String>,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.checks.iter().all(|c| !c.regressed)
    }

    pub fn regressions(&self) -> Vec<&GateCheck> {
        self.checks.iter().filter(|c| c.regressed).collect()
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== gate: {} (threshold +{}%) ==",
            self.label, self.threshold_pct
        );
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{} {:<32} baseline {:>12.4}  current {:>12.4}  {:>+8.2}%",
                if c.regressed { "FAIL" } else { " ok " },
                c.name,
                c.baseline,
                c.current,
                c.delta_pct
            );
        }
        for m in &self.missing {
            let _ = writeln!(out, "FAIL {m:<32} missing from current measurement");
        }
        let _ = writeln!(
            out,
            "gate: {} — {}/{} series within +{}%{}",
            if self.passed() { "PASS" } else { "FAIL" },
            self.checks.iter().filter(|c| !c.regressed).count(),
            self.checks.len(),
            self.threshold_pct,
            if self.missing.is_empty() {
                String::new()
            } else {
                format!(", {} missing", self.missing.len())
            }
        );
        out
    }
}

/// Compare `current` against `baseline`: a series regresses when it grew
/// past `threshold_pct` percent. Series present only in `current` (newly
/// added benchmarks) pass silently; series present only in `baseline`
/// fail as missing.
pub fn compare(
    label: &str,
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    threshold_pct: f64,
) -> GateReport {
    let mut checks = Vec::new();
    let mut missing = Vec::new();
    for (name, &base) in baseline {
        let Some(&cur) = current.get(name) else {
            missing.push(name.clone());
            continue;
        };
        let delta_pct = if base.abs() > f64::EPSILON {
            100.0 * (cur - base) / base
        } else if cur.abs() > f64::EPSILON {
            f64::INFINITY
        } else {
            0.0
        };
        checks.push(GateCheck {
            name: name.clone(),
            baseline: base,
            current: cur,
            delta_pct,
            regressed: delta_pct > threshold_pct,
        });
    }
    GateReport {
        label: label.to_string(),
        threshold_pct,
        checks,
        missing,
    }
}

/// A monitor snapshot (`BENCH_monitor.json`): the workload shape it was
/// measured at and its gated series.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSnapshot {
    pub sf: f64,
    pub runs: usize,
    /// `(tenants, tenant_rounds)` of the multi-tenant workload, present
    /// when the snapshot gates `tenants/…` series.
    pub tenants: Option<(usize, usize)>,
    /// The gated series, `key -> value`.
    pub values: BTreeMap<String, f64>,
}

/// Parse a `BENCH_monitor.json`-shaped snapshot (as emitted by
/// [`crate::monitor::MonitorReport::to_json`]). Its shape is read
/// strictly: `sf` and `runs` are required, and so are `tenants` and
/// `tenant_rounds` when any `tenants/…` series is present; an error names
/// the missing or mistyped field.
pub fn parse_monitor_snapshot(text: &str) -> Result<MonitorSnapshot, String> {
    let value = json::parse(text)?;
    let version = value.u64("schema_version").map_err(|e| {
        format!(
            "snapshot: {e} (this build expects {MONITOR_SCHEMA_VERSION}); \
             re-baseline with `repro monitor --json`"
        )
    })?;
    if version != MONITOR_SCHEMA_VERSION {
        return Err(format!(
            "snapshot schema_version {version} (this build supports {MONITOR_SCHEMA_VERSION})"
        ));
    }
    let field = |e: String| format!("snapshot: {e}");
    let values: BTreeMap<String, f64> = value
        .members("values", "a number", json::Value::as_f64)
        .map_err(field)?
        .into_iter()
        .collect();
    if values.is_empty() {
        return Err("snapshot has an empty values object".to_string());
    }
    let count = |key: &str| value.u64(key).map(|n| n as usize).map_err(field);
    let tenants = if values.keys().any(|k| k.starts_with("tenants/")) {
        Some((count("tenants")?, count("tenant_rounds")?))
    } else {
        None
    };
    Ok(MonitorSnapshot {
        sf: value.f64("sf").map_err(field)?,
        runs: count("runs")?,
        tenants,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn passes_within_threshold_fails_beyond() {
        let base = map(&[("a", 10.0), ("b", 20.0)]);
        let cur = map(&[("a", 10.4), ("b", 29.0)]);
        let report = compare("t", &base, &cur, 50.0);
        assert!(report.passed(), "{}", report.render());
        let report = compare("t", &base, &cur, 5.0);
        assert!(!report.passed());
        let regs = report.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "b");
        assert!(report.render().contains("FAIL b"));
    }

    #[test]
    fn improvements_and_new_series_pass() {
        let base = map(&[("a", 10.0)]);
        let cur = map(&[("a", 4.0), ("brand_new", 99.0)]);
        let report = compare("t", &base, &cur, 0.5);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.checks.len(), 1);
    }

    #[test]
    fn missing_series_fail() {
        let base = map(&[("a", 10.0), ("gone", 5.0)]);
        let cur = map(&[("a", 10.0)]);
        let report = compare("t", &base, &cur, 50.0);
        assert!(!report.passed());
        assert_eq!(report.missing, vec!["gone".to_string()]);
    }

    #[test]
    fn parses_monitor_snapshot_format() {
        let text = r#"{"bench": "monitor", "schema_version": 4, "sf": 0.002, "runs": 2,
            "values": {"onprem/Q3/xdb/p50_ms": 12.5, "onprem/Q3/xdb/plan_flip_rate": 0.0}}"#;
        let m = parse_monitor_snapshot(text).unwrap();
        assert_eq!(m.values["onprem/Q3/xdb/p50_ms"], 12.5);
        assert_eq!((m.sf, m.runs, m.tenants), (0.002, 2, None));
        let empty = r#"{"schema_version": 4, "sf": 0.002, "runs": 2, "values": {}}"#;
        assert!(parse_monitor_snapshot(empty).is_err());
    }

    #[test]
    fn monitor_snapshot_schema_version_is_enforced() {
        // Missing version: pre-versioning baseline, rejected with a
        // re-baseline hint.
        let err = parse_monitor_snapshot(r#"{"values": {"a": 1}}"#).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        // Mismatched version: rejected instead of mis-parsed.
        let err =
            parse_monitor_snapshot(r#"{"schema_version": 99, "values": {"a": 1}}"#).unwrap_err();
        assert!(err.contains("99"), "{err}");
    }

    #[test]
    fn snapshot_shape_is_required() {
        let full = r#"{"schema_version": 4, "sf": 0.002, "runs": 2, "tenants": 8,
            "tenant_rounds": 2, "values": {"tenants/folded/p50_ms": 1.5}}"#;
        let m = parse_monitor_snapshot(full).unwrap();
        assert_eq!(m.tenants, Some((8, 2)));
        for (field, damaged) in [
            ("sf", full.replace("\"sf\": 0.002, ", "")),
            ("runs", full.replace("\"runs\": 2, ", "")),
            ("tenants", full.replace("\"tenants\": 8,", "")),
            ("tenant_rounds", full.replace("\"tenant_rounds\": 2, ", "")),
            ("sf", full.replace("0.002", "\"0.002\"")),
        ] {
            assert_ne!(damaged, full);
            let err = parse_monitor_snapshot(&damaged).unwrap_err();
            assert!(err.contains(&format!("{field:?}")), "{field}: {err}");
        }
        // Without tenant series the tenant shape is not needed.
        let monitor_only = r#"{"schema_version": 4, "sf": 0.002, "runs": 2,
            "values": {"onprem/Q3/xdb/p50_ms": 12.5}}"#;
        assert_eq!(parse_monitor_snapshot(monitor_only).unwrap().tenants, None);
    }

    #[test]
    fn monitor_roundtrips_through_gate() {
        let report =
            crate::monitor::run_monitor(0.002, 1, &xdb_obs::Telemetry::new_handle()).unwrap();
        let baseline = parse_monitor_snapshot(&report.to_json()).unwrap().values;
        let gate = compare("monitor", &baseline, &report.flat_values(), 0.5);
        assert!(gate.passed(), "{}", gate.render());
        assert_eq!(gate.checks.len(), baseline.len());
    }
}
