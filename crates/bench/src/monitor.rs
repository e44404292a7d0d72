//! `repro monitor` — the fleet workload monitor.
//!
//! Runs the six-query TPC-H workload N times under every deployment
//! (XDB, Garlic, Presto-4, Sclera) against a TD1 federation per
//! engine-link profile (on-premise LAN and geo-distributed WAN) and
//! aggregates the runs into profile × query × deployment cells: latency
//! quantiles (p50/p95/p99), bytes moved over the wire, consultation-cache
//! hit rate, and the live-delegation-object high-water mark per engine.
//! Three renderings: a text dashboard, a Prometheus text exposition, and a
//! JSON export (the latter doubles as the regression-gate baseline, see
//! [`crate::gate`]).
//!
//! The report is a projection ([`MonitorReport::project`]) of the history
//! records the runs wrote, plus three inputs a record does not hold: the
//! static-cost plan fingerprint of each (profile, query), the engines'
//! live-object high-water marks, and the fleet's Prometheus exposition.
//! Every number is taken off the simulated clock and the deterministic
//! telemetry registry, so the whole report is bit-identical across
//! repeated invocations, whatever threads the host lends.

use crate::experiments::{env, pg, run_workload, Deployment};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use xdb_core::annotate::{plan_fingerprint, stable_hash_hex};
use xdb_core::XdbOptions;
use xdb_engine::error::Result;
use xdb_net::Scenario;
use xdb_obs::{json, Histogram, HistoryRecord, Metric, MetricRegistry, Telemetry};
use xdb_tpch::{TableDist, TpchQuery};

/// Deployments, in dashboard order.
pub const DEPLOYMENTS: [Deployment; 4] = [
    Deployment::Xdb,
    Deployment::Garlic,
    Deployment::Presto(4),
    Deployment::Sclera,
];

/// Engine-link profiles the monitor covers, in dashboard order. The
/// on-premise LAN is the regime most of the reproduction runs in; the
/// geo-distributed profile (high-latency / low-bandwidth WAN links, see
/// [`Scenario::GeoDistributed`]) is transfer-bound, where the streamed
/// morsel edges matter most — keeping it in the gate
/// baseline protects that regime from regressions.
pub const PROFILES: [(&str, Scenario); 2] = [
    ("onprem", Scenario::OnPremise),
    ("geo", Scenario::GeoDistributed),
];

/// One dashboard cell: a (profile, query, deployment) triple aggregated
/// over N runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorRow {
    pub profile: &'static str,
    pub query: &'static str,
    pub deployment: String,
    pub runs: u64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Mean raw (uncompressed) bytes moved per run, by the record's one
    /// rule ([`HistoryRecord::moved_bytes`]): between DBMSes (XDB) or
    /// into and through the mediator (Garlic/Presto/Sclera).
    pub mean_bytes: f64,
    /// Mean encoded bytes actually sent over the wire after the
    /// `net::wire` columnar codec — what the transfer-time model charged.
    pub mean_encoded_bytes: f64,
    /// Consultation-cache hit rate over the probes this cell issued.
    pub cache_hit_rate: f64,
    /// Mean encoded bytes per run split by wire codec, over every edge of
    /// the run's record (codec name → bytes).
    pub codec_bytes: Vec<(String, f64)>,
    /// Mean |predicted vs observed wire-time error| in percent over the
    /// cost-model observatory's matched edges (XDB cells only; mediators
    /// make no Eq. 1–3 placement decisions).
    pub cal_abs_err_pct: f64,
    /// Mean positive placement regret per run in simulated ms (XDB cells
    /// only): observed cost of the chosen plan beyond the model's best
    /// rejected candidate.
    pub regret_ms: f64,
    /// Share of this cell's runs whose learned-cost plan differs from the
    /// static-cost plan for the same SQL (XDB cells only).
    /// Flips are expected as profiles accrue — the gate's job is to catch
    /// the *rate* moving, which means pricing or feedback changed.
    pub plan_flip_rate: f64,
}

/// Aggregated monitor output plus the registries behind it.
pub struct MonitorReport {
    pub sf: f64,
    pub runs: usize,
    pub rows: Vec<MonitorRow>,
    /// Per-engine high-water mark of the `ddl.objects_live` gauge over the
    /// whole workload — how many delegation artifacts were ever live at
    /// once on each node.
    pub objects_live_hwm: Vec<(String, f64)>,
    /// Prometheus exposition of the monitor's own series
    /// (`monitor.latency_ms{profile,query,deployment}`, …) followed by the
    /// fleet-wide telemetry captured during the workload.
    prometheus: String,
}

/// What one monitor workload observed: the input of
/// [`MonitorReport::project`].
pub struct MonitorRuns {
    pub sf: f64,
    pub runs: usize,
    /// Each profile's history records, in submit order.
    pub records: Vec<(&'static str, Vec<HistoryRecord>)>,
    /// The static-cost plan fingerprint of each (profile, query name).
    pub static_fingerprints: BTreeMap<(&'static str, &'static str), String>,
    pub objects_live_hwm: Vec<(String, f64)>,
    pub fleet_prometheus: String,
}

/// Run the monitor workload. Every profile's federation reports into
/// `fleet`, so the fleet rendering and the live-object high-water marks
/// cover the whole workload.
pub(crate) fn run_workloads(sf: f64, runs: usize, fleet: &Arc<Telemetry>) -> Result<MonitorRuns> {
    let mut envs = Vec::new();
    for (pname, scenario) in PROFILES {
        envs.push((pname, env(TableDist::Td1, sf, scenario, &pg(), fleet)?));
    }
    let mut records = Vec::new();
    let mut static_fingerprints = BTreeMap::new();
    for (pname, e) in &envs {
        let mut profile = Vec::new();
        for q in TpchQuery::ALL {
            for dep in DEPLOYMENTS {
                for _ in 0..runs {
                    let submit = [(q, dep)];
                    profile.extend(run_workload(e, &XdbOptions::default(), &submit, false)?);
                    if dep != Deployment::Xdb {
                        continue;
                    }
                    // Did learned pricing change the plan? Re-plan the same
                    // SQL with the kill switch thrown. Planning runs no DDL,
                    // but its consults fill the cache the next runs read, so
                    // it stays here, after each XDB run.
                    let static_xdb = e.xdb(XdbOptions {
                        learned_costs: false,
                        ..Default::default()
                    });
                    let (static_plan, _, _, _) = static_xdb.plan(q.sql())?;
                    static_fingerprints.insert((*pname, q.name()), plan_fingerprint(&static_plan));
                }
            }
        }
        records.push((*pname, profile));
    }
    let mut nodes = envs[0].1.cluster.node_names();
    nodes.sort();
    let objects_live_hwm = nodes
        .into_iter()
        .map(|n| {
            let hwm = fleet
                .metrics
                .high_water("ddl.objects_live", &[("engine", &n)]);
            (n, hwm)
        })
        .collect();
    Ok(MonitorRuns {
        sf,
        runs,
        records,
        static_fingerprints,
        objects_live_hwm,
        fleet_prometheus: fleet.metrics.render_prometheus(),
    })
}

/// Run the monitor workload and project its report.
pub fn run_monitor(sf: f64, runs: usize, fleet: &Arc<Telemetry>) -> Result<MonitorReport> {
    Ok(MonitorReport::project(&run_workloads(sf, runs, fleet)?))
}

impl MonitorReport {
    /// The report of a monitor workload, a function of its records and
    /// the other observations in `runs`. The `monitor.*` series are filled
    /// record by record in submit order, so the registry holds what
    /// recording each run as it finished would have. A record is placed
    /// in its cell by the query its `sql_fnv` hashes and by its
    /// `deployment`.
    pub fn project(runs: &MonitorRuns) -> MonitorReport {
        let queries: Vec<(String, TpchQuery)> = TpchQuery::ALL
            .into_iter()
            .map(|q| (stable_hash_hex(q.sql().as_bytes()), q))
            .collect();
        let query_of = |r: &HistoryRecord| {
            queries
                .iter()
                .find(|(fnv, _)| *fnv == r.sql_fnv)
                .map(|(_, q)| q.name())
        };
        let registry = MetricRegistry::new();
        for (pname, records) in &runs.records {
            for r in records {
                let Some(query) = query_of(r) else { continue };
                let labels = [
                    ("profile", *pname),
                    ("query", query),
                    ("deployment", r.deployment.as_str()),
                ];
                let (moved, encoded) = r.moved_bytes();
                registry.observe("monitor.latency_ms", &labels, r.total_ms);
                registry.observe("monitor.bytes_moved", &labels, moved as f64);
                registry.observe("monitor.encoded_bytes_moved", &labels, encoded as f64);
                registry.counter_add("monitor.runs", &labels, 1.0);
                registry.counter_add("monitor.cache_hits", &labels, r.consult_hits as f64);
                registry.counter_add("monitor.cache_misses", &labels, r.consult_misses as f64);
                for (codec, bytes) in r.codec_bytes() {
                    let labels = [
                        ("profile", *pname),
                        ("query", query),
                        ("deployment", r.deployment.as_str()),
                        ("codec", codec),
                    ];
                    registry.counter_add("monitor.codec_bytes", &labels, bytes as f64);
                }
                if r.deployment == "xdb" {
                    registry.observe(
                        "monitor.cal_abs_err_pct",
                        &labels,
                        r.cost.wire_abs_err_pct(),
                    );
                    registry.observe("monitor.regret_ms", &labels, r.cost.regret_ms());
                    // 1 when learned pricing moved the plan off the
                    // static-cost one, else 0 (also with no static plan).
                    let flipped = runs
                        .static_fingerprints
                        .get(&(*pname, query))
                        .is_some_and(|fp| *fp != r.fingerprint);
                    registry.observe("monitor.plan_flip", &labels, flipped as u64 as f64);
                }
            }
        }

        let mut rows = Vec::new();
        for (pname, records) in &runs.records {
            for q in TpchQuery::ALL {
                for dep in DEPLOYMENTS {
                    let deployment = dep.name();
                    let labels = [
                        ("profile", *pname),
                        ("query", q.name()),
                        ("deployment", deployment.as_str()),
                    ];
                    let histogram = |name: &str| match registry.get(name, &labels) {
                        Some(Metric::Histogram(h)) => h,
                        _ => Histogram::default(),
                    };
                    let latency = histogram("monitor.latency_ms");
                    let mean = |name: &str| histogram(name).mean();
                    let hits = registry.value("monitor.cache_hits", &labels);
                    let probes = hits + registry.value("monitor.cache_misses", &labels);
                    // Which codecs a cell used is in its records alone.
                    let mut codec_sums: BTreeMap<&str, f64> = BTreeMap::new();
                    let cell = records
                        .iter()
                        .filter(|r| query_of(r) == Some(q.name()) && r.deployment == deployment);
                    for (codec, bytes) in cell.flat_map(HistoryRecord::codec_bytes) {
                        *codec_sums.entry(codec).or_insert(0.0) += bytes as f64;
                    }
                    rows.push(MonitorRow {
                        profile: pname,
                        query: q.name(),
                        deployment: deployment.clone(),
                        runs: latency.count,
                        p50_ms: latency.quantile(0.50),
                        p95_ms: latency.quantile(0.95),
                        p99_ms: latency.quantile(0.99),
                        mean_bytes: mean("monitor.bytes_moved"),
                        mean_encoded_bytes: mean("monitor.encoded_bytes_moved"),
                        cache_hit_rate: if probes > 0.0 { hits / probes } else { 0.0 },
                        codec_bytes: codec_sums
                            .into_iter()
                            .map(|(codec, sum)| (codec.to_string(), sum / latency.count as f64))
                            .collect(),
                        cal_abs_err_pct: mean("monitor.cal_abs_err_pct"),
                        regret_ms: mean("monitor.regret_ms"),
                        plan_flip_rate: mean("monitor.plan_flip"),
                    });
                }
            }
        }
        MonitorReport {
            sf: runs.sf,
            runs: runs.runs,
            rows,
            objects_live_hwm: runs.objects_live_hwm.clone(),
            prometheus: registry.render_prometheus() + &runs.fleet_prometheus,
        }
    }

    /// The text dashboard.
    pub fn render_dashboard(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== fleet monitor: TD1 sf {}, {} run(s) per deployment ==",
            self.sf, self.runs
        );
        let _ = writeln!(
            out,
            "{:<7} {:<6} {:<10} {:>4} {:>12} {:>12} {:>12} {:>12} {:>10} {:>7} {:>10} {:>8} {:>10}",
            "profile",
            "query",
            "deploy",
            "runs",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "moved KB",
            "wire KB",
            "ratio",
            "cache hit",
            "calerr%",
            "regret ms"
        );
        let mut raw_total = 0.0f64;
        let mut enc_total = 0.0f64;
        let mut codec_totals: BTreeMap<&str, f64> = BTreeMap::new();
        for r in &self.rows {
            let ratio = if r.mean_encoded_bytes > 0.0 {
                r.mean_bytes / r.mean_encoded_bytes
            } else {
                0.0
            };
            raw_total += r.mean_bytes;
            enc_total += r.mean_encoded_bytes;
            for (codec, bytes) in &r.codec_bytes {
                *codec_totals.entry(codec).or_insert(0.0) += bytes * r.runs as f64;
            }
            let _ = writeln!(
                out,
                "{:<7} {:<6} {:<10} {:>4} {:>12.3} {:>12.3} {:>12.3} {:>12.1} {:>10.1} {:>6.2}x {:>9.1}% {:>8.1} {:>10.3}",
                r.profile,
                r.query,
                r.deployment,
                r.runs,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
                r.mean_bytes / 1e3,
                r.mean_encoded_bytes / 1e3,
                ratio,
                100.0 * r.cache_hit_rate,
                r.cal_abs_err_pct,
                r.regret_ms
            );
        }
        if enc_total > 0.0 {
            let _ = writeln!(
                out,
                "wire codec: {:.1} KB raw -> {:.1} KB encoded ({:.2}x compression)",
                raw_total / 1e3,
                enc_total / 1e3,
                raw_total / enc_total
            );
        }
        if !codec_totals.is_empty() {
            let mut line = String::from("codec split (all wire edges):");
            for (codec, bytes) in &codec_totals {
                let _ = write!(line, " {codec}={:.1}KB", bytes / 1e3);
            }
            let _ = writeln!(out, "{line}");
        }
        let mut hwm_line = String::from("live delegation objects (high-water):");
        let mut max = 0.0f64;
        for (node, hwm) in &self.objects_live_hwm {
            let _ = write!(hwm_line, " {node}={hwm}");
            max = max.max(*hwm);
        }
        let _ = writeln!(out, "{hwm_line}  [fleet max {max}]");
        out
    }

    /// Prometheus text exposition: the monitor's aggregation series
    /// followed by the fleet-wide telemetry captured during the workload.
    pub fn render_prometheus(&self) -> String {
        self.prometheus.clone()
    }

    /// Deterministic scalar values for the regression gate, keyed
    /// `profile/query/deployment/metric` (the snapshot's
    /// `schema_version` is [`crate::gate::MONITOR_SCHEMA_VERSION`]).
    pub fn flat_values(&self) -> BTreeMap<String, f64> {
        let mut v = BTreeMap::new();
        for r in &self.rows {
            let cell = format!("{}/{}/{}", r.profile, r.query, r.deployment);
            let mut gated = vec![
                ("p50_ms".to_string(), r.p50_ms),
                ("mean_bytes".to_string(), r.mean_bytes),
                ("mean_enc_bytes".to_string(), r.mean_encoded_bytes),
            ];
            for (codec, bytes) in &r.codec_bytes {
                gated.push((format!("codec_bytes/{codec}"), *bytes));
            }
            if r.deployment == "xdb" {
                gated.push(("cal_abs_err_pct".to_string(), r.cal_abs_err_pct));
                gated.push(("regret_ms".to_string(), r.regret_ms));
                gated.push(("plan_flip_rate".to_string(), r.plan_flip_rate));
            }
            for (metric, value) in gated {
                v.insert(format!("{cell}/{metric}"), value);
            }
        }
        v
    }

    /// JSON export; also the [`crate::gate`] baseline format
    /// (`BENCH_monitor.json`).
    pub fn to_json(&self) -> String {
        self.to_json_with(&[], &BTreeMap::new())
    }

    /// [`MonitorReport::to_json`] with extra top-level numeric fields and
    /// extra gate series spliced into `"values"` — how the multi-tenant
    /// admission series ([`crate::tenants`]) ride the monitor baseline.
    pub fn to_json_with(
        &self,
        extra_fields: &[(&str, f64)],
        extra_values: &BTreeMap<String, f64>,
    ) -> String {
        let rows = self.rows.iter().map(|r| {
            json::object([
                ("profile", r.profile.into()),
                ("query", r.query.into()),
                ("deployment", r.deployment.as_str().into()),
                ("runs", r.runs.into()),
                ("p50_ms", r.p50_ms.into()),
                ("p95_ms", r.p95_ms.into()),
                ("p99_ms", r.p99_ms.into()),
                ("mean_bytes", r.mean_bytes.into()),
                ("mean_enc_bytes", r.mean_encoded_bytes.into()),
                ("cache_hit_rate", r.cache_hit_rate.into()),
                ("codec_bytes", numbers(&r.codec_bytes)),
                ("cal_abs_err_pct", r.cal_abs_err_pct.into()),
                ("regret_ms", r.regret_ms.into()),
                ("plan_flip_rate", r.plan_flip_rate.into()),
            ])
        });
        let mut values = self.flat_values();
        values.extend(extra_values.iter().map(|(k, v)| (k.clone(), *v)));
        let mut doc = vec![
            ("bench", "monitor".into()),
            ("schema_version", crate::gate::MONITOR_SCHEMA_VERSION.into()),
            ("workload", "TD1".into()),
            ("sf", self.sf.into()),
            ("runs", (self.runs as u64).into()),
        ];
        doc.extend(extra_fields.iter().map(|(k, v)| (*k, (*v).into())));
        doc.push(("rows", json::Value::Array(rows.collect())));
        doc.push(("objects_live_hwm", numbers(&self.objects_live_hwm)));
        doc.push((
            "values",
            json::object(values.iter().map(|(k, v)| (k.as_str(), (*v).into()))),
        ));
        let mut out = json::object(doc).to_json();
        out.push('\n');
        out
    }
}

/// A JSON object of named numbers, in order.
fn numbers(members: &[(String, f64)]) -> json::Value {
    json::object(members.iter().map(|(k, v)| (k.as_str(), (*v).into())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_obs::history::parse_history_jsonl;

    const TEST_SF: f64 = 0.002;

    #[test]
    fn monitor_covers_all_cells() {
        let report = run_monitor(TEST_SF, 2, &Telemetry::new_handle()).unwrap();
        assert_eq!(
            report.rows.len(),
            PROFILES.len() * TpchQuery::ALL.len() * DEPLOYMENTS.len()
        );
        for r in &report.rows {
            assert_eq!(r.runs, 2, "{}/{}", r.query, r.deployment);
            assert!(
                r.p50_ms > 0.0,
                "{}/{} has zero latency",
                r.query,
                r.deployment
            );
            assert!(r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms);
            assert!(
                r.mean_bytes > 0.0,
                "{}/{} moved nothing",
                r.query,
                r.deployment
            );
            assert!(
                r.mean_encoded_bytes > 0.0 && r.mean_encoded_bytes <= r.mean_bytes,
                "{}/{} encoded {} vs raw {}",
                r.query,
                r.deployment,
                r.mean_encoded_bytes,
                r.mean_bytes
            );
        }
        // With 2 runs per cell every second consultation hits the cache
        // (no DDL invalidates base-table probes between runs), so the
        // workload-wide hit rate must be well above zero.
        assert!(
            report.rows.iter().any(|r| r.cache_hit_rate > 0.0),
            "no cell ever hit the consultation cache"
        );
        // XDB deploys delegation artifacts on every engine at some point.
        let max_hwm = report
            .objects_live_hwm
            .iter()
            .map(|(_, h)| *h)
            .fold(0.0f64, f64::max);
        assert!(max_hwm > 0.0, "{:?}", report.objects_live_hwm);
        // The WAN profile has to bite: every geo cell pays at least the
        // latency of its on-premise twin (same data, slower links).
        for geo in report.rows.iter().filter(|r| r.profile == "geo") {
            let onprem = report
                .rows
                .iter()
                .find(|r| {
                    r.profile == "onprem" && r.query == geo.query && r.deployment == geo.deployment
                })
                .unwrap();
            assert!(
                geo.p50_ms >= onprem.p50_ms,
                "{}/{}: geo p50 {} < onprem p50 {}",
                geo.query,
                geo.deployment,
                geo.p50_ms,
                onprem.p50_ms
            );
        }
    }

    #[test]
    fn renders_are_complete_and_valid() {
        let report = run_monitor(TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        let dash = report.render_dashboard();
        for dep in DEPLOYMENTS {
            assert!(dash.contains(&dep.name()), "{dash}");
        }
        for (pname, _) in PROFILES {
            assert!(dash.contains(pname), "{dash}");
        }
        assert!(dash.contains("live delegation objects"), "{dash}");

        let prom = report.render_prometheus();
        assert!(prom.contains("monitor_latency_ms_bucket{"), "{prom}");
        assert!(prom.contains("le=\"+Inf\""), "{prom}");
        // The fleet series captured during the workload ride along.
        assert!(prom.contains("ddl_objects_live"), "{prom}");

        let parsed = json::parse(&report.to_json()).expect("monitor JSON parses");
        let rows = parsed.get("rows").and_then(json::Value::as_array).unwrap();
        assert_eq!(rows.len(), report.rows.len());
        assert!(parsed.get("values").is_some());
    }

    #[test]
    fn observatory_columns_and_codec_split_populated() {
        let report = run_monitor(TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        for r in &report.rows {
            // Every cell moved compressed data, so the per-codec split the
            // history store records must surface here too.
            assert!(
                !r.codec_bytes.is_empty(),
                "{}/{}/{} has no codec split",
                r.profile,
                r.query,
                r.deployment
            );
            let split: f64 = r.codec_bytes.iter().map(|(_, b)| *b).sum();
            assert!(split > 0.0);
            if r.deployment != "xdb" {
                // Mediators make no Eq. 1–3 placement decisions.
                assert_eq!(r.cal_abs_err_pct, 0.0);
                assert_eq!(r.regret_ms, 0.0);
            }
        }
        // The observatory bites on at least one XDB cell: the estimator
        // prices raw bytes, the wire moves encoded bytes, so the error
        // series cannot be identically zero.
        assert!(
            report
                .rows
                .iter()
                .filter(|r| r.deployment == "xdb")
                .any(|r| r.cal_abs_err_pct > 0.0),
            "no xdb cell reports calibration error"
        );
        let v = report.flat_values();
        assert!(v.keys().any(|k| k.contains("/codec_bytes/")), "{v:?}");
        assert!(v.keys().any(|k| k.ends_with("/cal_abs_err_pct")));
        assert!(v.keys().any(|k| k.ends_with("/regret_ms")));
        assert!(v.keys().any(|k| k.ends_with("/plan_flip_rate")));
        let parsed = json::parse(&report.to_json()).expect("monitor JSON parses");
        let rows = parsed.get("rows").and_then(json::Value::as_array).unwrap();
        for row in rows {
            assert!(row.get("codec_bytes").is_some());
            assert!(row.get("cal_abs_err_pct").is_some());
            assert!(row.get("regret_ms").is_some());
            assert!(row.get("plan_flip_rate").is_some());
        }
        // Flip rates are shares of runs: [0, 1] on xdb cells, 0 elsewhere.
        for r in &report.rows {
            assert!(
                (0.0..=1.0).contains(&r.plan_flip_rate),
                "{}/{}/{}: flip rate {}",
                r.profile,
                r.query,
                r.deployment,
                r.plan_flip_rate
            );
            if r.deployment != "xdb" {
                assert_eq!(r.plan_flip_rate, 0.0);
            }
        }
    }

    #[test]
    fn wire_codec_at_least_halves_xdb_bytes() {
        // The ISSUE 5 acceptance bar: on the TD1 workload the columnar
        // codec moves at least 2x fewer bytes over XDB's streamed edges
        // than the raw wire size.
        let report = run_monitor(TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        let (mut raw, mut enc) = (0.0f64, 0.0f64);
        for r in report.rows.iter().filter(|r| r.deployment == "xdb") {
            raw += r.mean_bytes;
            enc += r.mean_encoded_bytes;
        }
        assert!(
            raw >= 2.0 * enc,
            "xdb TD1 compression below 2x: raw {raw} encoded {enc}"
        );
    }

    #[test]
    fn report_is_a_projection_of_its_records() {
        let runs = run_workloads(TEST_SF, 2, &Telemetry::new_handle()).unwrap();
        let live = MonitorReport::project(&runs);
        for (_, records) in &runs.records {
            assert_eq!(records.len(), TpchQuery::ALL.len() * DEPLOYMENTS.len() * 2);
        }
        // What the records say once written and read back is all the
        // report needs.
        let records = runs
            .records
            .iter()
            .map(|(profile, rs)| {
                let text: String = rs.iter().map(|r| r.to_json() + "\n").collect();
                (*profile, parse_history_jsonl(&text).unwrap())
            })
            .collect();
        let replayed = MonitorReport::project(&MonitorRuns { records, ..runs });
        assert_eq!(replayed.rows, live.rows);
        assert_eq!(replayed.flat_values(), live.flat_values());
        assert_eq!(replayed.render_prometheus(), live.render_prometheus());
    }

    #[test]
    fn monitor_is_deterministic_across_invocations() {
        let a = run_monitor(TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        let b = run_monitor(TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        assert_eq!(a.flat_values(), b.flat_values());
        assert_eq!(a.objects_live_hwm, b.objects_live_hwm);
    }
}
