//! `repro monitor` — the fleet workload monitor.
//!
//! Runs the six-query TPC-H workload N times under every deployment
//! (XDB, Garlic, Presto-4, Sclera) against a TD1 federation per
//! engine-link profile (on-premise LAN and geo-distributed WAN) and
//! aggregates the fleet telemetry into profile × query × deployment cells:
//! latency quantiles (p50/p95/p99), bytes moved over the wire,
//! consultation-cache hit rate, and the live-delegation-object high-water
//! mark per engine. Three renderings: a text dashboard, a Prometheus text
//! exposition, and a JSON export (the latter doubles as the regression-gate
//! baseline, see [`crate::gate`]).
//!
//! Every number is taken off the simulated clock and the deterministic
//! telemetry registry, so the whole report is bit-identical across
//! repeated invocations, whatever threads the host lends.

use crate::experiments::{env, pg, Env, CLOUD};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use xdb_baselines::{Mediator, MediatorConfig, Sclera};
use xdb_core::{Xdb, XdbOptions};
use xdb_engine::error::{EngineError, Result};
use xdb_net::{Purpose, Scenario};
use xdb_obs::trace::{json_number, json_string};
use xdb_obs::{Metric, MetricRegistry, Telemetry};
use xdb_tpch::{TableDist, TpchQuery};

/// Deployment names, in dashboard order.
pub const DEPLOYMENTS: [&str; 4] = ["xdb", "garlic", "presto4", "sclera"];

/// Engine-link profiles the monitor covers, in dashboard order. The
/// on-premise LAN is the regime most of the reproduction runs in; the
/// geo-distributed profile (high-latency / low-bandwidth WAN links, see
/// [`Scenario::GeoDistributed`]) is transfer-bound, where the streamed
/// morsel edges and the reactor matter most — keeping it in the gate
/// baseline protects that regime from regressions.
pub const PROFILES: [(&str, Scenario); 2] = [
    ("onprem", Scenario::OnPremise),
    ("geo", Scenario::GeoDistributed),
];

/// One dashboard cell: a (profile, query, deployment) triple aggregated
/// over N runs.
#[derive(Debug, Clone)]
pub struct MonitorRow {
    pub profile: &'static str,
    pub query: &'static str,
    pub deployment: &'static str,
    pub runs: u64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Mean raw (uncompressed) bytes moved between DBMSes (XDB) or into
    /// the mediator (Garlic/Presto/Sclera) per run.
    pub mean_bytes: f64,
    /// Mean encoded bytes actually sent over the wire after the
    /// `net::wire` columnar codec — what the transfer-time model charged.
    pub mean_encoded_bytes: f64,
    /// Consultation-cache hit rate over the probes this cell issued.
    pub cache_hit_rate: f64,
    /// Mean encoded bytes per run split by wire codec, over every ledger
    /// edge of the run (codec name → bytes). This is the per-codec split
    /// the history store already records per edge
    /// (`Transfer::codec_bytes`), surfaced per dashboard cell.
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
    /// static-cost plan for the same SQL (XDB cells only; schema v4).
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
    /// The monitor's own aggregation registry
    /// (`monitor.latency_ms{query,deployment}`, …).
    registry: MetricRegistry,
    /// Prometheus rendering of the fleet-wide telemetry captured during
    /// the workload (engine/net/consult/xdb series).
    fleet_prometheus: String,
}

/// Run the monitor workload. Every profile's federation reports into
/// `fleet`, so the fleet rendering and the live-object high-water marks
/// cover the whole workload.
pub fn run_monitor(sf: f64, runs: usize, fleet: &Arc<Telemetry>) -> Result<MonitorReport> {
    let registry = MetricRegistry::new();
    let mut envs = Vec::new();
    for (pname, scenario) in PROFILES {
        let e = env(TableDist::Td1, sf, scenario, &pg(), fleet)?;
        envs.push((pname, e));
    }
    // Per-cell accumulators the registry does not model: the per-codec
    // byte split (variable key set) and the observatory error/regret sums.
    type Cell = (String, String, String);
    let mut codec_cells: BTreeMap<Cell, BTreeMap<String, f64>> = BTreeMap::new();
    let mut cal_cells: BTreeMap<Cell, (f64, f64)> = BTreeMap::new();
    let mut flip_cells: BTreeMap<Cell, f64> = BTreeMap::new();
    for (pname, e) in &envs {
        for q in TpchQuery::ALL {
            for dep in DEPLOYMENTS {
                for _ in 0..runs {
                    // Bracket each run with catalog snapshots: the diff is
                    // the per-run consultation delta, immune to everything
                    // the workload did before.
                    let before = e.catalog.metrics_snapshot();
                    let sample = run_one(e, dep, q.sql())?;
                    let delta = e.catalog.metrics_snapshot().diff(&before);
                    let labels = [
                        ("profile", *pname),
                        ("query", q.name()),
                        ("deployment", dep),
                    ];
                    registry.observe("monitor.latency_ms", &labels, sample.latency_ms);
                    registry.observe("monitor.bytes_moved", &labels, sample.moved as f64);
                    registry.observe(
                        "monitor.encoded_bytes_moved",
                        &labels,
                        sample.encoded as f64,
                    );
                    registry.counter_add("monitor.runs", &labels, 1.0);
                    registry.counter_add(
                        "monitor.cache_hits",
                        &labels,
                        delta.get("consult.cache_hits"),
                    );
                    registry.counter_add(
                        "monitor.cache_misses",
                        &labels,
                        delta.get("consult.cache_misses"),
                    );
                    let cell = (pname.to_string(), q.name().to_string(), dep.to_string());
                    let codecs = codec_cells.entry(cell.clone()).or_default();
                    for (codec, bytes) in sample.codec_bytes {
                        registry.counter_add(
                            "monitor.codec_bytes",
                            &[
                                ("profile", pname),
                                ("query", q.name()),
                                ("deployment", dep),
                                ("codec", codec),
                            ],
                            bytes as f64,
                        );
                        *codecs.entry(codec.to_string()).or_insert(0.0) += bytes as f64;
                    }
                    if dep == "xdb" {
                        registry.observe(
                            "monitor.cal_abs_err_pct",
                            &labels,
                            sample.cal_abs_err_pct,
                        );
                        registry.observe("monitor.regret_ms", &labels, sample.regret_ms);
                        let cal = cal_cells.entry(cell.clone()).or_insert((0.0, 0.0));
                        cal.0 += sample.cal_abs_err_pct;
                        cal.1 += sample.regret_ms;
                        // Did learned pricing change the plan? Re-plan the
                        // same SQL with the kill switch thrown and compare
                        // fingerprints. Planning is side-effect-free (no
                        // DDL), so later cells only see the extra consult
                        // traffic this probe shares with every other run.
                        let static_xdb = Xdb::new(&e.cluster, &e.catalog)
                            .with_client_node(CLOUD)
                            .with_options(XdbOptions {
                                learned_costs: false,
                                ..Default::default()
                            });
                        let (static_plan, _, _, _) = static_xdb.plan(q.sql())?;
                        let static_fp = xdb_core::annotate::plan_fingerprint(&static_plan);
                        let flipped = match &sample.fingerprint {
                            Some(fp) => (*fp != static_fp) as u64 as f64,
                            None => 0.0,
                        };
                        registry.observe("monitor.plan_flip", &labels, flipped);
                        *flip_cells.entry(cell).or_insert(0.0) += flipped;
                    }
                }
            }
        }
    }

    let mut rows = Vec::new();
    for (pname, _) in &envs {
        for q in TpchQuery::ALL {
            for dep in DEPLOYMENTS {
                let labels = [
                    ("profile", *pname),
                    ("query", q.name()),
                    ("deployment", dep),
                ];
                let (p50, p95, p99, n) = match registry.get("monitor.latency_ms", &labels) {
                    Some(Metric::Histogram(h)) => (
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                        h.count,
                    ),
                    _ => (0.0, 0.0, 0.0, 0),
                };
                let mean_bytes = match registry.get("monitor.bytes_moved", &labels) {
                    Some(Metric::Histogram(h)) => h.mean(),
                    _ => 0.0,
                };
                let mean_encoded_bytes = match registry.get("monitor.encoded_bytes_moved", &labels)
                {
                    Some(Metric::Histogram(h)) => h.mean(),
                    _ => 0.0,
                };
                let hits = registry.value("monitor.cache_hits", &labels);
                let probes = hits + registry.value("monitor.cache_misses", &labels);
                let cell = (pname.to_string(), q.name().to_string(), dep.to_string());
                let per_run = |sum: f64| if n > 0 { sum / n as f64 } else { 0.0 };
                let codec_bytes: Vec<(String, f64)> = codec_cells
                    .get(&cell)
                    .map(|m| m.iter().map(|(k, v)| (k.clone(), per_run(*v))).collect())
                    .unwrap_or_default();
                let (cal_abs_err_pct, regret_ms) = cal_cells
                    .get(&cell)
                    .map(|(err, regret)| (per_run(*err), per_run(*regret)))
                    .unwrap_or((0.0, 0.0));
                let plan_flip_rate = flip_cells.get(&cell).map(|f| per_run(*f)).unwrap_or(0.0);
                rows.push(MonitorRow {
                    profile: pname,
                    query: q.name(),
                    deployment: dep,
                    runs: n,
                    p50_ms: p50,
                    p95_ms: p95,
                    p99_ms: p99,
                    mean_bytes,
                    mean_encoded_bytes,
                    cache_hit_rate: if probes > 0.0 { hits / probes } else { 0.0 },
                    codec_bytes,
                    cal_abs_err_pct,
                    regret_ms,
                    plan_flip_rate,
                });
            }
        }
    }
    let mut objects_live_hwm: Vec<(String, f64)> = envs[0]
        .1
        .cluster
        .node_names()
        .into_iter()
        .map(|n| {
            let hwm = fleet
                .metrics
                .high_water("ddl.objects_live", &[("engine", &n)]);
            (n, hwm)
        })
        .collect();
    objects_live_hwm.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(MonitorReport {
        sf,
        runs,
        rows,
        objects_live_hwm,
        registry,
        fleet_prometheus: fleet.metrics.render_prometheus(),
    })
}

/// One run's observations, taken off the per-run ledger and (for XDB)
/// the query's cost-model observatory record.
struct RunSample {
    latency_ms: f64,
    moved: u64,
    encoded: u64,
    /// Encoded bytes per wire codec over every ledger edge of the run.
    codec_bytes: Vec<(&'static str, u64)>,
    cal_abs_err_pct: f64,
    regret_ms: f64,
    /// Canonical fingerprint of the executed plan (XDB only) — compared
    /// against a static-cost re-plan to detect learned-pricing flips.
    fingerprint: Option<String>,
}

/// Sum the per-codec byte split across every edge the run appended to the
/// (cleared-per-run) ledger.
fn codec_split(e: &Env) -> Vec<(&'static str, u64)> {
    let mut split: BTreeMap<&'static str, u64> = BTreeMap::new();
    for t in e.cluster.ledger.snapshot() {
        for (codec, bytes) in t.codec_bytes {
            *split.entry(codec).or_insert(0) += bytes;
        }
    }
    split.into_iter().collect()
}

/// Execute `sql` once under `deployment`. Latency is end-to-end simulated
/// time including the middleware phases, matching what each system's user
/// would observe.
fn run_one(e: &Env, deployment: &str, sql: &str) -> Result<RunSample> {
    e.cluster.ledger.clear();
    match deployment {
        "xdb" => {
            let xdb = Xdb::new(&e.cluster, &e.catalog).with_client_node(CLOUD);
            let out = xdb.submit(sql)?;
            let moved = e.cluster.ledger.bytes_for(Purpose::InterDbmsPipeline)
                + e.cluster.ledger.bytes_for(Purpose::Materialization);
            let encoded = e
                .cluster
                .ledger
                .encoded_bytes_for(Purpose::InterDbmsPipeline)
                + e.cluster.ledger.encoded_bytes_for(Purpose::Materialization);
            Ok(RunSample {
                latency_ms: out.breakdown.total_ms(),
                moved,
                encoded,
                codec_bytes: codec_split(e),
                cal_abs_err_pct: out.cost.wire_abs_err_pct(),
                regret_ms: out.cost.regret_ms(),
                fingerprint: Some(xdb_core::annotate::plan_fingerprint(&out.delegation)),
            })
        }
        "garlic" => {
            let r =
                Mediator::new(&e.cluster, &e.catalog, MediatorConfig::garlic(CLOUD)).submit(sql)?;
            Ok(RunSample {
                latency_ms: r.total_ms,
                moved: r.fetch_bytes,
                encoded: r.fetch_encoded_bytes,
                codec_bytes: codec_split(e),
                cal_abs_err_pct: 0.0,
                regret_ms: 0.0,
                fingerprint: None,
            })
        }
        "presto4" => {
            let r = Mediator::new(&e.cluster, &e.catalog, MediatorConfig::presto(CLOUD, 4))
                .submit(sql)?;
            Ok(RunSample {
                latency_ms: r.total_ms,
                moved: r.fetch_bytes,
                encoded: r.fetch_encoded_bytes,
                codec_bytes: codec_split(e),
                cal_abs_err_pct: 0.0,
                regret_ms: 0.0,
                fingerprint: None,
            })
        }
        "sclera" => {
            let r = Sclera::new(&e.cluster, &e.catalog, CLOUD).submit(sql)?;
            Ok(RunSample {
                latency_ms: r.total_ms,
                moved: r.moved_bytes,
                encoded: r.moved_encoded_bytes,
                codec_bytes: codec_split(e),
                cal_abs_err_pct: 0.0,
                regret_ms: 0.0,
                fingerprint: None,
            })
        }
        other => Err(EngineError::Unsupported(format!(
            "unknown deployment {other:?}"
        ))),
    }
}

impl MonitorReport {
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
        let mut out = self.registry.render_prometheus();
        out.push_str(&self.fleet_prometheus);
        out
    }

    /// Deterministic scalar values for the regression gate, keyed
    /// `profile/query/deployment/metric` (schema v2; v1 had no profile
    /// segment).
    pub fn flat_values(&self) -> BTreeMap<String, f64> {
        let mut v = BTreeMap::new();
        for r in &self.rows {
            v.insert(
                format!("{}/{}/{}/p50_ms", r.profile, r.query, r.deployment),
                r.p50_ms,
            );
            v.insert(
                format!("{}/{}/{}/mean_bytes", r.profile, r.query, r.deployment),
                r.mean_bytes,
            );
            v.insert(
                format!("{}/{}/{}/mean_enc_bytes", r.profile, r.query, r.deployment),
                r.mean_encoded_bytes,
            );
            for (codec, bytes) in &r.codec_bytes {
                v.insert(
                    format!(
                        "{}/{}/{}/codec_bytes/{}",
                        r.profile, r.query, r.deployment, codec
                    ),
                    *bytes,
                );
            }
            if r.deployment == "xdb" {
                v.insert(
                    format!("{}/{}/{}/cal_abs_err_pct", r.profile, r.query, r.deployment),
                    r.cal_abs_err_pct,
                );
                v.insert(
                    format!("{}/{}/{}/regret_ms", r.profile, r.query, r.deployment),
                    r.regret_ms,
                );
                v.insert(
                    format!("{}/{}/{}/plan_flip_rate", r.profile, r.query, r.deployment),
                    r.plan_flip_rate,
                );
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
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": \"monitor\",");
        let _ = writeln!(
            out,
            "  \"schema_version\": {},",
            crate::gate::MONITOR_SCHEMA_VERSION
        );
        let _ = writeln!(out, "  \"workload\": \"TD1\",");
        let _ = writeln!(out, "  \"sf\": {},", json_number(self.sf));
        let _ = writeln!(out, "  \"runs\": {},", self.runs);
        for (k, v) in extra_fields {
            let _ = writeln!(out, "  {}: {},", json_string(k), json_number(*v));
        }
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let mut codecs = String::from("{");
            for (j, (codec, bytes)) in r.codec_bytes.iter().enumerate() {
                let _ = write!(
                    codecs,
                    "{}{}: {}",
                    if j > 0 { ", " } else { "" },
                    json_string(codec),
                    json_number(*bytes)
                );
            }
            codecs.push('}');
            let _ = writeln!(
                out,
                "    {{\"profile\": {}, \"query\": {}, \"deployment\": {}, \"runs\": {}, \
                 \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \
                 \"mean_bytes\": {}, \"mean_enc_bytes\": {}, \"cache_hit_rate\": {}, \
                 \"codec_bytes\": {}, \"cal_abs_err_pct\": {}, \"regret_ms\": {}, \
                 \"plan_flip_rate\": {}}}{}",
                json_string(r.profile),
                json_string(r.query),
                json_string(r.deployment),
                r.runs,
                json_number(r.p50_ms),
                json_number(r.p95_ms),
                json_number(r.p99_ms),
                json_number(r.mean_bytes),
                json_number(r.mean_encoded_bytes),
                json_number(r.cache_hit_rate),
                codecs,
                json_number(r.cal_abs_err_pct),
                json_number(r.regret_ms),
                json_number(r.plan_flip_rate),
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"objects_live_hwm\": {");
        for (i, (node, hwm)) in self.objects_live_hwm.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {}",
                if i > 0 { ", " } else { "" },
                json_string(node),
                json_number(*hwm)
            );
        }
        out.push_str("},\n");
        out.push_str("  \"values\": {\n");
        let mut values = self.flat_values();
        for (k, v) in extra_values {
            values.insert(k.clone(), *v);
        }
        for (i, (k, v)) in values.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}: {}{}",
                json_string(k),
                json_number(*v),
                if i + 1 < values.len() { "," } else { "" }
            );
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_obs::json;

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
            assert!(dash.contains(dep), "{dash}");
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
    fn monitor_is_deterministic_across_invocations() {
        let a = run_monitor(TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        let b = run_monitor(TEST_SF, 1, &Telemetry::new_handle()).unwrap();
        assert_eq!(a.flat_values(), b.flat_values());
        assert_eq!(a.objects_live_hwm, b.objects_live_hwm);
    }
}
