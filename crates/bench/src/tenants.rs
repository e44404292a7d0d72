//! `repro tenants` — the multi-tenant admission benchmark.
//!
//! Replays a skewed TD1 query mix from many simulated tenants through the
//! session layer ([`xdb_core::QueryServer`]) twice over the same
//! submission list: once with concurrent-plan folding enabled (the
//! production configuration) and once with every admission planned and
//! executed in isolation. Folding is a pure optimization — both arms must
//! produce bit-identical per-tenant results — so the benchmark reports
//! the spread: latency quantiles, throughput, fold hits, fragments
//! deployed, consultation probes, and DDL statements per arm.
//!
//! The tenant mix is deliberately skewed twice over, mirroring real fleet
//! traffic: a zipf-ish tenant distribution (low-numbered tenants submit
//! most of the load) and a hot-query distribution (~60% of admissions
//! replay the workload's hottest query). Hot duplicates landing in one
//! scheduling window are exactly what the folding planner exists for.
//!
//! Every number is taken off the simulated clock, so the whole report is
//! deterministic across invocations and rides the monitor regression-gate
//! baseline (`BENCH_monitor.json`, see [`crate::gate`]) as `tenants/...`
//! series. Each arm runs on a fresh federation, which numbers its queries
//! from 1; both report into the caller's telemetry handle.

use crate::experiments::{onprem, CLOUD};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use xdb_core::annotate::result_digest;
use xdb_core::{QueryServer, SessionOptions, SessionReport, Submission, TenantOutcome, XdbOptions};
use xdb_engine::error::Result;
use xdb_obs::Telemetry;
use xdb_tpch::{TableDist, TpchQuery};

/// One admission arm (folded or unfolded) aggregated over the whole run.
#[derive(Debug, Clone)]
pub struct TenantsArm {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Simulated wall-clock time from first admission to last completion.
    pub makespan_ms: f64,
    pub throughput_qps: f64,
    pub mean_fold_hits: f64,
    pub full_folds: u64,
    pub fold_hits: u64,
    pub fragments_deployed: u64,
    pub plan_cache_hits: u64,
    pub consult_probes: u64,
    pub ddl_statements: u64,
    /// One line per admission: tenant, result shape, and an FNV-1a hash
    /// of every result cell, so digests compare byte-for-byte across arms
    /// and across processes.
    pub digests: Vec<String>,
}

impl TenantsArm {
    fn from_report(report: &SessionReport) -> TenantsArm {
        TenantsArm {
            p50_ms: report.latency_quantile(0.50),
            p95_ms: report.latency_quantile(0.95),
            p99_ms: report.latency_quantile(0.99),
            makespan_ms: report.makespan_ms,
            throughput_qps: report.throughput_qps(),
            mean_fold_hits: report.mean_fold_hits(),
            full_folds: report.full_folds,
            fold_hits: report.fold_hits,
            fragments_deployed: report.fragments_deployed,
            plan_cache_hits: report.plan_cache_hits,
            consult_probes: report.consult_probes,
            ddl_statements: report.ddl_statements,
            digests: report.outcomes.iter().map(digest_line).collect(),
        }
    }

    /// The digest file body: one line per admission, newline-terminated.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for line in &self.digests {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// The two-arm comparison `repro tenants` renders and the gate consumes.
#[derive(Debug, Clone)]
pub struct TenantsReport {
    pub sf: f64,
    pub tenants: usize,
    pub rounds: usize,
    /// Total admissions (`tenants * rounds`).
    pub queries: usize,
    pub folded: TenantsArm,
    pub unfolded: TenantsArm,
}

/// Deterministic xorshift64* — same generator the kernel benches use.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// One admission's observable result, independent of query ids: ordered
/// result cells hashed, plus the tenant and result shape in clear.
pub fn digest_line(o: &TenantOutcome) -> String {
    format!(
        "{:04} {} {}x{} {}",
        o.index,
        o.tenant,
        o.relation.len(),
        o.relation.width(),
        result_digest(&o.relation)
    )
}

/// Build the skewed submission list: `rounds` scheduling windows of
/// `tenants` admissions each, tenant identity zipf-ish (min of two
/// uniform draws) and ~60% of the traffic on the hottest TD1 query.
pub fn submissions(tenants: usize, rounds: usize) -> Vec<Submission> {
    let mut x = 0x243F6A8885A308D3u64;
    let all = TpchQuery::ALL;
    let mut subs = Vec::with_capacity(tenants * rounds);
    for _ in 0..rounds {
        for _ in 0..tenants {
            let a = (next(&mut x) % tenants as u64) as usize;
            let b = (next(&mut x) % tenants as u64) as usize;
            let q = if next(&mut x) % 10 < 6 {
                all[0]
            } else {
                all[(next(&mut x) % all.len() as u64) as usize]
            };
            subs.push(Submission::new(format!("tenant-{:02}", a.min(b)), q.sql()));
        }
    }
    subs
}

/// Run the two-arm tenant workload: `tenants` simulated tenants replaying
/// the skewed TD1 mix for `rounds` scheduling windows, folded vs
/// unfolded, each against a freshly built federation reporting into
/// `telemetry`.
pub fn run_tenants(
    sf: f64,
    tenants: usize,
    rounds: usize,
    telemetry: &Arc<Telemetry>,
) -> Result<TenantsReport> {
    let subs = submissions(tenants, rounds);
    let folded = run_arm(sf, &subs, tenants, true, telemetry)?;
    let unfolded = run_arm(sf, &subs, tenants, false, telemetry)?;
    Ok(TenantsReport {
        sf,
        tenants,
        rounds,
        queries: subs.len(),
        folded,
        unfolded,
    })
}

fn run_arm(
    sf: f64,
    subs: &[Submission],
    window: usize,
    fold: bool,
    telemetry: &Arc<Telemetry>,
) -> Result<TenantsArm> {
    let e = onprem(TableDist::Td1, sf, telemetry)?;
    let server = QueryServer::new(
        &e.cluster,
        &e.catalog,
        SessionOptions {
            xdb: XdbOptions::default(),
            fold,
            window,
        },
    )
    .with_client_node(CLOUD);
    let report = server.run(subs)?;
    Ok(TenantsArm::from_report(&report))
}

impl TenantsReport {
    /// Folded-over-unfolded throughput gain.
    pub fn speedup(&self) -> f64 {
        if self.folded.makespan_ms > 0.0 {
            self.unfolded.makespan_ms / self.folded.makespan_ms
        } else {
            0.0
        }
    }

    /// Deterministic scalar values for the regression gate, keyed
    /// `tenants/arm/metric`. Every series is higher-is-worse except
    /// `mean_fold_hits`, which is informational: the gate flags any
    /// change on it, and the throughput regression it would mask is
    /// caught by `ms_per_query`.
    pub fn flat_values(&self) -> BTreeMap<String, f64> {
        let mut v = BTreeMap::new();
        for (arm, name) in [(&self.folded, "folded"), (&self.unfolded, "unfolded")] {
            v.insert(format!("tenants/{name}/p50_ms"), arm.p50_ms);
            v.insert(format!("tenants/{name}/p95_ms"), arm.p95_ms);
            v.insert(format!("tenants/{name}/p99_ms"), arm.p99_ms);
            v.insert(
                format!("tenants/{name}/ms_per_query"),
                arm.makespan_ms / self.queries as f64,
            );
        }
        v.insert(
            "tenants/mean_fold_hits".to_string(),
            self.folded.mean_fold_hits,
        );
        v
    }

    /// The text dashboard.
    pub fn render_dashboard(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== multi-tenant admission: TD1 sf {}, {} tenants x {} round(s), {} queries ==",
            self.sf, self.tenants, self.rounds, self.queries
        );
        let _ = writeln!(
            out,
            "{:<9} {:>10} {:>10} {:>10} {:>13} {:>9} {:>6} {:>6} {:>6} {:>9} {:>6}",
            "arm",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "makespan ms",
            "qps",
            "folds",
            "hits",
            "frags",
            "consults",
            "ddls"
        );
        for (arm, name) in [(&self.folded, "folded"), (&self.unfolded, "unfolded")] {
            let _ = writeln!(
                out,
                "{:<9} {:>10.3} {:>10.3} {:>10.3} {:>13.3} {:>9.1} {:>6} {:>6} {:>6} {:>9} {:>6}",
                name,
                arm.p50_ms,
                arm.p95_ms,
                arm.p99_ms,
                arm.makespan_ms,
                arm.throughput_qps,
                arm.full_folds,
                arm.fold_hits,
                arm.fragments_deployed,
                arm.consult_probes,
                arm.ddl_statements
            );
        }
        let _ = writeln!(
            out,
            "throughput speedup {:.2}x; consult probes {} -> {}; ddl statements {} -> {}",
            self.speedup(),
            self.unfolded.consult_probes,
            self.folded.consult_probes,
            self.unfolded.ddl_statements,
            self.folded.ddl_statements
        );
        let _ = writeln!(
            out,
            "folding: {}/{} admissions fully folded, mean fold hits {:.2}, {} plan-cache hits",
            self.folded.full_folds,
            self.queries,
            self.folded.mean_fold_hits,
            self.folded.plan_cache_hits
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SF: f64 = 0.002;

    #[test]
    fn folded_and_unfolded_arms_agree_and_folding_pays() {
        let r = run_tenants(TEST_SF, 8, 2, &Telemetry::new_handle()).unwrap();
        assert_eq!(r.queries, 16);
        // Folding is invisible per tenant...
        assert_eq!(r.folded.digests, r.unfolded.digests);
        // ...and strictly cheaper for the fleet.
        assert!(r.folded.full_folds > 0, "{:?}", r.folded);
        assert!(r.folded.consult_probes < r.unfolded.consult_probes);
        assert!(r.folded.ddl_statements < r.unfolded.ddl_statements);
        assert!(r.folded.makespan_ms < r.unfolded.makespan_ms);
        assert!(r.folded.p95_ms <= r.unfolded.p95_ms);
        // The dashboard carries the headline numbers.
        let dash = r.render_dashboard();
        assert!(dash.contains("throughput speedup"), "{dash}");
        assert!(dash.contains("fully folded"), "{dash}");
    }

    #[test]
    fn acceptance_bar_at_64_tenants() {
        // The ISSUE 6 acceptance bar: at 64 tenants on the shared-prefix
        // TD1 mix, shared fragments deploy once, consult probes and DDL
        // statements drop measurably, throughput improves >= 1.5x, and
        // p95 latency does not regress — with bit-identical results.
        let r = run_tenants(TEST_SF, 64, 1, &Telemetry::new_handle()).unwrap();
        assert_eq!(r.folded.digests, r.unfolded.digests);
        assert!(
            r.speedup() >= 1.5,
            "throughput speedup {:.2}x below the 1.5x bar",
            r.speedup()
        );
        assert!(r.folded.p95_ms <= r.unfolded.p95_ms);
        // Hot duplicates fold: far fewer fragments deployed than the
        // unfolded run's every-admission deployment.
        assert!(r.folded.full_folds > r.queries as u64 / 2);
        assert!(r.folded.ddl_statements * 2 < r.unfolded.ddl_statements);
        assert!(r.folded.consult_probes * 2 < r.unfolded.consult_probes);
    }

    #[test]
    fn values_are_deterministic_across_invocations() {
        // The gate depends on it: two fresh runs must produce identical
        // latency series and digests.
        let a = run_tenants(TEST_SF, 4, 2, &Telemetry::new_handle()).unwrap();
        let b = run_tenants(TEST_SF, 4, 2, &Telemetry::new_handle()).unwrap();
        assert_eq!(a.flat_values(), b.flat_values());
        assert_eq!(a.folded.digest(), b.folded.digest());
        let gate = crate::gate::compare("tenants", &a.flat_values(), &b.flat_values(), 0.5);
        assert!(gate.passed(), "{}", gate.render());
    }

    /// (query ids, per-admission observables, deterministic snapshot,
    /// makespan) for one admission run over `subs`.
    fn admit(subs: &[Submission], window: usize) -> (Vec<u64>, Vec<String>, String, f64) {
        let e = onprem(TableDist::Td1, TEST_SF, &Telemetry::new_handle()).unwrap();
        let server = QueryServer::new(
            &e.cluster,
            &e.catalog,
            SessionOptions {
                xdb: XdbOptions::default(),
                fold: true,
                window,
            },
        )
        .with_client_node(CLOUD);
        let report = server.run(subs).unwrap();
        let ids = report.outcomes.iter().map(|o| o.query_id).collect();
        let fps = report
            .outcomes
            .iter()
            .map(|o| format!("{} {:?}", digest_line(o), o.breakdown))
            .collect();
        let snap = e
            .cluster
            .telemetry()
            .metrics
            .deterministic_snapshot()
            .render();
        (ids, fps, snap, report.makespan_ms)
    }

    #[test]
    fn admission_repeats_bit_identically_at_1_8_64_tenants() {
        // Admission is serial, so the interleaved TD1 mix admitted on two
        // fresh federations must produce the same query ids, fingerprints,
        // deterministic_snapshot() and makespan, at 1, 8, and 64 tenants.
        for &n in &[1usize, 8, 64] {
            let subs = submissions(n, 1);
            let (first, again) = (admit(&subs, n), admit(&subs, n));
            assert_eq!(first.0, again.0, "query ids diverged at {n} tenants");
            assert_eq!(first.1, again.1, "observables diverged at {n} tenants");
            assert_eq!(first.2, again.2, "snapshots diverged at {n} tenants");
            assert_eq!(first.3, again.3, "makespans diverged at {n} tenants");
        }
    }
}
