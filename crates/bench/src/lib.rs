//! # xdb-bench
//!
//! The reproduction harness: one runner per table/figure of the paper's
//! evaluation ([`experiments`]), rendered as aligned text ([`report`]).
//!
//! Entry points:
//! - `cargo run --release -p xdb-bench --bin repro -- <experiment|all>` —
//!   regenerate the tables/figures (this is what EXPERIMENTS.md records);
//! - `repro monitor --runs N` — the fleet workload monitor ([`monitor`]):
//!   per-query × per-deployment latency/bytes/cache dashboards;
//! - `repro tenants --tenants N --runs R` — the multi-tenant admission
//!   benchmark ([`tenants`]): folded vs unfolded arms over a skewed TD1
//!   mix, with per-tenant result digests;
//! - `repro gate` — the bench regression gate ([`gate`]), comparing a
//!   fresh monitor run against `BENCH_monitor.json`;
//! - `repro profile` — critical-path bottleneck attribution for the TD1
//!   workload ([`profiler`]);
//! - `repro drift --baseline dir/ --current dir/` — performance-drift
//!   detection over query-history stores ([`drift`]), with a
//!   `--flip-rate` budget for learned-cost histories;
//! - `repro replay [--profiles dir/]` — learned-vs-static cost-model
//!   replay ([`replay`]): re-annotates the workload under both pricing
//!   modes and reports every plan flip with predicted and measured
//!   deltas;
//! - `cargo bench -p xdb-bench` — Criterion benchmarks, one per
//!   table/figure, timing each reproduction pipeline at a small scale.

pub mod calibrate;
pub mod drift;
pub mod experiments;
pub mod gate;
pub mod monitor;
pub mod profiler;
pub mod replay;
pub mod report;
pub mod tenants;
