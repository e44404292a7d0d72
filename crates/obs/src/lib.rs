//! # xdb-obs
//!
//! Structured tracing and metrics for the XDB reproduction.
//!
//! Every query submission produces a [`QueryTrace`]: a tree of hierarchical
//! [`Span`]s (query → phase → task → operator / DDL / exec / consult)
//! plus a flat counter map. Timestamps are **simulated milliseconds** — the
//! same deterministic clock the timing model in `xdb-net` composes — so
//! traces are bit-identical on any number of executor threads and across
//! repeated runs.
//!
//! Two sinks, no external dependencies:
//!
//! 1. [`QueryTrace::to_chrome_json`] — Chrome `trace_event` JSON for
//!    `chrome://tracing` / Perfetto, one lane per engine node;
//! 2. [`QueryTrace::render_text`] — an `EXPLAIN ANALYZE`-style tree report.
//!
//! The [`json`] module is a minimal JSON value: the reader that tests
//! validate emitted trace files with, and the one writer (Chrome traces,
//! history and event lines, the monitor snapshot) with its strict
//! required-field reader. Prometheus text borrows its number and string
//! spelling.
//!
//! Beyond per-query traces, the crate hosts the **fleet telemetry** layer:
//! a [`MetricRegistry`] (counters, gauges with high-water marks, and
//! log-bucketed [`Histogram`]s, all labeled), a structured [`EventLog`]
//! (leveled, query-correlated, ring-buffered, JSON-lines export), and the
//! [`Telemetry`] handle that bundles both — one per cluster, and no
//! process-wide one. Everything is recorded
//! on the simulated clock, so telemetry is deterministic too (see
//! `metrics` module docs for the exact rules).
//!
//! Two analysis layers sit on top: the [`history`] module persists one
//! [`HistoryRecord`] per query run (plan fingerprint, timings, wire
//! ratios, the cost-model observation — the one persisted form of what
//! the learned cost model knows), and the [`critical`] module
//! computes the critical path through a finished trace, attributing
//! end-to-end latency to compute / transfer / consult / DDL per engine
//! node.

pub mod collect;
pub mod costmodel;
pub mod critical;
pub mod event;
pub mod history;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod telemetry;
pub mod trace;

pub use collect::{TraceCollector, TraceCtx};
pub use costmodel::{
    error_pct, summarize, CalibrationSummary, CandidateObs, CostObservation, DecisionObs, EdgeJoin,
    ErrorStats,
};
pub use critical::{critical_path, critical_paths, CritCategory, CriticalPath, CriticalStep};
pub use event::{Event, EventLog, Level};
pub use history::{HistoryRecord, HistorySink, HISTORY_SCHEMA_VERSION};
pub use metrics::{Histogram, Metric, MetricRegistry};
pub use profile::{ExecProfile, OpStat};
pub use span::{Span, SpanId, SpanKind};
pub use telemetry::Telemetry;
pub use trace::{MetricsSnapshot, QueryTrace};
