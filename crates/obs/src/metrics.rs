//! The fleet-wide metric registry: counters, gauges and log-bucketed
//! histograms with labels, updated on the **simulated clock**'s values so
//! every recorded number is deterministic — the sequential and parallel
//! executors produce bit-identical registries (scheduling-dependent
//! metrics are quarantined under the `sched.` prefix, see below).
//!
//! Determinism rules for instrumented code:
//!
//! - **counters** may be bumped from any thread: addition is commutative,
//!   so totals are order-independent;
//! - **gauges** must only be written from points where all writes to one
//!   key are serialized (per-engine gauges are written under that engine's
//!   catalog lock) or where the sequence of values is monotone (the
//!   high-water mark of a monotone sequence is order-independent);
//! - **histograms** may be observed from any thread — bucket counts, sum,
//!   min and max are all order-independent;
//! - metrics whose *value* genuinely depends on thread scheduling (e.g.
//!   scratch-pool hit counts under concurrency) live under the reserved
//!   `sched.` name prefix and are excluded from the bit-identical
//!   guarantee; [`MetricRegistry::deterministic_snapshot`] filters them.
//!   The `net.chunks` series is quarantined the same way: transport chunk
//!   counts depend on the configured `stream_chunk_rows`, which must never
//!   leak into determinism comparisons. `net.codec.*` (wire-codec state-cache hit counts) is
//!   quarantined too: on several executor threads two task groups can race
//!   to the first encode of a shared relation, so the *hit count* is
//!   scheduling-dependent even though the encoded bytes are not.

use crate::trace::{json_number, json_string, MetricsSnapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// Name prefix for scheduling-dependent metrics, excluded from the
/// sequential-vs-parallel bit-identity guarantee.
pub const SCHED_PREFIX: &str = "sched.";

/// Name prefix for transport-chunk counts, excluded from determinism
/// comparisons because they scale with the configured `stream_chunk_rows`
/// (results, ledgers, timings and every other metric stay bit-identical
/// across chunk sizes).
pub const CHUNKS_PREFIX: &str = "net.chunks";

/// Name prefix for wire-codec state-cache counters (`net.codec.dict_reuse`
/// and friends), excluded from determinism comparisons because cache-hit
/// counts depend on executor scheduling (the encoded bytes they describe
/// stay bit-identical).
pub const CODEC_PREFIX: &str = "net.codec.";

/// A log-bucketed (base-2) histogram of non-negative f64 observations.
///
/// Buckets are dyadic: observation `v` lands in the bucket whose upper
/// bound is the smallest power of two `>= v` (a dedicated bucket holds
/// `v <= 0`). Bucket counts, `count`, `sum`, `min` and `max` are all
/// order-independent, so concurrent observers always converge to the same
/// histogram; merging shard histograms is exactly equivalent to observing
/// every value into one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// `exponent -> count`; bucket upper bound is `2^exponent`. The
    /// non-positive bucket is stored under `i32::MIN`.
    buckets: BTreeMap<i32, u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

fn bucket_exp(v: f64) -> i32 {
    if v <= 0.0 {
        return i32::MIN;
    }
    // Smallest e with 2^e >= v.
    let e = v.log2().ceil();
    e.clamp(-64.0, 1024.0) as i32
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn observe(&mut self, v: f64) {
        *self.buckets.entry(bucket_exp(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Merge another histogram into this one. Merging shards is equivalent
    /// to observing all their values into a single histogram (the `sum` of
    /// dyadic/integral observations is bit-exact; arbitrary f64 sums agree
    /// up to addition-order rounding).
    pub fn merge(&mut self, other: &Histogram) {
        for (e, c) in &other.buckets {
            *self.buckets.entry(*e).or_insert(0) += c;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Quantile estimate `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `q * count` (clamped into
    /// `[min, max]`). Monotone in `q` by construction — cumulative counts
    /// only grow across buckets sorted by upper bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (e, c) in &self.buckets {
            seen += c;
            if seen >= target {
                let upper = if *e == i32::MIN {
                    0.0
                } else {
                    (*e as f64).exp2()
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// `(upper_bound, cumulative_count)` pairs in bucket order (Prometheus
    /// `le` semantics; the non-positive bucket reports bound 0).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut cum = 0u64;
        for (e, c) in &self.buckets {
            cum += c;
            let bound = if *e == i32::MIN {
                0.0
            } else {
                (*e as f64).exp2()
            };
            out.push((bound, cum));
        }
        out
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    Counter(f64),
    /// Last value plus the high-water mark the gauge ever reached.
    Gauge {
        value: f64,
        high_water: f64,
    },
    Histogram(Histogram),
}

/// A metric name plus rendered labels, e.g. `ddl.objects_live{engine="db1"}`.
/// Label order is the caller's order and is part of the key, so call sites
/// must be consistent (they are: every site spells its labels once).
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// The process- or cluster-wide metric registry.
///
/// One mutex around a `BTreeMap` keyed by rendered name+labels: every
/// update is a few string hashes and a map probe — cheap enough to stay
/// always-on (the `fig9` overhead budget is bounded in EXPERIMENTS.md).
/// `set_enabled(false)` turns every operation into a branch, for overhead
/// measurement.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    enabled: AtomicBool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricRegistry {
    pub fn new() -> MetricRegistry {
        MetricRegistry {
            enabled: AtomicBool::new(true),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Add to a counter (creating it at zero).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], amount: f64) {
        if !self.is_enabled() {
            return;
        }
        let key = metric_key(name, labels);
        let mut m = self.metrics.lock();
        if let Metric::Counter(v) = m.entry(key).or_insert(Metric::Counter(0.0)) {
            *v += amount
        }
    }

    /// Set a gauge, tracking its high-water mark.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if !self.is_enabled() {
            return;
        }
        let key = metric_key(name, labels);
        let mut m = self.metrics.lock();
        if let Metric::Gauge {
            value: v,
            high_water,
        } = m.entry(key).or_insert(Metric::Gauge {
            value,
            high_water: value,
        }) {
            *v = value;
            *high_water = high_water.max(value);
        }
    }

    /// Adjust a gauge by a delta (creating it at zero first).
    pub fn gauge_add(&self, name: &str, labels: &[(&str, &str)], delta: f64) {
        if !self.is_enabled() {
            return;
        }
        let key = metric_key(name, labels);
        let mut m = self.metrics.lock();
        if let Metric::Gauge { value, high_water } = m.entry(key).or_insert(Metric::Gauge {
            value: 0.0,
            high_water: 0.0,
        }) {
            *value += delta;
            *high_water = high_water.max(*value);
        }
    }

    /// Observe a value into a histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if !self.is_enabled() {
            return;
        }
        let key = metric_key(name, labels);
        let mut m = self.metrics.lock();
        if let Metric::Histogram(h) = m.entry(key).or_insert(Metric::Histogram(Histogram::new())) {
            h.observe(value)
        }
    }

    /// Read one metric by exact key.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<Metric> {
        self.metrics.lock().get(&metric_key(name, labels)).cloned()
    }

    /// Current counter / gauge value (0 when absent).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.get(name, labels) {
            Some(Metric::Counter(v)) => v,
            Some(Metric::Gauge { value, .. }) => value,
            Some(Metric::Histogram(h)) => h.sum,
            None => 0.0,
        }
    }

    /// High-water mark of a gauge (0 when absent or not a gauge).
    pub fn high_water(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.get(name, labels) {
            Some(Metric::Gauge { high_water, .. }) => high_water,
            _ => 0.0,
        }
    }

    /// Flatten the registry into a diffable [`MetricsSnapshot`]: counters
    /// and gauges keep their key; a gauge additionally exports `<key>.hwm`;
    /// a histogram exports `.count`, `.sum`, `.min`, `.max`, `.p50`,
    /// `.p95`, `.p99`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock();
        let mut counters = BTreeMap::new();
        for (k, metric) in m.iter() {
            match metric {
                Metric::Counter(v) => {
                    counters.insert(k.clone(), *v);
                }
                Metric::Gauge { value, high_water } => {
                    counters.insert(k.clone(), *value);
                    counters.insert(format!("{k}.hwm"), *high_water);
                }
                Metric::Histogram(h) => {
                    counters.insert(format!("{k}.count"), h.count as f64);
                    counters.insert(format!("{k}.sum"), h.sum);
                    counters.insert(format!("{k}.min"), h.min);
                    counters.insert(format!("{k}.max"), h.max);
                    counters.insert(format!("{k}.p50"), h.quantile(0.50));
                    counters.insert(format!("{k}.p95"), h.quantile(0.95));
                    counters.insert(format!("{k}.p99"), h.quantile(0.99));
                }
            }
        }
        MetricsSnapshot { counters }
    }

    /// [`MetricRegistry::snapshot`] restricted to deterministic metrics:
    /// everything outside the `sched.` prefix, the chunk-size-dependent
    /// `net.chunks` series, and the scheduling-dependent `net.codec.*`
    /// cache-hit counters. This is the set the sequential-vs-parallel and
    /// chunk-size bit-identity tests compare.
    pub fn deterministic_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        snap.counters.retain(|k, _| {
            !k.starts_with(SCHED_PREFIX)
                && !k.starts_with(CHUNKS_PREFIX)
                && !k.starts_with(CODEC_PREFIX)
        });
        snap
    }

    /// Prometheus text exposition (metric names sanitized `.`/`-` → `_`;
    /// histograms emit `_bucket{le=...}`, `_sum` and `_count` series).
    pub fn render_prometheus(&self) -> String {
        let m = self.metrics.lock();
        let mut out = String::new();
        for (key, metric) in m.iter() {
            let (name, labels) = split_key(key);
            let pname = sanitize(name);
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = writeln!(out, "{pname}{} {}", brace(&labels), json_number(*v));
                }
                Metric::Gauge { value, high_water } => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = writeln!(out, "{pname}{} {}", brace(&labels), json_number(*value));
                    let _ = writeln!(
                        out,
                        "{pname}_high_water{} {}",
                        brace(&labels),
                        json_number(*high_water)
                    );
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    for (bound, cum) in h.cumulative_buckets() {
                        let mut ls = labels.clone();
                        ls.push(("le".to_string(), json_number(bound)));
                        let _ = writeln!(out, "{pname}_bucket{} {cum}", brace(&ls));
                    }
                    let mut ls = labels.clone();
                    ls.push(("le".to_string(), "+Inf".to_string()));
                    let _ = writeln!(out, "{pname}_bucket{} {}", brace(&ls), h.count);
                    let _ = writeln!(out, "{pname}_sum{} {}", brace(&labels), json_number(h.sum));
                    let _ = writeln!(out, "{pname}_count{} {}", brace(&labels), h.count);
                }
            }
        }
        out
    }

    /// Number of distinct metric keys.
    pub fn len(&self) -> usize {
        self.metrics.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.lock().is_empty()
    }

    pub fn clear(&self) {
        self.metrics.lock().clear();
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Split a rendered key back into `(name, labels)`.
fn split_key(key: &str) -> (&str, Vec<(String, String)>) {
    let Some(open) = key.find('{') else {
        return (key, Vec::new());
    };
    let name = &key[..open];
    let body = key[open + 1..].trim_end_matches('}');
    let mut labels = Vec::new();
    for part in body.split(',') {
        if let Some((k, v)) = part.split_once('=') {
            labels.push((k.to_string(), v.trim_matches('"').to_string()));
        }
    }
    (name, labels)
}

fn brace(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `le` bounds are numbers rendered as label strings.
        let _ = write!(out, "{k}={}", json_string(v));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let r = MetricRegistry::new();
        r.counter_add("c", &[], 2.0);
        r.counter_add("c", &[], 3.0);
        assert_eq!(r.value("c", &[]), 5.0);
        r.gauge_set("g", &[("engine", "db1")], 4.0);
        r.gauge_set("g", &[("engine", "db1")], 1.0);
        assert_eq!(r.value("g", &[("engine", "db1")]), 1.0);
        assert_eq!(r.high_water("g", &[("engine", "db1")]), 4.0);
        r.gauge_add("g", &[("engine", "db1")], 6.0);
        assert_eq!(r.high_water("g", &[("engine", "db1")]), 7.0);
        for v in [1.0, 2.0, 4.0, 100.0] {
            r.observe("h", &[("phase", "exec")], v);
        }
        let Some(Metric::Histogram(h)) = r.get("h", &[("phase", "exec")]) else {
            panic!("histogram missing");
        };
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 107.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricRegistry::new();
        r.set_enabled(false);
        r.counter_add("c", &[], 1.0);
        r.gauge_set("g", &[], 1.0);
        r.observe("h", &[], 1.0);
        assert!(r.is_empty());
    }

    #[test]
    fn histogram_quantiles_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in [0.5, 1.0, 3.0, 7.0, 8.0, 120.0] {
            h.observe(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            assert!(v >= h.min && v <= h.max);
            prev = v;
        }
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_merge_equals_single() {
        let values = [0.0, 0.25, 1.0, 2.0, 16.0, 16.0, 1024.0];
        let mut single = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, v) in values.iter().enumerate() {
            single.observe(*v);
            if i % 2 == 0 {
                a.observe(*v)
            } else {
                b.observe(*v)
            }
        }
        a.merge(&b);
        assert_eq!(a, single);
    }

    #[test]
    fn snapshot_flattens_and_filters() {
        let r = MetricRegistry::new();
        r.counter_add("x", &[], 1.0);
        r.gauge_set("g", &[], 2.0);
        r.observe("h", &[], 4.0);
        r.counter_add("sched.pool", &[], 9.0);
        r.counter_add("net.chunks", &[("purpose", "inter_dbms_pipeline")], 5.0);
        r.counter_add("net.codec.dict_reuse", &[], 3.0);
        r.counter_add("net.encoded_bytes", &[], 11.0);
        let s = r.snapshot();
        assert_eq!(s.get("x"), 1.0);
        assert_eq!(s.get("g.hwm"), 2.0);
        assert_eq!(s.get("h.count"), 1.0);
        assert_eq!(s.get("h.p50"), 4.0);
        assert_eq!(s.get("sched.pool"), 9.0);
        let d = r.deterministic_snapshot();
        assert_eq!(d.get("sched.pool"), 0.0);
        assert!(!d.counters.contains_key("sched.pool"));
        // Chunk counts scale with `stream_chunk_rows` — quarantined; the
        // encoded byte series is chunk-invariant and stays. Codec
        // cache-hit counts are scheduling-dependent — quarantined too.
        assert!(!d.counters.keys().any(|k| k.starts_with(CHUNKS_PREFIX)));
        assert!(!d.counters.keys().any(|k| k.starts_with(CODEC_PREFIX)));
        assert_eq!(s.get("net.codec.dict_reuse"), 3.0);
        assert_eq!(d.get("net.encoded_bytes"), 11.0);
    }

    #[test]
    fn prometheus_render_shape() {
        let r = MetricRegistry::new();
        r.counter_add("net.bytes", &[("movement", "implicit")], 10.0);
        r.gauge_set("ddl.objects_live", &[("engine", "db1")], 3.0);
        r.observe("latency_ms", &[("query", "Q3")], 7.5);
        let p = r.render_prometheus();
        assert!(p.contains("# TYPE net_bytes counter"), "{p}");
        assert!(p.contains("net_bytes{movement=\"implicit\"} 10"), "{p}");
        assert!(p.contains("ddl_objects_live{engine=\"db1\"} 3"), "{p}");
        assert!(
            p.contains("ddl_objects_live_high_water{engine=\"db1\"} 3"),
            "{p}"
        );
        assert!(
            p.contains("latency_ms_bucket{query=\"Q3\",le=\"8\"} 1"),
            "{p}"
        );
        assert!(
            p.contains("latency_ms_bucket{query=\"Q3\",le=\"+Inf\"} 1"),
            "{p}"
        );
        assert!(p.contains("latency_ms_count{query=\"Q3\"} 1"), "{p}");
    }

    #[test]
    fn metric_key_rendering() {
        assert_eq!(metric_key("a", &[]), "a");
        assert_eq!(
            metric_key("a", &[("x", "1"), ("y", "2")]),
            "a{x=\"1\",y=\"2\"}"
        );
    }
}
