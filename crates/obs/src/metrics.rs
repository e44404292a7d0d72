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
//!   counts depend on the chunk size each statement carries, which must
//!   never leak into determinism comparisons. The `net.codec.` series
//!   (`net.codec.bytes`, encoded bytes by codec) are left out too; their
//!   total is the deterministic `net.encoded_bytes`.

use crate::json::{json_number, json_string};
use crate::trace::MetricsSnapshot;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasher;

/// Name prefix for scheduling-dependent metrics, excluded from the
/// sequential-vs-parallel bit-identity guarantee.
pub const SCHED_PREFIX: &str = "sched.";

/// Name prefix for transport-chunk counts, excluded from determinism
/// comparisons because they scale with the statement's chunk size
/// (results, ledgers, timings and every other metric stay bit-identical
/// across chunk sizes).
pub const CHUNKS_PREFIX: &str = "net.chunks";

/// Name prefix for the per-codec byte counts (`net.codec.bytes`), excluded
/// from determinism comparisons; their total is `net.encoded_bytes`.
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

/// One series: a metric name, its labels in the caller's order, and its
/// value.
#[derive(Debug)]
struct Series {
    name: Box<str>,
    labels: Box<[(Box<str>, Box<str>)]>,
    metric: Metric,
}

impl Series {
    fn is(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        *self.name == *name
            && self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|((k, v), (lk, lv))| **k == **lk && **v == **lv)
    }

    fn labels(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        self.labels.iter().map(|(k, v)| (&**k, &**v))
    }

    /// The series' name plus rendered labels, e.g.
    /// `ddl.objects_live{engine="db1"}`: how it is spelled in snapshots and
    /// exports. Label values are JSON-escaped, so two label lists never
    /// render alike. Label order is the caller's order and is part of the
    /// key, so call sites must be consistent (they are: every site spells
    /// its labels once).
    fn key(&self) -> String {
        format!("{}{}", self.name, brace(self.labels()))
    }
}

/// Series filed by a hash of their name and labels; a bucket holds the
/// series whose hashes collide.
type SeriesMap = HashMap<u64, Vec<Series>>;

/// The hash `map` files the series `name{labels}` under, from the map's own
/// `RandomState` (std's keyed SipHash). Label values can be caller-supplied
/// text, a `QueryServer` tenant for one, so the registry keeps std's
/// protection against keys crafted to collide; exports sort by key, so the
/// random keys reach no output.
fn series_hash(map: &SeriesMap, name: &str, labels: &[(&str, &str)]) -> u64 {
    map.hasher().hash_one((name, labels))
}

/// A federation's metric registry.
///
/// One mutex around the series, filed by the hash of name and labels. An
/// update hashes its arguments, probes the map and compares the few series
/// in that bucket field by field: no key is built and nothing is allocated
/// unless the series is new, so the registry stays cheap enough to be
/// always-on (the `fig9` overhead budget is bounded in EXPERIMENTS.md).
/// Snapshots and exports render keys and sort by them.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    series: Mutex<SeriesMap>,
}

impl MetricRegistry {
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    /// Apply `update` to the series `name{labels}`, made by `new` first if
    /// there is none. Nothing is allocated or formatted for a series that
    /// exists.
    fn update(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        new: impl FnOnce() -> Metric,
        update: impl FnOnce(&mut Metric),
    ) {
        let mut series = self.series.lock();
        let hash = series_hash(&series, name, labels);
        let bucket = series.entry(hash).or_default();
        let at = match bucket.iter().position(|s| s.is(name, labels)) {
            Some(at) => at,
            None => {
                bucket.push(Series {
                    name: name.into(),
                    labels: labels
                        .iter()
                        .map(|(k, v)| ((*k).into(), (*v).into()))
                        .collect(),
                    metric: new(),
                });
                bucket.len() - 1
            }
        };
        update(&mut bucket[at].metric);
    }

    /// Add to a counter (creating it at zero).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], amount: f64) {
        self.update(
            name,
            labels,
            || Metric::Counter(0.0),
            |m| {
                if let Metric::Counter(v) = m {
                    *v += amount
                }
            },
        );
    }

    /// Set a gauge, tracking its high-water mark.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.update(
            name,
            labels,
            || Metric::Gauge {
                value,
                high_water: value,
            },
            |m| {
                if let Metric::Gauge {
                    value: v,
                    high_water,
                } = m
                {
                    *v = value;
                    *high_water = high_water.max(value);
                }
            },
        );
    }

    /// Observe a value into a histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.update(
            name,
            labels,
            || Metric::Histogram(Histogram::new()),
            |m| {
                if let Metric::Histogram(h) = m {
                    h.observe(value)
                }
            },
        );
    }

    /// Read one metric by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<Metric> {
        let series = self.series.lock();
        series
            .get(&series_hash(&series, name, labels))?
            .iter()
            .find(|s| s.is(name, labels))
            .map(|s| s.metric.clone())
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

    /// Flatten the registry into a [`MetricsSnapshot`]: counters
    /// and gauges keep their key; a gauge additionally exports `<key>.hwm`;
    /// a histogram exports `.count`, `.sum`, `.min`, `.max`, `.p50`,
    /// `.p95`, `.p99`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = self.series.lock();
        let mut counters = BTreeMap::new();
        for s in series.values().flatten() {
            let k = s.key();
            match &s.metric {
                Metric::Counter(v) => {
                    counters.insert(k, *v);
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
    /// `net.chunks` series and the per-codec `net.codec.*` byte counts.
    /// This is the set the sequential-vs-parallel and
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
        let series = self.series.lock();
        let mut sorted: Vec<(String, &Series)> =
            series.values().flatten().map(|s| (s.key(), s)).collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (_, s) in sorted {
            let pname = sanitize(&s.name);
            let labels = brace(s.labels());
            match &s.metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = writeln!(out, "{pname}{labels} {}", json_number(*v));
                }
                Metric::Gauge { value, high_water } => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = writeln!(out, "{pname}{labels} {}", json_number(*value));
                    let _ = writeln!(
                        out,
                        "{pname}_high_water{labels} {}",
                        json_number(*high_water)
                    );
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    // `le` bounds are numbers rendered as label strings.
                    let with_le = |le: &str| brace(s.labels().chain([("le", le)]));
                    for (bound, cum) in h.cumulative_buckets() {
                        let le = with_le(&json_number(bound));
                        let _ = writeln!(out, "{pname}_bucket{le} {cum}");
                    }
                    let le = with_le("+Inf");
                    let _ = writeln!(out, "{pname}_bucket{le} {}", h.count);
                    let _ = writeln!(out, "{pname}_sum{labels} {}", json_number(h.sum));
                    let _ = writeln!(out, "{pname}_count{labels} {}", h.count);
                }
            }
        }
        out
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.lock().values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// `{k="v",…}` with every value JSON-escaped, or nothing for no labels.
fn brace<'a>(labels: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut out = String::new();
    for (k, v) in labels {
        out.push(if out.is_empty() { '{' } else { ',' });
        let _ = write!(out, "{k}={}", json_string(v));
    }
    if !out.is_empty() {
        out.push('}');
    }
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
    fn snapshot_flattens_and_filters() {
        let r = MetricRegistry::new();
        r.counter_add("x", &[], 1.0);
        r.gauge_set("g", &[], 2.0);
        r.observe("h", &[], 4.0);
        r.counter_add("sched.pool", &[], 9.0);
        r.counter_add("net.chunks", &[("purpose", "inter_dbms_pipeline")], 5.0);
        r.counter_add("net.codec.bytes", &[("codec", "dict")], 3.0);
        r.counter_add("net.encoded_bytes", &[], 11.0);
        let s = r.snapshot();
        assert_eq!(s.counters["x"], 1.0);
        assert_eq!(s.counters["g.hwm"], 2.0);
        assert_eq!(s.counters["h.count"], 1.0);
        assert_eq!(s.counters["h.p50"], 4.0);
        assert_eq!(s.counters["sched.pool"], 9.0);
        let d = r.deterministic_snapshot();
        assert!(!d.counters.contains_key("sched.pool"));
        // Chunk counts scale with the chunk size — quarantined; the
        // encoded byte series is chunk-invariant and stays. Per-codec
        // bytes are quarantined too.
        assert!(!d.counters.keys().any(|k| k.starts_with(CHUNKS_PREFIX)));
        assert!(!d.counters.keys().any(|k| k.starts_with(CODEC_PREFIX)));
        assert_eq!(s.counters["net.codec.bytes{codec=\"dict\"}"], 3.0);
        assert_eq!(d.counters["net.encoded_bytes"], 11.0);
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
        let r = MetricRegistry::new();
        r.counter_add("a", &[], 1.0);
        r.counter_add("a", &[("x", "1"), ("y", "2")], 1.0);
        r.counter_add("a", &[("x", "q\"")], 1.0);
        let keys: Vec<String> = r.snapshot().counters.into_keys().collect();
        assert_eq!(keys, ["a", "a{x=\"1\",y=\"2\"}", "a{x=\"q\\\"\"}"]);
    }

    /// Label values are caller-supplied text (a `QueryServer` tenant, for
    /// one): a value that spells other labels is still one label.
    #[test]
    fn label_values_neither_collide_nor_split() {
        let r = MetricRegistry::new();
        let forged = [("t", "a\",u=\"b")];
        let honest = [("t", "a"), ("u", "b")];
        r.counter_add("c", &forged, 1.0);
        r.counter_add("c", &honest, 2.0);
        r.counter_add("c", &[("t", "x,y")], 4.0);
        assert_eq!(r.len(), 3);
        assert_eq!(r.value("c", &forged), 1.0);
        assert_eq!(r.value("c", &honest), 2.0);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 3);
        assert_eq!(s.counters["c{t=\"a\\\",u=\\\"b\"}"], 1.0);
        assert_eq!(s.counters["c{t=\"a\",u=\"b\"}"], 2.0);
        let p = r.render_prometheus();
        assert!(p.contains("c{t=\"a\\\",u=\\\"b\"} 1\n"), "{p}");
        assert!(p.contains("c{t=\"a\",u=\"b\"} 2\n"), "{p}");
        assert!(p.contains("c{t=\"x,y\"} 4\n"), "{p}");
    }

    #[test]
    fn exports_are_sorted_by_key() {
        let r = MetricRegistry::new();
        for (name, engine) in [("b", "db2"), ("a", "db9"), ("b", "db1"), ("a", "")] {
            r.counter_add(name, &[("engine", engine)], 1.0);
        }
        r.counter_add("a", &[], 1.0);
        let keys: Vec<String> = r.snapshot().counters.into_keys().collect();
        assert_eq!(
            keys,
            [
                "a",
                "a{engine=\"\"}",
                "a{engine=\"db9\"}",
                "b{engine=\"db1\"}",
                "b{engine=\"db2\"}"
            ]
        );
        let p = r.render_prometheus();
        let series: Vec<&str> = p.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            series,
            [
                "a 1",
                "a{engine=\"\"} 1",
                "a{engine=\"db9\"} 1",
                "b{engine=\"db1\"} 1",
                "b{engine=\"db2\"} 1"
            ]
        );
    }
}
