//! Critical-path analysis over a finished [`QueryTrace`].
//!
//! The span tree already carries the full simulated timeline of a query:
//! consult round-trips, DDL deployments, materializations, the final
//! pipelined query. This module walks that tree and answers "*where did
//! the end-to-end time go?*" — attributing every instant of the query's
//! wall (simulated) clock to exactly one span, and every span segment to
//! one of four categories: **compute**, **transfer**, **consult**, **ddl**.
//!
//! Attribution arithmetic runs in integer **nanoseconds** quantized from
//! the simulated-ms clock (`round(ms * 1e6)`). Integer telescoping sums
//! are exact, so the category totals sum to the query's end-to-end time
//! *bit-for-bit* — a property the bench harness tests across
//! stream-chunk sizes. Floating-point telescoping
//! cannot make that guarantee; one nanosecond is six orders of magnitude
//! below anything the timing model resolves.
//!
//! The walk ignores `Operator` spans, which visualise rather than time
//! (proportional subdivisions of their Exec span). Transfer attribution
//! comes from the `work_ms` attribute the executor attaches to `Exec`
//! spans: the tail `work_ms` of an Exec span is engine compute, everything
//! before it is wire waiting.

use crate::span::{Span, SpanKind};
use crate::trace::QueryTrace;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nanoseconds per simulated millisecond (the quantization factor).
pub const NS_PER_MS: f64 = 1e6;

/// Quantize a simulated-ms instant to integer nanoseconds.
pub fn ns(ms: f64) -> i64 {
    (ms * NS_PER_MS).round() as i64
}

/// Integer nanoseconds back to simulated ms (display only).
pub fn ms(ns: i64) -> f64 {
    ns as f64 / NS_PER_MS
}

/// Where a slice of the critical path spent its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CritCategory {
    /// Engine work: scans, joins, aggregation, optimizer time, parsing.
    Compute,
    /// Wire waiting: materialization imports, pipeline drains, result
    /// shipping — the non-compute tail of Exec spans.
    Transfer,
    /// Metadata / EXPLAIN consulting round-trips.
    Consult,
    /// Delegation DDL round-trips.
    Ddl,
}

impl CritCategory {
    pub fn label(self) -> &'static str {
        match self {
            CritCategory::Compute => "compute",
            CritCategory::Transfer => "transfer",
            CritCategory::Consult => "consult",
            CritCategory::Ddl => "ddl",
        }
    }
}

/// One maximal run of the timeline owned by a single span.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalStep {
    pub span_id: u32,
    pub kind: SpanKind,
    pub name: String,
    /// Engine node (or `client`) the step ran on.
    pub lane: String,
    /// Segment start/end in quantized ns since the trace origin.
    pub start_ns: i64,
    pub end_ns: i64,
}

impl CriticalStep {
    pub(crate) fn dur_ns(&self) -> i64 {
        self.end_ns - self.start_ns
    }
}

/// One attributed slice: `(category, location) -> nanoseconds`. The
/// location is the owning lane, prefixed with the producing node for
/// transfer slices that know their edge (`cdb->hdb`).
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    pub category: CritCategory,
    pub location: String,
    pub ns: i64,
}

/// The critical path of one query: every instant of `[root start, root
/// end]` assigned to a span and a category.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CriticalPath {
    /// End-to-end simulated time, quantized.
    pub total_ns: i64,
    /// Maximal same-span runs, in timeline order.
    pub steps: Vec<CriticalStep>,
    /// Per-(category, location) totals, largest first (ties: by key).
    pub attribution: Vec<Attribution>,
}

impl CriticalPath {
    /// Per-category totals (locations folded together).
    pub(crate) fn category_ns(&self) -> BTreeMap<&'static str, i64> {
        let mut out = BTreeMap::new();
        for a in &self.attribution {
            *out.entry(a.category.label()).or_insert(0) += a.ns;
        }
        out
    }

    /// Exact sum of every attributed slice — equals `total_ns` by
    /// construction (integer telescoping).
    pub fn attributed_ns(&self) -> i64 {
        self.attribution.iter().map(|a| a.ns).sum()
    }

    /// The largest single attribution slice, if any.
    pub(crate) fn dominant(&self) -> Option<&Attribution> {
        self.attribution.first()
    }

    /// Share of the end-to-end time, in percent.
    pub(crate) fn share_pct(&self, ns: i64) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / self.total_ns as f64
        }
    }

    /// The `EXPLAIN ANALYZE`-style section appended to query reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let head = match self.dominant() {
            Some(d) => format!(
                "critical path: {} spans, {:.0}% {} on {}",
                self.steps.len(),
                self.share_pct(d.ns),
                d.category.label(),
                d.location
            ),
            None => "critical path: empty trace".to_string(),
        };
        let _ = writeln!(out, "{head}");
        let cats = self.category_ns();
        // Categories largest first; stable order on ties.
        let mut order: Vec<(&str, i64)> = cats.into_iter().collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (cat, total) in order {
            let mut locs: Vec<&Attribution> = self
                .attribution
                .iter()
                .filter(|a| a.category.label() == cat)
                .collect();
            locs.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.location.cmp(&b.location)));
            let detail: Vec<String> = locs
                .iter()
                .map(|a| format!("{} {:.3}", a.location, ms(a.ns)))
                .collect();
            let _ = writeln!(
                out,
                "  {cat:<8} {:>10.3} ms {:>5.1}%  ({})",
                ms(total),
                self.share_pct(total),
                detail.join(", ")
            );
        }
        out
    }
}

/// Per-span info the sweep needs.
struct Candidate<'a> {
    span: &'a Span,
    start_ns: i64,
    end_ns: i64,
    /// Higher wins when spans overlap: leaf work > phase > query root.
    priority: u8,
}

/// Compute the critical path of the (first) query root in `trace`.
pub fn critical_path(trace: &QueryTrace) -> Option<CriticalPath> {
    let root = trace.root()?;
    critical_path_of(trace, root.id)
}

/// Critical paths of every root in a merged multi-query trace, in span
/// order.
pub fn critical_paths(trace: &QueryTrace) -> Vec<CriticalPath> {
    trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .filter_map(|s| critical_path_of(trace, s.id))
        .collect()
}

/// Critical path of the subtree rooted at `root_id`.
pub(crate) fn critical_path_of(trace: &QueryTrace, root_id: u32) -> Option<CriticalPath> {
    let spans = &trace.spans;
    let root = spans.iter().find(|s| s.id == root_id)?;
    let root_start = ns(root.start_ms);
    let root_end = ns(root.end_ms());
    if root_end <= root_start {
        return Some(CriticalPath {
            total_ns: 0,
            steps: Vec::new(),
            attribution: Vec::new(),
        });
    }

    // Root ancestor of every span (spans are id-indexed, parents precede
    // children).
    let mut root_of: Vec<u32> = Vec::with_capacity(spans.len());
    for s in spans {
        let r = match s.parent {
            Some(p) => root_of[p as usize],
            None => s.id,
        };
        root_of.push(r);
    }

    // Candidate spans of this root's subtree. Operator spans are
    // proportional subdivisions and Task spans group their DDL — both
    // excluded. Exec spans nested under another Exec span (remote-producer
    // profile spans) are excluded too: their parent already owns the time.
    let kind_of = |id: u32| spans[id as usize].kind;
    let mut candidates: Vec<Candidate<'_>> = Vec::new();
    for s in spans {
        if root_of[s.id as usize] != root_id {
            continue;
        }
        let priority = match s.kind {
            SpanKind::Consult | SpanKind::Ddl => 3,
            SpanKind::Exec => match s.parent {
                Some(p) if kind_of(p) == SpanKind::Exec => continue,
                _ => 3,
            },
            SpanKind::Phase => 1,
            SpanKind::Query => {
                if s.id == root_id {
                    0
                } else {
                    continue;
                }
            }
            SpanKind::Task | SpanKind::Operator => continue,
        };
        let start_ns = ns(s.start_ms).max(root_start);
        let end_ns = ns(s.end_ms()).min(root_end);
        if end_ns <= start_ns && priority > 0 {
            continue; // zero-length (e.g. cache-hit consults) never owns time
        }
        candidates.push(Candidate {
            span: s,
            start_ns,
            end_ns,
            priority,
        });
    }

    // Elementary intervals between all candidate boundaries.
    let mut cuts: Vec<i64> = candidates
        .iter()
        .flat_map(|c| [c.start_ns, c.end_ns])
        .chain([root_start, root_end])
        .filter(|t| (root_start..=root_end).contains(t))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();

    // Assign each elementary interval to its most specific active span:
    // highest priority, then latest end (the gating span in an overlap),
    // then latest start (innermost), then highest id.
    let mut steps: Vec<CriticalStep> = Vec::new();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if hi <= lo {
            continue;
        }
        let owner = candidates
            .iter()
            .filter(|c| c.start_ns <= lo && c.end_ns >= hi)
            .max_by_key(|c| (c.priority, c.end_ns, c.start_ns, c.span.id))
            .expect("the root candidate covers every interval");
        match steps.last_mut() {
            Some(prev) if prev.span_id == owner.span.id && prev.end_ns == lo => {
                prev.end_ns = hi;
            }
            _ => steps.push(CriticalStep {
                span_id: owner.span.id,
                kind: owner.span.kind,
                name: owner.span.name.clone(),
                lane: owner.span.lane.clone(),
                start_ns: lo,
                end_ns: hi,
            }),
        }
    }

    // Attribute each step's interval to categories. Exec spans split at
    // `end - work_ms`: the tail is engine compute, the head wire waiting.
    let mut attribution: BTreeMap<(CritCategory, String), i64> = BTreeMap::new();
    let mut add = |cat: CritCategory, location: String, dur: i64| {
        if dur > 0 {
            *attribution.entry((cat, location)).or_insert(0) += dur;
        }
    };
    for step in &steps {
        let span = &spans[step.span_id as usize];
        match step.kind {
            SpanKind::Consult => add(CritCategory::Consult, step.lane.clone(), step.dur_ns()),
            SpanKind::Ddl => add(CritCategory::Ddl, step.lane.clone(), step.dur_ns()),
            SpanKind::Exec => {
                let work_ns = span
                    .attr("work_ms")
                    .and_then(|v| v.parse::<f64>().ok())
                    .map(ns)
                    .unwrap_or(i64::MAX);
                // Transfer head ends where the compute tail begins.
                let split = (ns(span.end_ms()) - work_ns)
                    .clamp(step.start_ns, step.end_ns)
                    .max(step.start_ns);
                let edge = match span.attr("from") {
                    Some(from) => format!("{from}->{}", step.lane),
                    None => format!("->{}", step.lane),
                };
                add(CritCategory::Transfer, edge, split - step.start_ns);
                add(
                    CritCategory::Compute,
                    step.lane.clone(),
                    step.end_ns - split,
                );
            }
            // Phase gaps: ann gaps are free consult probes, everything
            // else (parse, optimizer, pipelined producer work) is compute.
            SpanKind::Phase if span.name == "ann" => {
                add(CritCategory::Consult, step.lane.clone(), step.dur_ns());
            }
            _ => add(CritCategory::Compute, step.lane.clone(), step.dur_ns()),
        }
    }
    let mut attribution: Vec<Attribution> = attribution
        .into_iter()
        .map(|((category, location), ns)| Attribution {
            category,
            location,
            ns,
        })
        .collect();
    attribution.sort_by(|a, b| {
        b.ns.cmp(&a.ns)
            .then(a.category.cmp(&b.category))
            .then(a.location.cmp(&b.location))
    });

    Some(CriticalPath {
        total_ns: root_end - root_start,
        steps,
        attribution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::TraceCollector;

    /// query[0,100] { prep[0,20]{consult[5,20]}, lopt[20,30],
    /// exec[30,100]{ ddl[30,40], mat exec[40,70] (work 10),
    /// final exec[70,100] (work 25) } }
    fn sample() -> QueryTrace {
        let c = TraceCollector::new();
        let q = c.span(SpanKind::Query, "query", "client", None, 0.0, 100.0);
        let p = c.span(SpanKind::Phase, "prep", "client", Some(q), 0.0, 20.0);
        c.span(
            SpanKind::Consult,
            "metadata t",
            "client",
            Some(p),
            5.0,
            15.0,
        );
        c.span(SpanKind::Phase, "lopt", "client", Some(q), 20.0, 10.0);
        let e = c.span(SpanKind::Phase, "exec", "client", Some(q), 30.0, 70.0);
        let t = c.span(SpanKind::Task, "task 0", "cdb", Some(e), 30.0, 10.0);
        c.span(SpanKind::Ddl, "create view", "cdb", Some(t), 30.0, 10.0);
        let m = c.span(
            SpanKind::Exec,
            "materialize t0 -> t1",
            "hdb",
            Some(e),
            40.0,
            30.0,
        );
        c.attr(m, "work_ms", "10");
        c.attr(m, "from", "cdb");
        let f = c.span(SpanKind::Exec, "xdb query", "hdb", Some(e), 70.0, 30.0);
        c.attr(f, "work_ms", "25");
        c.finish()
    }

    #[test]
    fn attribution_sums_exactly_to_end_to_end() {
        let cp = critical_path(&sample()).unwrap();
        assert_eq!(cp.total_ns, ns(100.0));
        assert_eq!(cp.attributed_ns(), cp.total_ns);
        let sum: i64 = cp.steps.iter().map(CriticalStep::dur_ns).sum();
        assert_eq!(sum, cp.total_ns);
    }

    #[test]
    fn categories_and_split() {
        let cp = critical_path(&sample()).unwrap();
        let cats = cp.category_ns();
        // consult: [5,20] probe; compute: [0,5] parse + [20,30] lopt +
        // 10 mat work + 25 final work; ddl: [30,40];
        // transfer: (30-10) mat head + (30-25) final head.
        assert_eq!(cats["consult"], ns(15.0));
        assert_eq!(cats["ddl"], ns(10.0));
        assert_eq!(cats["compute"], ns(5.0 + 10.0 + 10.0 + 25.0));
        assert_eq!(cats["transfer"], ns(20.0 + 5.0));
        let d = cp.dominant().unwrap();
        assert_eq!(d.category, CritCategory::Compute);
        // Transfer slices carry the producing edge.
        assert!(cp
            .attribution
            .iter()
            .any(|a| a.category == CritCategory::Transfer && a.location == "cdb->hdb"));
    }

    #[test]
    fn steps_are_timeline_ordered_maximal_runs() {
        let cp = critical_path(&sample()).unwrap();
        for w in cp.steps.windows(2) {
            assert_eq!(w[0].end_ns, w[1].start_ns, "steps tile the timeline");
            assert!(w[0].span_id != w[1].span_id, "adjacent steps merged");
        }
        assert_eq!(cp.steps.first().unwrap().start_ns, 0);
        assert_eq!(cp.steps.last().unwrap().end_ns, ns(100.0));
        // 7 steps: prep-gap, consult, lopt, ddl, mat, final, — mat/final
        // tile [40,100], prep gap [0,5].
        assert_eq!(cp.steps.len(), 6);
    }

    #[test]
    fn overlapping_execs_resolve_to_the_gating_span() {
        let c = TraceCollector::new();
        let q = c.span(SpanKind::Query, "query", "client", None, 0.0, 10.0);
        let e = c.span(SpanKind::Phase, "exec", "client", Some(q), 0.0, 10.0);
        let a = c.span(SpanKind::Exec, "a", "n1", Some(e), 0.0, 10.0);
        c.attr(a, "work_ms", "10");
        let b = c.span(SpanKind::Exec, "b", "n2", Some(e), 0.0, 8.0);
        c.attr(b, "work_ms", "8");
        let cp = critical_path(&c.finish()).unwrap();
        // `a` ends later, so it owns the whole window.
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.steps[0].name, "a");
        assert_eq!(cp.category_ns()["compute"], ns(10.0));
    }

    #[test]
    fn render_names_dominant_share() {
        let cp = critical_path(&sample()).unwrap();
        let r = cp.render();
        assert!(r.starts_with("critical path: 6 spans"), "{r}");
        assert!(r.contains("compute"), "{r}");
        assert!(r.contains("cdb->hdb"), "{r}");
        // Empty trace renders without panicking.
        assert!(critical_path(&QueryTrace::default()).is_none());
    }

    #[test]
    fn merged_traces_yield_one_path_per_root() {
        let mut t = sample();
        let mut second = sample();
        second.shift_ms(100.0);
        t.merge(second);
        let paths = critical_paths(&t);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].total_ns, paths[1].total_ns);
        assert_eq!(paths[0].category_ns(), paths[1].category_ns());
    }
}
