//! The trace collector: a lock-cheap sink both executors feed.
//!
//! All span emission on the hot paths happens single-threaded (the client
//! builds the optimizer phases; the executors emit the execution timeline
//! post-barrier, in script order), so a plain mutex over a `Vec` is
//! uncontended.

use crate::span::{Span, SpanId, SpanKind};
use crate::trace::QueryTrace;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::BTreeMap;

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    counters: BTreeMap<String, f64>,
}

/// Collects spans and counters for one query submission.
pub struct TraceCollector {
    inner: Mutex<Inner>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// A collector for one submission (the coarse span set is a few dozen
    /// entries per query).
    pub fn new() -> TraceCollector {
        TraceCollector {
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Record a span; returns its id.
    pub fn span(
        &self,
        kind: SpanKind,
        name: impl Into<String>,
        lane: impl Into<String>,
        parent: Option<SpanId>,
        start_ms: f64,
        dur_ms: f64,
    ) -> SpanId {
        let mut inner = self.inner.lock();
        let id = inner.spans.len() as SpanId;
        inner.spans.push(Span {
            id,
            parent,
            kind,
            name: name.into(),
            lane: lane.into(),
            start_ms,
            dur_ms,
            attrs: Vec::new(),
        });
        id
    }

    /// Attach a key/value annotation to an existing span. A literal key is
    /// stored as it is, without a copy.
    pub fn attr(&self, id: SpanId, key: impl Into<Cow<'static, str>>, value: impl Into<String>) {
        if let Some(span) = self.inner.lock().spans.get_mut(id as usize) {
            span.attrs.push((key.into(), value.into()));
        }
    }

    /// Set the duration of a span emitted before its extent was known.
    pub fn set_dur(&self, id: SpanId, dur_ms: f64) {
        if let Some(span) = self.inner.lock().spans.get_mut(id as usize) {
            span.dur_ms = dur_ms;
        }
    }

    /// Bump a named counter. Only a new counter copies its name.
    pub fn add(&self, counter: &str, amount: f64) {
        let counters = &mut self.inner.lock().counters;
        match counters.get_mut(counter) {
            Some(total) => *total += amount,
            // `0.0 + amount`, not `amount`: a first `-0.0` is stored as `+0.0`.
            None => {
                counters.insert(counter.to_string(), 0.0 + amount);
            }
        }
    }

    /// Consume the collector into its trace.
    pub fn finish(self) -> QueryTrace {
        let inner = self.inner.into_inner();
        QueryTrace {
            spans: inner.spans,
            counters: inner.counters,
        }
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("TraceCollector")
            .field("spans", &inner.spans.len())
            .field("counters", &inner.counters.len())
            .finish()
    }
}

/// Emission context threaded through the executors: the collector, the
/// simulated-time origin of the current section, and the parent span new
/// spans should hang off.
#[derive(Clone, Copy)]
pub struct TraceCtx<'a> {
    pub collector: &'a TraceCollector,
    /// Added to every `start_ms` passed to [`TraceCtx::span`]: executor
    /// timelines are relative to the end of the optimizer phases.
    pub base_ms: f64,
    pub parent: Option<SpanId>,
}

impl<'a> TraceCtx<'a> {
    pub fn new(
        collector: &'a TraceCollector,
        base_ms: f64,
        parent: Option<SpanId>,
    ) -> TraceCtx<'a> {
        TraceCtx {
            collector,
            base_ms,
            parent,
        }
    }

    /// Record a span under this context's parent; `start_ms` is relative
    /// to `base_ms`.
    pub fn span(
        &self,
        kind: SpanKind,
        name: impl Into<String>,
        lane: impl Into<String>,
        start_ms: f64,
        dur_ms: f64,
    ) -> SpanId {
        self.collector.span(
            kind,
            name,
            lane,
            self.parent,
            self.base_ms + start_ms,
            dur_ms,
        )
    }

    /// Record a span under an explicit parent; `start_ms` is relative to
    /// `base_ms`.
    pub fn span_under(
        &self,
        parent: SpanId,
        kind: SpanKind,
        name: impl Into<String>,
        lane: impl Into<String>,
        start_ms: f64,
        dur_ms: f64,
    ) -> SpanId {
        self.collector.span(
            kind,
            name,
            lane,
            Some(parent),
            self.base_ms + start_ms,
            dur_ms,
        )
    }

    pub fn add(&self, counter: &str, amount: f64) {
        self.collector.add(counter, amount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_spans_and_counters() {
        let c = TraceCollector::new();
        let root = c.span(SpanKind::Query, "q", "client", None, 0.0, 0.0);
        let child = c.span(SpanKind::Phase, "prep", "client", Some(root), 0.0, 10.0);
        c.attr(child, "k", "v");
        c.set_dur(root, 10.0);
        c.add("consults", 2.0);
        c.add("consults", 1.0);
        // A counter starts at `+0.0`: a first `-0.0` leaves it positive.
        c.add("zero", -0.0);
        let t = c.finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].dur_ms, 10.0);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[1].attr("k"), Some("v"));
        assert_eq!(t.counter("consults"), 3.0);
        assert_eq!(t.counters.get("zero").map(|v| v.to_bits()), Some(0));
    }

    #[test]
    fn ctx_applies_base_and_parent() {
        let c = TraceCollector::new();
        let root = c.span(SpanKind::Query, "q", "client", None, 0.0, 0.0);
        let ctx = TraceCtx::new(&c, 100.0, Some(root));
        let id = ctx.span(SpanKind::Exec, "work", "db1", 5.0, 2.0);
        let t = c.finish();
        assert_eq!(t.spans[id as usize].start_ms, 105.0);
        assert_eq!(t.spans[id as usize].parent, Some(root));
    }
}
