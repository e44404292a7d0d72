//! The span model: one interval of simulated time, attributed to a lane
//! (an engine node or the client) and linked to a parent.

use std::borrow::Cow;

/// Index of a span inside its trace (== push order in the collector).
pub type SpanId = u32;

/// What a span represents in the query lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The whole query, root of the tree.
    Query,
    /// One optimizer/executor phase (prep / lopt / ann / exec).
    Phase,
    /// One delegation-plan task deployed onto a DBMS.
    Task,
    /// One DDL round-trip of the delegation script.
    Ddl,
    /// Engine execution work (a materialization, the final XDB query, or a
    /// remote producer feeding a pipelined foreign scan).
    Exec,
    /// One physical operator inside an engine execution.
    Operator,
    /// One consulting round-trip (metadata fetch or EXPLAIN probe).
    Consult,
}

impl SpanKind {
    /// Stable lowercase label, used as the Chrome-trace `cat` and in the
    /// text report.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Phase => "phase",
            SpanKind::Task => "task",
            SpanKind::Ddl => "ddl",
            SpanKind::Exec => "exec",
            SpanKind::Operator => "operator",
            SpanKind::Consult => "consult",
        }
    }
}

/// One interval of simulated time.
///
/// The span stores its *duration* rather than its end so that phase values
/// projected out of the trace are bit-exact: `(a + b) - a` is not `b` in
/// floating point, but a stored `dur_ms` round-trips unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    /// Parent span; `None` only for the query root (and for roots of
    /// merged multi-query traces).
    pub parent: Option<SpanId>,
    pub kind: SpanKind,
    pub name: String,
    /// Display lane: an engine node name or the client node.
    pub lane: String,
    /// Start, in simulated ms since the trace origin.
    pub start_ms: f64,
    pub dur_ms: f64,
    /// Sorted-insertion-order key/value annotations; a key is mostly a
    /// literal, kept without a copy.
    pub attrs: Vec<(Cow<'static, str>, String)>,
}

impl Span {
    pub fn end_ms(&self) -> f64 {
        self.start_ms + self.dur_ms
    }

    pub(crate) fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}
