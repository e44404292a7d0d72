//! The finished trace of one (or several merged) query submissions and
//! its two sinks, Chrome `trace_event` JSON and an `EXPLAIN ANALYZE`-style
//! text report; and the flat counter snapshot the metric registry
//! flattens into.

use crate::json::{self, Value};
use crate::span::{Span, SpanId, SpanKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Spans plus counters of one query submission (or a merged workload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// Spans in emission order; a span's parent always precedes it.
    pub spans: Vec<Span>,
    pub counters: BTreeMap<String, f64>,
}

impl QueryTrace {
    /// The root span (the first parentless one), if any.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Summed duration of phase spans with the given name.
    pub fn phase_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Phase && s.name == name)
            .map(|s| s.dur_ms)
            .sum()
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// End of the last span (simulated ms since origin).
    pub fn end_ms(&self) -> f64 {
        self.spans.iter().map(Span::end_ms).fold(0.0, f64::max)
    }

    /// Display lanes in order of first appearance (this is the Chrome
    /// thread order, so it is deterministic).
    pub fn lanes(&self) -> Vec<String> {
        let mut lanes: Vec<String> = Vec::new();
        for s in &self.spans {
            if !lanes.contains(&s.lane) {
                lanes.push(s.lane.clone());
            }
        }
        lanes
    }

    /// Shift every span by `offset_ms` (used when concatenating the traces
    /// of a workload onto one timeline).
    pub fn shift_ms(&mut self, offset_ms: f64) {
        for s in &mut self.spans {
            s.start_ms += offset_ms;
        }
    }

    /// Append another trace: its span ids are rebased past ours, its
    /// counters are summed into ours. The caller is responsible for
    /// shifting the other trace's timeline first if overlap is unwanted.
    pub fn merge(&mut self, other: QueryTrace) {
        let base = self.spans.len() as SpanId;
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
    }

    /// `EXPLAIN ANALYZE`-style tree report.
    pub fn render_text(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p as usize].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        for &r in &roots {
            self.render_node(&mut out, &children, r, 0);
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k} = {v}");
            }
        }
        out
    }

    fn render_node(&self, out: &mut String, children: &[Vec<usize>], idx: usize, depth: usize) {
        let s = &self.spans[idx];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "{} [{}] {:.3}..{:.3} ms ({:.3} ms) @{}",
            s.name,
            s.kind.label(),
            s.start_ms,
            s.end_ms(),
            s.dur_ms,
            s.lane
        );
        for (k, v) in &s.attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for &c in &children[idx] {
            self.render_node(out, children, c, depth + 1);
        }
    }

    /// Chrome `trace_event` JSON: one process, one thread ("lane") per
    /// engine node and the client, `X` complete events with
    /// microsecond timestamps, and `M` metadata events naming the lanes.
    ///
    /// Open in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let lanes = self.lanes();
        let tid = |lane: &str| lanes.iter().position(|l| l == lane).unwrap_or(0) + 1;
        let meta = |tid: usize, name: &str, args: Value| {
            json::object([
                ("ph", "M".into()),
                ("pid", 1u64.into()),
                ("tid", (tid as u64).into()),
                ("name", name.into()),
                ("args", args),
            ])
        };
        let mut events = vec![meta(
            0,
            "process_name",
            json::object([("name", "xdb".into())]),
        )];
        for (i, lane) in lanes.iter().enumerate() {
            events.push(meta(
                i + 1,
                "thread_name",
                json::object([("name", lane.as_str().into())]),
            ));
            // Keep the lane order stable in viewers that sort by index.
            events.push(meta(
                i + 1,
                "thread_sort_index",
                json::object([("sort_index", (i as u64 + 1).into())]),
            ));
        }
        for s in &self.spans {
            let mut args = vec![
                ("span".to_string(), u64::from(s.id).into()),
                ("lane".to_string(), s.lane.as_str().into()),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), u64::from(p).into()));
            }
            for (k, v) in &s.attrs {
                args.push((k.to_string(), v.as_str().into()));
            }
            events.push(json::object([
                ("ph", "X".into()),
                ("pid", 1u64.into()),
                ("tid", (tid(&s.lane) as u64).into()),
                ("ts", (s.start_ms * 1000.0).into()),
                ("dur", (s.dur_ms * 1000.0).into()),
                ("name", s.name.as_str().into()),
                ("cat", s.kind.label().into()),
                ("args", Value::Object(args)),
            ]));
        }
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), (*v).into()))
            .collect();
        let mut out = json::object([
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", "ms".into()),
            ("otherData", Value::Object(counters)),
        ])
        .to_json();
        out.push('\n');
        out
    }
}

/// Counters of one run, by key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k} = {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::TraceCollector;
    use crate::json::{json_number, json_string};

    fn sample() -> QueryTrace {
        let c = TraceCollector::new();
        let q = c.span(SpanKind::Query, "q1", "client", None, 0.0, 30.0);
        let p = c.span(SpanKind::Phase, "prep", "client", Some(q), 0.0, 10.0);
        c.span(SpanKind::Consult, "consult t", "db1", Some(p), 0.0, 6.0);
        let e = c.span(SpanKind::Phase, "exec", "client", Some(q), 10.0, 20.0);
        c.span(SpanKind::Exec, "xdb query", "db2", Some(e), 12.0, 18.0);
        c.add("consults", 1.0);
        c.finish()
    }

    #[test]
    fn phase_projection_and_lanes() {
        let t = sample();
        assert_eq!(t.phase_ms("prep"), 10.0);
        assert_eq!(t.phase_ms("exec"), 20.0);
        assert_eq!(t.lanes(), vec!["client", "db1", "db2"]);
        assert_eq!(t.root().unwrap().name, "q1");
        assert_eq!(t.end_ms(), 30.0);
    }

    #[test]
    fn merge_rebases_ids_and_sums_counters() {
        let mut a = sample();
        let mut b = sample();
        b.shift_ms(30.0);
        let n = a.spans.len();
        a.merge(b);
        assert_eq!(a.spans.len(), 2 * n);
        assert_eq!(a.spans[n].id as usize, n);
        assert_eq!(a.spans[n].parent, None);
        assert_eq!(a.spans[n].start_ms, 30.0);
        assert_eq!(a.spans[n + 1].parent, Some(n as u32));
        assert_eq!(a.counter("consults"), 2.0);
    }

    #[test]
    fn chrome_json_parses_and_names_lanes() {
        let t = sample();
        let j = t.to_chrome_json();
        let v = json::parse(&j).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("M"))
            .filter(|e| e.get("name").and_then(json::Value::as_str) == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(names, vec!["client", "db1", "db2"]);
        let xs = events
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .count();
        assert_eq!(xs, t.spans.len());
    }

    #[test]
    fn text_report_nests() {
        let t = sample();
        let r = t.render_text();
        assert!(r.contains("q1 [query]"), "{r}");
        assert!(r.contains("\n  prep [phase]"), "{r}");
        assert!(r.contains("\n    consult t [consult]"), "{r}");
        assert!(r.contains("consults = 1"), "{r}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(3.0), "3");
    }

    #[test]
    fn json_string_roundtrips_control_chars_and_non_ascii() {
        // Control characters below 0x20 must come out as \uXXXX escapes;
        // non-ASCII text rides through as raw UTF-8. Both must survive a
        // round trip through the hand-rolled reader.
        for s in [
            "bell\u{7} backspace\u{8} formfeed\u{c} esc\u{1b} null\u{0}",
            "tabs\tand\r\nnewlines",
            "querié — grüße 値 🦀",
            "mixed \u{1} ünïcode \"quoted\" \\slash",
        ] {
            let encoded = json_string(s);
            assert!(encoded.is_ascii() || !s.is_ascii(), "{encoded}");
            let doc = format!("{{\"v\":{encoded}}}");
            let v = json::parse(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            assert_eq!(v.get("v").and_then(json::Value::as_str), Some(s), "{doc}");
        }
        // Explicitly: control chars are escaped, never emitted raw.
        assert_eq!(json_string("\u{0}"), "\"\\u0000\"");
        assert_eq!(json_string("\u{1f}"), "\"\\u001f\"");
    }

    #[test]
    fn event_messages_and_labels_roundtrip_through_jsonl() {
        // The event log serializes via the same hand-rolled writer; weird
        // messages, targets, and field values must round-trip.
        let log = crate::EventLog::new(4);
        let message = "café \u{1b}[31mred\u{7}";
        let value = "grüße\n\t\"quoted\"";
        log.log(
            crate::Level::Warn,
            "core.client\u{1}",
            Some(9),
            1.0,
            message,
            &[("label", value)],
        );
        let jsonl = log.to_jsonl();
        let v = json::parse(jsonl.trim()).unwrap_or_else(|e| panic!("{jsonl}: {e}"));
        assert_eq!(
            v.get("message").and_then(json::Value::as_str),
            Some(message)
        );
        assert_eq!(v.get("label").and_then(json::Value::as_str), Some(value));
        assert_eq!(
            v.get("target").and_then(json::Value::as_str),
            Some("core.client\u{1}")
        );
    }
}
