//! The structured event log: leveled, query-correlated events in a ring
//! buffer, exportable as JSON lines.
//!
//! Events carry the **simulated** timestamp of the moment they describe,
//! never the host clock, and library crates only emit `Info`-and-above
//! events from single-threaded deterministic code paths (the client's
//! planning pipeline, the executor's single-threaded tail, cleanup) — so
//! the event log, like the trace, is the same on any number of executor
//! threads. `Debug` events may come from concurrent contexts
//! and are dropped by the default `Info` filter.

use crate::json;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Event severity. Ordering: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
}

impl Level {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parse a level name (`repro --log-level`).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            _ => Level::Error,
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Sequence number in emission order (monotone per log).
    pub seq: u64,
    /// Simulated-clock timestamp of the moment described, in ms.
    pub ts_ms: f64,
    pub level: Level,
    /// Emitting subsystem, e.g. `core.client`, `core.delegation`.
    pub target: String,
    /// Correlation id: the query id this event belongs to, if any (the
    /// same id that names the query's `xdb_q<id>_*` objects).
    pub query: Option<u64>,
    pub message: String,
    /// Structured key/value payload, in emission order.
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// One JSON object (no trailing newline).
    pub(crate) fn to_json(&self) -> String {
        let mut members: Vec<(&str, json::Value)> = vec![
            ("seq", self.seq.into()),
            ("ts_ms", self.ts_ms.into()),
            ("level", self.level.label().into()),
            ("target", self.target.as_str().into()),
        ];
        if let Some(q) = self.query {
            members.push(("query", q.into()));
        }
        members.push(("message", self.message.as_str().into()));
        members.extend(
            self.fields
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str().into())),
        );
        json::object(members).to_json()
    }
}

/// Ring-buffer event sink with a level filter.
#[derive(Debug)]
pub struct EventLog {
    min_level: AtomicU8,
    next_seq: AtomicU64,
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(4096)
    }
}

impl EventLog {
    pub(crate) fn new(capacity: usize) -> EventLog {
        EventLog {
            min_level: AtomicU8::new(Level::Info as u8),
            next_seq: AtomicU64::new(0),
            inner: Mutex::new(Ring {
                events: VecDeque::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    pub fn set_min_level(&self, level: Level) {
        self.min_level.store(level as u8, Ordering::Release);
    }

    pub(crate) fn min_level(&self) -> Level {
        Level::from_u8(self.min_level.load(Ordering::Acquire))
    }

    /// Whether an event at `level` would be kept.
    pub(crate) fn enabled(&self, level: Level) -> bool {
        level >= self.min_level()
    }

    /// Emit an event. Below-threshold events are dropped without taking
    /// the lock or consuming a sequence number.
    pub fn log(
        &self,
        level: Level,
        target: &str,
        query: Option<u64>,
        ts_ms: f64,
        message: impl Into<String>,
        fields: &[(&str, &str)],
    ) {
        if !self.enabled(level) {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            ts_ms,
            level,
            target: target.to_string(),
            query,
            message: message.into(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        let mut ring = self.inner.lock();
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
        } else if ring.events.capacity() == 0 {
            // Every federation owns a log: a log that records anything
            // allocates its whole ring once, here, and never grows it under
            // load; one that records nothing allocates nothing.
            let capacity = ring.capacity;
            ring.events.reserve_exact(capacity);
        }
        ring.events.push_back(event);
    }

    /// All retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().events.iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// JSON-lines export: one JSON object per retained event.
    pub fn to_jsonl(&self) -> String {
        let ring = self.inner.lock();
        let mut out = String::new();
        for e in &ring.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn levels_filter_and_order() {
        assert!(Level::Debug < Level::Info && Level::Warn < Level::Error);
        let log = EventLog::new(16);
        log.log(Level::Debug, "t", None, 0.0, "dropped", &[]);
        log.log(Level::Info, "t", Some(7), 1.5, "kept", &[("k", "v")]);
        assert_eq!(log.len(), 1);
        let e = &log.snapshot()[0];
        assert_eq!(e.message, "kept");
        assert_eq!(e.query, Some(7));
        assert_eq!(e.fields[0], ("k".to_string(), "v".to_string()));
        log.set_min_level(Level::Debug);
        log.log(Level::Debug, "t", None, 0.0, "now kept", &[]);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn ring_evicts_oldest() {
        let log = EventLog::new(2);
        for i in 0..5 {
            log.log(Level::Info, "t", None, i as f64, format!("m{i}"), &[]);
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "m3");
        assert_eq!(events[1].message, "m4");
    }

    #[test]
    fn jsonl_parses_line_by_line() {
        let log = EventLog::new(8);
        log.log(
            Level::Warn,
            "core.client",
            Some(3),
            12.5,
            "query \"weird\"\nname",
            &[("node", "db1")],
        );
        log.log(Level::Error, "engine", None, 13.0, "boom", &[]);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = json::parse(line).expect("line parses");
            assert!(v.get("ts_ms").is_some());
            assert!(v.get("level").is_some());
        }
        let v = json::parse(lines[0]).unwrap();
        assert_eq!(v.get("query").and_then(json::Value::as_f64), Some(3.0));
        assert_eq!(v.get("node").and_then(json::Value::as_str), Some("db1"));
    }
}
