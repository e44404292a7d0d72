//! Transfer ledger: the simulated equivalent of the paper's "Docker network
//! statistics" (Section VI-A Methodology).
//!
//! Every byte that crosses a link during query execution is recorded here,
//! tagged with *why* it moved, so the data-transfer experiments (Fig 1's red
//! bars, Fig 14) read directly off the ledger.

use crate::topology::NodeId;
use parking_lot::Mutex;
use std::sync::Arc;
use xdb_obs::Telemetry;

/// Why a transfer happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// A mediator fetching a sub-query result from a DBMS (the MW approach).
    SubqueryResult,
    /// Inter-DBMS pipeline traffic between two underlying DBMSes (XDB's
    /// in-situ execution).
    InterDbmsPipeline,
    /// Explicit materialization of an intermediate relation.
    Materialization,
    /// Final query result returned to the client.
    FinalResult,
    /// Optimizer/delegation control messages (EXPLAIN probes, DDLs).
    ControlMessage,
    /// Data exchange between mediator workers (scaled-out MW systems).
    WorkerExchange,
}

/// One recorded transfer.
#[derive(Debug, Clone)]
pub struct Transfer {
    pub from: NodeId,
    pub to: NodeId,
    /// Raw (uncompressed) payload size — the honest "how much data moved
    /// logically" series that fig-13-style comparisons read.
    pub bytes: u64,
    /// Size after the `net::wire` codec — what the simulated transfer-time
    /// model charges. Equal to `bytes` for uncompressed traffic (control
    /// messages).
    pub encoded_bytes: u64,
    pub rows: u64,
    pub purpose: Purpose,
    /// Per-codec byte split of the encoded payload. Deterministic per
    /// edge (the codec is chosen once over the whole relation, chunking
    /// only frames it), so the query history store can persist observed
    /// per-(edge, codec) wire ratios. Empty for uncompressed traffic.
    pub codec_bytes: Vec<(&'static str, u64)>,
}

impl Purpose {
    /// Stable lowercase label, used as the `purpose` metric label.
    pub fn label(self) -> &'static str {
        match self {
            Purpose::SubqueryResult => "subquery_result",
            Purpose::InterDbmsPipeline => "inter_dbms_pipeline",
            Purpose::Materialization => "materialization",
            Purpose::FinalResult => "final_result",
            Purpose::ControlMessage => "control_message",
            Purpose::WorkerExchange => "worker_exchange",
        }
    }
}

/// Thread-safe, shareable transfer ledger.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    inner: Arc<Mutex<Vec<Transfer>>>,
    /// When attached, every kept record bumps the per-purpose
    /// `net.transfers` / `net.bytes` / `net.rows` counters. Counter adds
    /// are commutative, so totals are identical no matter how concurrent
    /// recorders interleave.
    telemetry: Option<Arc<Telemetry>>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// This ledger with a telemetry handle attached (clones made after
    /// this call share it).
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Ledger {
        self.telemetry = Some(telemetry);
        self
    }

    /// Record an uncompressed transfer (control messages, DDL): encoded
    /// size equals the raw size and it ships as a single chunk.
    pub fn record(
        &self,
        from: &NodeId,
        to: &NodeId,
        bytes: u64,
        rows: u64,
        purpose: Purpose,
    ) -> Option<Transfer> {
        let stats = crate::wire::WireStats {
            encoded_bytes: bytes,
            chunks: 1,
            codec_bytes: Vec::new(),
        };
        self.record_wire(from, to, bytes, rows, purpose, stats)
    }

    /// Record a transfer that went through the `net::wire` codec. The raw
    /// `bytes` stay the primary series; `stats` carries the encoded size
    /// the transfer-time model charged, the transport chunk count, and the
    /// per-codec byte split for the `net.codec.bytes` counters.
    ///
    /// Returns the record kept (the ledger holds its own copy), so that the
    /// statement or query that caused the transfer owns it: nothing reads a
    /// query's transfers back from this shared ledger.
    pub fn record_wire(
        &self,
        from: &NodeId,
        to: &NodeId,
        bytes: u64,
        rows: u64,
        purpose: Purpose,
        stats: crate::wire::WireStats,
    ) -> Option<Transfer> {
        // Loopback traffic never crosses the network; keep the ledger about
        // actual movement so totals match "data transferred over the wire".
        // Taking the endpoints by reference means callers on this hot path
        // only pay for the clones when a record is actually kept.
        if from == to {
            return None;
        }
        if let Some(t) = &self.telemetry {
            let labels = [("purpose", purpose.label())];
            t.metrics.counter_add("net.transfers", &labels, 1.0);
            t.metrics.counter_add("net.bytes", &labels, bytes as f64);
            t.metrics.counter_add("net.rows", &labels, rows as f64);
            t.metrics
                .counter_add("net.encoded_bytes", &labels, stats.encoded_bytes as f64);
            // Chunk counts depend on the transport chunk size; the series is
            // excluded from `deterministic_snapshot()` (like `sched.*`).
            t.metrics
                .counter_add("net.chunks", &labels, stats.chunks as f64);
            for (codec, cbytes) in &stats.codec_bytes {
                t.metrics
                    .counter_add("net.codec.bytes", &[("codec", codec)], *cbytes as f64);
            }
        }
        let transfer = Transfer {
            from: from.clone(),
            to: to.clone(),
            bytes,
            encoded_bytes: stats.encoded_bytes,
            rows,
            purpose,
            codec_bytes: stats.codec_bytes,
        };
        self.inner.lock().push(transfer.clone());
        Some(transfer)
    }

    /// Total bytes across all recorded transfers.
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().iter().map(|t| t.bytes).sum()
    }

    /// Total rows across all recorded transfers.
    pub fn total_rows(&self) -> u64 {
        self.inner.lock().iter().map(|t| t.rows).sum()
    }

    /// Total bytes for a given purpose.
    pub fn bytes_for(&self, purpose: Purpose) -> u64 {
        self.inner
            .lock()
            .iter()
            .filter(|t| t.purpose == purpose)
            .map(|t| t.bytes)
            .sum()
    }

    /// Total bytes into a specific node (e.g. the cloud mediator, for the
    /// "cloud vendors charge by incoming data" analysis of Fig 14).
    pub fn bytes_into(&self, node: &NodeId) -> u64 {
        self.inner
            .lock()
            .iter()
            .filter(|t| &t.to == node)
            .map(|t| t.bytes)
            .sum()
    }

    /// Snapshot of all transfers (for plan analysis like Table IV).
    pub fn snapshot(&self) -> Vec<Transfer> {
        self.inner.lock().clone()
    }

    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let l = Ledger::new();
        l.record(&"a".into(), &"b".into(), 100, 10, Purpose::SubqueryResult);
        l.record(&"b".into(), &"c".into(), 50, 5, Purpose::InterDbmsPipeline);
        assert_eq!(l.total_bytes(), 150);
        assert_eq!(l.total_rows(), 15);
        assert_eq!(l.bytes_for(Purpose::SubqueryResult), 100);
        assert_eq!(l.bytes_into(&"c".into()), 50);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn loopback_not_recorded() {
        let l = Ledger::new();
        let kept = l.record(&"a".into(), &"a".into(), 100, 10, Purpose::Materialization);
        assert!(kept.is_none() && l.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let l = Ledger::new();
        let l2 = l.clone();
        l2.record(&"a".into(), &"b".into(), 7, 1, Purpose::FinalResult);
        assert_eq!(l.total_bytes(), 7);
        l.clear();
        assert!(l2.is_empty());
    }

    #[test]
    fn telemetry_counts_kept_records_only() {
        let t = Telemetry::new_handle();
        let l = Ledger::new().with_telemetry(Arc::clone(&t));
        l.record(&"a".into(), &"b".into(), 100, 10, Purpose::Materialization);
        l.record(&"a".into(), &"a".into(), 999, 99, Purpose::Materialization); // loopback
        let labels = [("purpose", "materialization")];
        assert_eq!(t.metrics.value("net.transfers", &labels), 1.0);
        assert_eq!(t.metrics.value("net.bytes", &labels), 100.0);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn record_wire_tracks_encoded_series() {
        let t = Telemetry::new_handle();
        let l = Ledger::new().with_telemetry(Arc::clone(&t));
        let stats = crate::wire::WireStats {
            encoded_bytes: 40,
            chunks: 3,
            codec_bytes: vec![("dict", 30), ("raw", 10)],
        };
        let kept = l.record_wire(
            &"a".into(),
            &"b".into(),
            100,
            10,
            Purpose::InterDbmsPipeline,
            stats,
        );
        // Plain records keep encoded == raw.
        l.record(&"b".into(), &"c".into(), 8, 0, Purpose::ControlMessage);
        // The per-codec split rides on the record for the history store.
        let snap = l.snapshot();
        assert_eq!(snap[0].codec_bytes, vec![("dict", 30), ("raw", 10)]);
        // The caller gets the record the ledger keeps.
        assert_eq!(format!("{kept:?}"), format!("{:?}", Some(&snap[0])));
        assert!(snap[1].codec_bytes.is_empty());
        assert_eq!(l.total_bytes(), 108);
        assert_eq!((snap[0].encoded_bytes, snap[1].encoded_bytes), (40, 8));
        let labels = [("purpose", "inter_dbms_pipeline")];
        assert_eq!(t.metrics.value("net.bytes", &labels), 100.0);
        assert_eq!(t.metrics.value("net.encoded_bytes", &labels), 40.0);
        assert_eq!(t.metrics.value("net.chunks", &labels), 3.0);
        assert_eq!(
            t.metrics.value("net.codec.bytes", &[("codec", "dict")]),
            30.0
        );
        assert_eq!(
            t.metrics.value("net.codec.bytes", &[("codec", "raw")]),
            10.0
        );
    }
}
