//! The fleet telemetry handle: one [`MetricRegistry`] plus one
//! [`EventLog`], shared as an `Arc` by everything observing one federation.
//!
//! Ownership model: every [`Cluster`](../../xdb_engine) makes its own
//! `Arc<Telemetry>` and hands it to its engines and its ledger; the
//! middleware reads it off the cluster. There is no process-wide handle: a
//! federation's metrics, events and history are its own, so tests running
//! side by side cannot pollute each other. Federations that should report
//! together (the `repro` binary's runs) are handed one shared handle with
//! `Cluster::set_telemetry`.

use crate::event::EventLog;
use crate::history::HistorySink;
use crate::metrics::MetricRegistry;
use std::sync::Arc;

/// Metrics + events for one federation (or several that share a handle).
#[derive(Debug, Default)]
pub struct Telemetry {
    pub metrics: MetricRegistry,
    pub events: EventLog,
    /// The query history store: writes nothing until `repro --history
    /// dir/` opens a directory, then one line per record a runner appends.
    pub history: HistorySink,
}

impl Telemetry {
    /// A fresh, isolated telemetry handle.
    pub fn new_handle() -> Arc<Telemetry> {
        Arc::new(Telemetry {
            metrics: MetricRegistry::new(),
            events: EventLog::default(),
            history: HistorySink::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_isolated() {
        let a = Telemetry::new_handle();
        let b = Telemetry::new_handle();
        a.metrics.counter_add("x", &[], 1.0);
        assert_eq!(b.metrics.value("x", &[]), 0.0);
        assert_eq!(a.metrics.value("x", &[]), 1.0);
    }
}
