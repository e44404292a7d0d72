//! Consultation cache: memoized consulting round-trips (Section IV-B2).
//!
//! Consulting an autonomous DBMS — a metadata probe during preparation or
//! an EXPLAIN-style probe while costing candidate placements — is a
//! network round-trip ([`xdb_net::params::CONSULT_ROUNDTRIP_MS`]). The
//! answers only change when that DBMS's catalog changes, so the middleware
//! remembers, per `(node, canonical rendered sub-query)`, the node's DDL
//! generation at the time it last paid for the probe: *any* DDL executed
//! against a node invalidates every probe cached for it.
//!
//! No reply is stored. A metadata probe's answer lives in the catalog's
//! statistics, and an EXPLAIN probe's answer is the engine's profile, which
//! never changes once the engine is in the cluster — so the cache only has
//! to know whether a round-trip is still paid for.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use xdb_net::NodeId;

/// Thread-safe consultation cache with hit/miss accounting: the DDL
/// generation of each `(node, probe)` at its last round-trip.
#[derive(Debug, Default)]
pub struct ConsultCache {
    entries: Mutex<HashMap<String, HashMap<String, u64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ConsultCache {
    pub fn new() -> ConsultCache {
        ConsultCache::default()
    }

    /// Whether a probe against `node` is answered without a round-trip. A
    /// hit requires the stored entry to carry the node's *current* DDL
    /// generation; a stale entry counts as a miss (and will be overwritten
    /// by the following [`store`]).
    ///
    /// [`store`]: ConsultCache::store
    pub fn lookup(&self, node: &NodeId, probe: &str, generation: u64) -> bool {
        let hit = self
            .entries
            .lock()
            .get(node.as_str())
            .and_then(|probes| probes.get(probe))
            == Some(&generation);
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Record a consultation performed at `generation`.
    pub fn store(&self, node: &NodeId, probe: &str, generation: u64) {
        self.entries
            .lock()
            .entry(node.as_str().to_string())
            .or_default()
            .insert(probe.to_string(), generation);
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.entries.lock().values().map(HashMap::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.entries.lock().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_matching_generation() {
        let cache = ConsultCache::new();
        let node = NodeId::new("db1");
        assert!(!cache.lookup(&node, "SELECT 1", 0));
        cache.store(&node, "SELECT 1", 0);
        assert!(cache.lookup(&node, "SELECT 1", 0));
        // A DDL bumped the node's generation: the entry is stale.
        assert!(!cache.lookup(&node, "SELECT 1", 1));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn entries_are_per_node_and_per_probe() {
        let cache = ConsultCache::new();
        cache.store(&NodeId::new("db1"), "q", 0);
        assert!(!cache.lookup(&NodeId::new("db2"), "q", 0));
        assert!(!cache.lookup(&NodeId::new("db1"), "other", 0));
        assert!(cache.lookup(&NodeId::new("db1"), "q", 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_resets_counters() {
        let cache = ConsultCache::new();
        cache.store(&NodeId::new("db1"), "q", 0);
        cache.lookup(&NodeId::new("db1"), "q", 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
    }
}
