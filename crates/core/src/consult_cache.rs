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
//!
//! A probe is keyed by its structure, not by its text: a metadata probe by
//! the relation it asks about, an EXPLAIN probe by the exact structural
//! encoding of its plan ([`xdb_sql::structural`]). A [`Probe`] hashes that
//! encoding once; a lookup confirms an entry of the same hash by walking the
//! plan against the stored bytes. So a hit lowers, renders and allocates
//! nothing, and only a miss stores an owned key. The encoding is injective
//! and keeps literals by variant and bits (`1` and `1.0` are two probes, as
//! their SQL texts are), so no hash collision turns a miss into a hit, and
//! two probes share an entry exactly when they render to the same text.

use parking_lot::Mutex;
use std::hash::Hasher;
use xdb_net::NodeId;
use xdb_sql::algebra::LogicalPlan;
use xdb_sql::hash::{FastMap, Fnv};
use xdb_sql::structural::{encode_plan, Encoder, Matcher};

/// What a consulting round-trip asks one DBMS, with the hash of its
/// encoding.
#[derive(Debug)]
pub struct Probe<'a> {
    asks: Asks<'a>,
    hash: u64,
}

#[derive(Debug)]
enum Asks<'a> {
    /// Metadata and statistics of one relation (its lower-case name).
    Metadata(&'a str),
    /// The cost of a sub-plan, as EXPLAIN would give it.
    Plan(&'a LogicalPlan),
}

impl<'a> Probe<'a> {
    pub fn metadata(relation: &'a str) -> Probe<'a> {
        Probe::new(Asks::Metadata(relation))
    }

    pub fn plan(plan: &'a LogicalPlan) -> Probe<'a> {
        Probe::new(Asks::Plan(plan))
    }

    fn new(asks: Asks<'a>) -> Probe<'a> {
        let mut h = Fnv::default();
        asks.encode(&mut h);
        Probe {
            asks,
            hash: h.finish(),
        }
    }

    /// Whether `key` is this probe's encoding.
    fn is(&self, key: &[u8]) -> bool {
        let mut m = Matcher::new(key);
        self.asks.encode(&mut m);
        m.matched()
    }
}

impl Asks<'_> {
    fn encode(&self, e: &mut impl Encoder) {
        match self {
            Asks::Metadata(relation) => {
                e.put(&[0]);
                e.put(relation.as_bytes());
            }
            Asks::Plan(plan) => {
                e.put(&[1]);
                encode_plan(plan, e);
            }
        }
    }
}

/// One paid probe: who answered it, what it asked, and the answering
/// node's DDL generation at the time.
#[derive(Debug)]
struct Entry {
    node: NodeId,
    key: Box<[u8]>,
    generation: u64,
}

/// Thread-safe consultation cache: the DDL generation of each `(node,
/// probe)` at its last round-trip. It counts nothing; whoever probes counts
/// its own hits and misses.
#[derive(Debug, Default)]
pub struct ConsultCache {
    /// Entries by the hash of their probe's encoding.
    entries: Mutex<FastMap<u64, Vec<Entry>>>,
}

impl ConsultCache {
    pub fn new() -> ConsultCache {
        ConsultCache::default()
    }

    /// Whether a probe against `node` is answered without a round-trip. A
    /// hit requires the stored entry to carry the node's *current* DDL
    /// generation; a stale entry counts as a miss (and will be overwritten
    /// by the following [`store`]). Allocates nothing.
    ///
    /// [`store`]: ConsultCache::store
    pub fn lookup(&self, node: &NodeId, probe: &Probe, generation: u64) -> bool {
        self.entries
            .lock()
            .get(&probe.hash)
            .and_then(|bucket| bucket.iter().find(|e| e.node == *node && probe.is(&e.key)))
            .is_some_and(|e| e.generation == generation)
    }

    /// Record a consultation performed at `generation`.
    pub fn store(&self, node: &NodeId, probe: &Probe, generation: u64) {
        let mut entries = self.entries.lock();
        let bucket = entries.entry(probe.hash).or_default();
        match bucket
            .iter_mut()
            .find(|e| e.node == *node && probe.is(&e.key))
        {
            Some(e) => e.generation = generation,
            None => {
                let mut key = Vec::new();
                probe.asks.encode(&mut key);
                bucket.push(Entry {
                    node: node.clone(),
                    key: key.into(),
                    generation,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdb_sql::algebra::{plan_to_select, Name};
    use xdb_sql::ast::{BinaryOp, Expr};
    use xdb_sql::display::render_select_string;
    use xdb_sql::value::{DataType, Value};
    use xdb_sql::Dialect;

    /// Entries held, stale ones included.
    fn len(cache: &ConsultCache) -> usize {
        cache.entries.lock().values().map(Vec::len).sum()
    }

    #[test]
    fn hit_requires_matching_generation() {
        let cache = ConsultCache::new();
        let node = NodeId::new("db1");
        let probe = Probe::metadata("nation");
        assert!(!cache.lookup(&node, &probe, 0));
        cache.store(&node, &probe, 0);
        assert!(cache.lookup(&node, &probe, 0));
        // A DDL bumped the node's generation: the entry is stale.
        assert!(!cache.lookup(&node, &probe, 1));
        // Storing the stale probe again renews its one entry.
        cache.store(&node, &probe, 1);
        assert!(cache.lookup(&node, &probe, 1));
        assert_eq!(len(&cache), 1);
    }

    #[test]
    fn entries_are_per_node_and_per_probe() {
        let cache = ConsultCache::new();
        cache.store(&NodeId::new("db1"), &Probe::metadata("q"), 0);
        assert!(!cache.lookup(&NodeId::new("db2"), &Probe::metadata("q"), 0));
        assert!(!cache.lookup(&NodeId::new("db1"), &Probe::metadata("other"), 0));
        assert!(cache.lookup(&NodeId::new("db1"), &Probe::metadata("q"), 0));
        assert_eq!(len(&cache), 1);
    }

    /// `SELECT t.a, t.b FROM t WHERE t.a IN (<list>)`.
    fn in_list_probe(list: Vec<Value>) -> LogicalPlan {
        let columns = [
            (Name::from("a"), DataType::Int),
            (Name::from("b"), DataType::Int),
        ];
        LogicalPlan::scan("t", "t", columns).filter(Expr::InList {
            expr: Box::new(Expr::qcol("t", "a")),
            list: list.into_iter().map(Expr::lit).collect(),
            negated: false,
        })
    }

    #[test]
    fn probes_that_render_differently_are_two_entries() {
        // Each pair is equal under `Value`'s grouping equality (`1 == 1.0`,
        // NULL == NULL) and renders to two texts.
        let pairs = [
            (vec![Value::Int(1)], vec![Value::Float(1.0)]),
            (
                vec![Value::Null, Value::Int(1)],
                vec![Value::Int(1), Value::Null],
            ),
            (
                vec![Value::Null, Value::Float(2.0)],
                vec![Value::Null, Value::Int(2)],
            ),
        ];
        let node = NodeId::new("db1");
        for (a, b) in pairs {
            let (a, b) = (in_list_probe(a), in_list_probe(b));
            let text = |p: &LogicalPlan| {
                render_select_string(&plan_to_select(p).unwrap(), Dialect::Generic)
            };
            assert_ne!(text(&a), text(&b));
            let cache = ConsultCache::new();
            cache.store(&node, &Probe::plan(&a), 0);
            assert!(cache.lookup(&node, &Probe::plan(&a), 0));
            assert!(!cache.lookup(&node, &Probe::plan(&b), 0), "{}", text(&b));
            cache.store(&node, &Probe::plan(&b), 0);
            assert_eq!(len(&cache), 2);
        }
    }

    #[test]
    fn a_metadata_probe_is_never_a_plan_probe() {
        let cache = ConsultCache::new();
        let node = NodeId::new("db1");
        let plan = LogicalPlan::scan("t", "t", [(Name::from("a"), DataType::Int)]);
        cache.store(&node, &Probe::metadata("t"), 0);
        assert!(!cache.lookup(&node, &Probe::plan(&plan), 0));
    }

    #[test]
    fn a_plan_that_does_not_lower_is_still_a_probe() {
        // `plan_to_select` rejects a predicate over a column the input does
        // not have; the probe is keyed and cached like any other.
        let plan = LogicalPlan::scan("t", "t", [(Name::from("a"), DataType::Int)]).filter(
            Expr::binary(BinaryOp::Gt, Expr::col("missing"), Expr::lit(Value::Int(0))),
        );
        assert!(plan_to_select(&plan).is_err());
        let cache = ConsultCache::new();
        let node = NodeId::new("db1");
        assert!(!cache.lookup(&node, &Probe::plan(&plan), 0));
        cache.store(&node, &Probe::plan(&plan), 0);
        assert!(cache.lookup(&node, &Probe::plan(&plan.clone()), 0));
    }
}
