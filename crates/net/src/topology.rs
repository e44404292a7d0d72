//! Simulated network fabric: named nodes connected by links with bandwidth
//! and latency.
//!
//! The paper's testbed is seven physical nodes (one DBMS each) on a 1 Gbit
//! LAN; the data-transfer experiments (Fig 14) additionally place the
//! middleware in a managed cloud and consider geo-distributed DBMSes. A
//! [`Topology`] captures those scenarios as per-node-pair links.

use crate::params;
use std::collections::HashMap;
use std::sync::Arc;

/// A node in the fabric, identified by name (e.g. `db1`, `mediator`,
/// `client`, `cloud`). The name is shared: a clone is a reference-count
/// bump. Hashes, orders and prints as the name's `String` would.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(Arc<str>);

impl NodeId {
    pub fn new(name: impl Into<String>) -> NodeId {
        NodeId(name.into().into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for NodeId {
    fn from(s: &str) -> NodeId {
        NodeId(s.into())
    }
}

/// Directed link properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Bytes per simulated millisecond.
    pub bandwidth: f64,
    /// Per-transfer setup latency in simulated milliseconds.
    pub latency_ms: f64,
}

impl Link {
    pub const LAN: Link = Link {
        bandwidth: params::LAN_BANDWIDTH_BYTES_PER_MS,
        latency_ms: params::LAN_LATENCY_MS,
    };

    pub const GEO: Link = Link {
        bandwidth: params::GEO_BANDWIDTH_BYTES_PER_MS,
        latency_ms: params::GEO_LATENCY_MS,
    };

    pub const CLOUD: Link = Link {
        bandwidth: params::CLOUD_BANDWIDTH_BYTES_PER_MS,
        latency_ms: params::CLOUD_LATENCY_MS,
    };

    /// Local loopback: effectively free.
    pub const LOCAL: Link = Link {
        bandwidth: f64::INFINITY,
        latency_ms: 0.0,
    };

    /// Time to move `bytes` over this link with the given per-byte protocol
    /// overhead multiplier.
    pub(crate) fn transfer_ms(&self, bytes: u64, protocol_overhead: f64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_ms + bytes as f64 * protocol_overhead / self.bandwidth
    }
}

/// Network deployment scenario for a link-classification default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// All nodes on one LAN (the paper's main cluster).
    OnPremise,
    /// Every DBMS in a different datacenter.
    GeoDistributed,
}

/// A set of nodes and the links between them. Lookups fall back to a
/// scenario default so only special links need registering.
#[derive(Debug, Clone)]
pub struct Topology {
    default_link: Link,
    /// Overrides for specific (from, to) pairs (symmetric unless both
    /// directions are registered), by `from`, then `to`: a lookup borrows
    /// both names.
    links: HashMap<NodeId, HashMap<NodeId, Link>>,
    nodes: Vec<NodeId>,
}

impl Topology {
    pub(crate) fn new(scenario: Scenario) -> Topology {
        Topology {
            default_link: match scenario {
                Scenario::OnPremise => Link::LAN,
                Scenario::GeoDistributed => Link::GEO,
            },
            links: HashMap::new(),
            nodes: Vec::new(),
        }
    }

    /// All DBMSes on one LAN — the paper's seven-node cluster.
    pub fn lan(node_names: &[&str]) -> Topology {
        let mut t = Topology::new(Scenario::OnPremise);
        for n in node_names {
            t.add_node(NodeId::new(*n));
        }
        t
    }

    /// Every DBMS in its own datacenter.
    pub fn geo(node_names: &[&str]) -> Topology {
        let mut t = Topology::new(Scenario::GeoDistributed);
        for n in node_names {
            t.add_node(NodeId::new(*n));
        }
        t
    }

    pub fn add_node(&mut self, node: NodeId) {
        if !self.nodes.contains(&node) {
            self.nodes.push(node);
        }
    }

    /// Register a node reached over the metered cloud link from everywhere
    /// (the managed-cloud middleware placement of Fig 14).
    pub fn add_cloud_node(&mut self, node: NodeId) {
        let existing: Vec<NodeId> = self.nodes.clone();
        for other in existing {
            self.set_link(other.clone(), node.clone(), Link::CLOUD);
            self.set_link(node.clone(), other, Link::CLOUD);
        }
        self.add_node(node);
    }

    pub(crate) fn set_link(&mut self, from: NodeId, to: NodeId, link: Link) {
        self.add_node(from.clone());
        self.add_node(to.clone());
        self.links.entry(from).or_default().insert(to, link);
    }

    /// Link between two nodes. Same node → loopback; otherwise a registered
    /// override or the scenario default.
    pub(crate) fn link(&self, from: &NodeId, to: &NodeId) -> Link {
        if from == to {
            return Link::LOCAL;
        }
        let registered = |a: &NodeId, b: &NodeId| self.links.get(a)?.get(b).copied();
        registered(from, to)
            .or_else(|| registered(to, from))
            .unwrap_or(self.default_link)
    }

    /// Transfer time between two nodes.
    pub fn transfer_ms(
        &self,
        from: &NodeId,
        to: &NodeId,
        bytes: u64,
        protocol_overhead: f64,
    ) -> f64 {
        self.link(from, to).transfer_ms(bytes, protocol_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_is_free() {
        let t = Topology::lan(&["db1", "db2"]);
        let a = NodeId::new("db1");
        assert_eq!(t.transfer_ms(&a, &a, 1_000_000, 1.0), 0.0);
    }

    #[test]
    fn lan_default_applies() {
        let t = Topology::lan(&["db1", "db2"]);
        let ms = t.transfer_ms(&"db1".into(), &"db2".into(), 125_000_000, 1.0);
        // 125 MB at 125 KB/ms = 1000 ms + latency.
        assert!((ms - 1000.5).abs() < 1e-9, "{ms}");
    }

    #[test]
    fn protocol_overhead_multiplies() {
        let t = Topology::lan(&["a", "b"]);
        let binary = t.transfer_ms(&"a".into(), &"b".into(), 1_000_000, 1.0);
        let jdbc = t.transfer_ms(&"a".into(), &"b".into(), 1_000_000, 2.0);
        assert!(jdbc > binary * 1.5);
    }

    #[test]
    fn cloud_node_links_override_default() {
        let mut t = Topology::lan(&["db1", "db2"]);
        t.add_cloud_node(NodeId::new("cloud"));
        let lan = t.link(&"db1".into(), &"db2".into());
        let cloud = t.link(&"db1".into(), &"cloud".into());
        assert_eq!(lan, Link::LAN);
        assert_eq!(cloud, Link::CLOUD);
        // Symmetric.
        assert_eq!(t.link(&"cloud".into(), &"db2".into()), Link::CLOUD);
    }

    #[test]
    fn geo_slower_than_lan() {
        let lan = Topology::lan(&["a", "b"]);
        let geo = Topology::geo(&["a", "b"]);
        let bytes = 10_000_000;
        assert!(
            geo.transfer_ms(&"a".into(), &"b".into(), bytes, 1.0)
                > lan.transfer_ms(&"a".into(), &"b".into(), bytes, 1.0)
        );
    }

    #[test]
    fn zero_bytes_zero_time() {
        let t = Topology::geo(&["a", "b"]);
        assert_eq!(t.transfer_ms(&"a".into(), &"b".into(), 0, 1.0), 0.0);
    }
}
