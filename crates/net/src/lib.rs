//! # xdb-net
//!
//! Simulated network substrate for the XDB federation:
//!
//! - [`topology`]: nodes + links with bandwidth/latency, covering the
//!   paper's three deployment scenarios (LAN cluster, geo-distributed
//!   DBMSes, managed-cloud middleware);
//! - [`ledger`]: byte-exact transfer accounting (the "Docker network
//!   statistics" equivalent used in the evaluation);
//! - [`timing`]: deterministic composition of simulated elapsed times over
//!   task DAGs, distinguishing pipelined (implicit) from materialized
//!   (explicit) dataflow;
//! - [`params`]: every simulation constant, documented against the paper
//!   observation it models.

pub mod ledger;
pub mod params;
pub mod timing;
pub mod topology;
pub mod wire;

pub use ledger::{Ledger, Purpose, Transfer};
pub use timing::{compose_finish, edge_pair, edge_shape, mediator_finish, EdgeTiming, Movement};
pub use topology::{Link, NodeId, Scenario, Topology};
pub use wire::{Codec, Encoded, StreamDecoder, WireStats};
