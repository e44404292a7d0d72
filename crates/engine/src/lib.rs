//! # xdb-engine
//!
//! The embedded relational DBMS substrate of the XDB reproduction. Each
//! [`engine::Engine`] stands in for one underlying DBMS of the paper's
//! testbed (PostgreSQL / MariaDB / Hive, selected by [`profile`]), complete
//! with:
//!
//! - a catalog of base tables (with statistics), views, and SQL/MED
//!   foreign tables ([`catalog`]);
//! - local binding + optimization (the engine reorders operations within a
//!   task, as the paper's execution-autonomy assumption demands);
//! - a morsel-driven executor over real tuples with work accounting
//!   ([`exec`], [`expr`]);
//! - EXPLAIN-style cost probes answering the XDB optimizer's "consulting"
//!   requests;
//! - a [`cluster::Cluster`] that wires engines over the simulated network
//!   and implements the foreign-data wrapper's one read,
//!   [`engine::Remote::fetch`].

pub mod catalog;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod profile;
pub mod relation;
pub mod vector;

pub use cluster::{Cluster, FaultSite};
pub use engine::{
    Engine, ExecReport, ExplainInfo, NoRemote, Remote, StatementOptions, StatementOutcome,
    DEFAULT_STREAM_CHUNK_ROWS,
};
pub use error::{DropFailure, EngineError, FailedStatement, Result};
pub use profile::EngineProfile;
pub use relation::Relation;
