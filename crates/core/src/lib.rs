//! # xdb-core
//!
//! The paper's primary contribution: **XDB**, a middleware for *in-situ
//! cross-database query processing* over existing DBMSes (ICDE 2023).
//!
//! Unlike mediator-wrapper systems, XDB has no execution engine of its
//! own. [`client::Xdb::submit`] turns a declarative cross-database query
//! into a [`plan::DelegationPlan`] — tasks (algebraic expressions assigned
//! to DBMSes) connected by implicit/explicit dataflow edges — through a
//! three-phase optimizer:
//!
//! 1. logical optimization (shared with the engines, `xdb_sql::optimize`);
//! 2. [`annotate`]: operator placement + movement choice (Rules 1–4,
//!    Equation 1, with consulting via EXPLAIN probes and [`calibration`]);
//! 3. finalization into maximal same-DBMS tasks.
//!
//! [`delegation`] then rewrites the plan into `CREATE VIEW` / `CREATE
//! FOREIGN TABLE` / `CREATE TABLE AS` DDL chains (Algorithm 1) and a
//! single *XDB query* whose evaluation trickles down across all DBMSes in
//! a fully decentralized pipeline.

pub mod annotate;
pub mod calibration;
pub mod characteristics;
pub mod client;
pub mod consult_cache;
pub mod cost;
pub mod delegation;
pub mod global;
pub mod observatory;
pub mod plan;
pub mod profiles;
pub mod scenario;
pub mod session;

pub use annotate::{AnnotateOptions, Annotation, Annotator};
pub use client::{PhaseBreakdown, QueryOutcome, Xdb, XdbOptions};
pub use consult_cache::{ConsultCache, Probe};
pub use delegation::{build_script, run_cleanup, run_script_parallel, DelegationScript};
pub use global::GlobalCatalog;
pub use plan::{DelegationPlan, Edge, Task};
pub use profiles::CostProfiles;
pub use session::{QueryServer, SessionOptions, SessionReport, Submission, TenantOutcome};
