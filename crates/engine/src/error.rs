//! Engine error type.

use std::fmt;
use xdb_sql::algebra::SchemaError;
use xdb_sql::bind::BindError;
use xdb_sql::parser::ParseError;

/// Anything that can go wrong inside an engine or across the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    Parse(ParseError),
    Bind(BindError),
    Catalog(String),
    Execution(String),
    /// A remote fetch failed (connector loss, unknown server, ...).
    Remote(String),
    Unsupported(String),
    /// A statement of a delegated query failed. Boxed, so that every
    /// `Result` on the engine's recursive fetch path stays small.
    Statement(Box<FailedStatement>),
}

/// A failed statement of a delegated query, where it ran and what
/// tearing the query down left behind.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedStatement {
    pub query_id: u64,
    pub node: String,
    /// Its index in script order; the script's step count is the XDB query.
    pub index: usize,
    pub cause: EngineError,
    /// What tearing the query's objects down could not drop.
    pub cleanup: Vec<DropFailure>,
}

/// A teardown statement that failed ([`crate::Cluster::teardown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DropFailure {
    pub node: String,
    pub sql: String,
    pub error: EngineError,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "parse error: {e}"),
            EngineError::Bind(e) => write!(f, "bind error: {}", e.message),
            EngineError::Catalog(m) => write!(f, "catalog error: {m}"),
            EngineError::Execution(m) => write!(f, "execution error: {m}"),
            EngineError::Remote(m) => write!(f, "remote error: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Statement(s) => write!(
                f,
                "query {}, statement {} on {}: {}",
                s.query_id, s.index, s.node, s.cause
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<BindError> for EngineError {
    fn from(e: BindError) -> Self {
        EngineError::Bind(e)
    }
}

impl From<SchemaError> for EngineError {
    fn from(e: SchemaError) -> Self {
        EngineError::Execution(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, EngineError>;
