//! Per-engine execution profiles: what one engine did while evaluating one
//! statement — operator statistics plus the profiles of remote producers
//! that fed its pipelined foreign scans.

/// Statistics of one physical operator, collected post-order during
/// execution (children before their consumer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Operator label (`scan`, `filter`, `hash join`, …).
    pub op: &'static str,
    /// Rows entering the operator (sum over inputs).
    pub rows_in: u64,
    /// Rows leaving the operator.
    pub rows_out: u64,
    /// Hash-join build side size (0 for non-joins).
    pub build_rows: u64,
    /// Hash-join probe side size (0 for non-joins).
    pub probe_rows: u64,
}

/// What one engine node did while evaluating one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecProfile {
    /// Engine node that ran the statement.
    pub node: String,
    /// Rows of the produced relation.
    pub rows: u64,
    /// Wire bytes of the produced relation.
    pub bytes: u64,
    /// Simulated work the engine itself performed.
    pub work_ms: f64,
    /// Simulated finish time relative to the statement's start (edge
    /// composition included).
    pub finish_ms: f64,
    /// Per-operator statistics in post-order.
    pub ops: Vec<OpStat>,
    /// Profiles of remote producers that fed this engine's foreign-table
    /// scans, paired with the wire time of the edge.
    pub remotes: Vec<(ExecProfile, f64)>,
}
