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
//!   observation it models;
//! - [`reactor`]: the morsel-driven edge reactor — bounded per-edge chunk
//!   channels plus a worker pool so decode and consumer compute for
//!   different chunks of one edge overlap on the wall clock.

pub mod ledger;
pub mod params;
pub mod reactor;
pub mod timing;
pub mod topology;
pub mod wire;

pub use ledger::{Ledger, Purpose, Transfer};
pub use reactor::{EdgeChannel, PoisonGuard, Poisoned};
pub use timing::{compose_finish, edge_pair, edge_shape, mediator_finish, EdgeTiming, Movement};
pub use topology::{Link, NodeId, Scenario, Topology};
pub use wire::{Codec, Encoded, StreamDecoder, WireStats};

/// What a numeric environment variable says: `Ok(None)` when it is unset,
/// and an error naming the variable and its value when that is no number.
fn parse_env_number<T: std::str::FromStr>(
    name: &str,
    raw: Option<&std::ffi::OsStr>,
) -> Result<Option<T>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.to_str().and_then(|s| s.trim().parse().ok()) {
        Some(n) => Ok(Some(n)),
        None => Err(format!("{name}={raw:?} is not a number")),
    }
}

/// Read a numeric `XDB_*` variable; `None` means "use the default". A
/// value that does not parse also falls back to the default, and says so
/// on stderr the first time each variable is read.
pub fn env_number<T: std::str::FromStr>(name: &str) -> Option<T> {
    static WARNED: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    parse_env_number(name, std::env::var_os(name).as_deref()).unwrap_or_else(|complaint| {
        let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
        if !warned.iter().any(|w| w == name) {
            warned.push(name.to_string());
            eprintln!("xdb: {complaint}; using the default");
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsStr;

    #[test]
    fn numeric_variables_parse_or_complain() {
        let set = parse_env_number::<usize>("XDB_STREAM_CHUNK", Some(OsStr::new(" 4096 ")));
        assert_eq!(set, Ok(Some(4096)));
        assert_eq!(
            parse_env_number::<usize>("XDB_STREAM_CHUNK", None),
            Ok(None)
        );
        let malformed = parse_env_number::<usize>("XDB_STREAM_CHUNK", Some(OsStr::new("4k")));
        assert_eq!(
            malformed,
            Err("XDB_STREAM_CHUNK=\"4k\" is not a number".to_string())
        );
        assert!(parse_env_number::<usize>("XDB_REACTOR_THREADS", Some(OsStr::new("-1"))).is_err());
    }

    /// Through the environment itself, under a name nothing else reads.
    #[test]
    fn a_malformed_variable_means_the_default() {
        const NAME: &str = "NET_TEST_ENV_NUMBER";
        assert_eq!(env_number::<usize>(NAME), None);
        std::env::set_var(NAME, "7");
        assert_eq!(env_number::<usize>(NAME), Some(7));
        std::env::set_var(NAME, "seven");
        assert_eq!(env_number::<usize>(NAME), None);
        assert_eq!(env_number::<usize>(NAME), None);
        std::env::remove_var(NAME);
    }
}
