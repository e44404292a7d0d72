//! A trace's canonical, line-per-span dump, shared by the fingerprint
//! tests here.

use std::fmt::Write as _;
use xdb_obs::QueryTrace;

/// Two traces are bit-identical iff their canonical forms are equal (f64
/// values print via Rust's shortest-round-trip formatting).
pub fn canonical(trace: &QueryTrace) -> String {
    let mut out = String::new();
    for s in &trace.spans {
        let _ = write!(
            out,
            "{} parent={:?} {:?} {:?} lane={} start={} dur={}",
            s.id, s.parent, s.kind, s.name, s.lane, s.start_ms, s.dur_ms
        );
        for (k, v) in &s.attrs {
            let _ = write!(out, " {k}={v:?}");
        }
        out.push('\n');
    }
    for (k, v) in &trace.counters {
        let _ = writeln!(out, "counter {k}={v}");
    }
    out
}
