//! The repo's benchmark: a closed-loop, fixed-work harness over the public
//! functions of `xdb-sql`, `xdb-core`, `xdb-engine`, `xdb-net`, `xdb-obs`
//! and `xdb-tpch`. See `README.md` for the metrics and how to read them.

pub mod alloc;
pub mod dissect;
pub mod harness;
pub mod host;
pub mod refkernel;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
