//! End-to-end and per-layer benchmark of the moqo optimizer stack.
//!
//! The `moqo-perfbench` binary runs one workload per invocation and prints
//! its metrics; `gen_refs` regenerates the stored reference frontiers the
//! quality metrics are measured against. See `WORKLOADS.md` for what each
//! workload exercises and why.

pub mod check;
pub mod layers;
pub mod query_large;
pub mod refs;
pub mod serve;
pub mod stats;
