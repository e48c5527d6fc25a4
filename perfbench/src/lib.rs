//! Steady-state benchmark of the GeneSys reproduction: the software
//! engine, the serve layer and the SoC model, driven through their
//! public entry points, with a traced per-layer replay.
//!
//! See `perfbench/README.md` for the workloads and metrics.

pub mod engine;
pub mod machine;
pub mod replay;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod trace;

/// Every workload name, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["cartpole-1e4", "amidar-2e3", "serve-churn", "soc-amidar"];
