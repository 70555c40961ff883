//! The breval benchmark: time-to-results for the paper's artefacts and
//! `brevald` serving beside reloads, with one per-layer row per workspace
//! module in traced runs.
//!
//! See `perfbench/README.md` for the workloads and metrics.

pub mod alloc;
pub mod check;
pub mod client;
pub mod job;
pub mod layers;
pub mod metrics;
pub mod serving;
pub mod stats;
pub mod transcript;
