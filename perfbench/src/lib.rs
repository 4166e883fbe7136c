//! Open-loop change-to-visible benchmark for the anytime-anywhere engine.
//!
//! Three workloads drive the engine through its public API only
//! (`AnytimeEngine`, `ServeHandle`): changes arrive on a seeded schedule
//! whatever the engine is doing, latencies run from due times, and every
//! run ends with bit-exact oracle checks. See `README.md` for the
//! workloads, the metrics and how to run them.

pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
