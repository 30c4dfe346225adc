//! End-to-end and per-layer benchmark of the MIRABEL EDMS hierarchy.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to run it.

pub mod bench;
pub mod checks;
pub mod driver;
pub mod metrics;
pub mod trace;
pub mod workloads;
