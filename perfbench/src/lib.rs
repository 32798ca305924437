//! # tetriserve-perfbench
//!
//! Host benchmark of the heterogeneous fleet co-simulation (2×H100x8 +
//! A40x4, deadline-aware router, `ShedInfeasible` admission, serial
//! driver). One process runs one simulation of one workload and prints one
//! JSON line; `run.py` starts a fresh process per measured run, checks
//! the outputs and reports medians. See NOTES.md for the workloads, the
//! metrics and the measured noise.

pub mod layers;
pub mod probe;
pub mod run;
pub mod workload;

pub use run::{run, RunOptions, RunResult};
pub use workload::Workload;
