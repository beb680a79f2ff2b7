//! The repository benchmark: four named workloads timed end to end with
//! every observer off, and a separate traced run that reports per-layer
//! numbers from spans the benchmark records around calls into each
//! layer's public functions. See `README.md` for the workloads, the
//! metrics and how to run it.

#![forbid(unsafe_code)]

pub mod crossing;
pub mod emit;
pub mod host;
pub mod replica;
pub mod serve;
pub mod span;
pub mod stats;
pub mod suite;
pub mod workload;
