//! `perf-ledger`: the repository benchmark.
//!
//! It runs three workloads ([`workload::Workload`]) through the sweep
//! engine and checks every cell ([`check`]); a separate traced run replays
//! one representative cell into each layer's public functions
//! ([`replay`]) to split its wall time by layer. `run.py` drives the
//! binary and aggregates repeated passes; README.md documents every
//! metric.

pub mod calib;
pub mod check;
pub mod pass;
pub mod replay;
pub mod workload;
