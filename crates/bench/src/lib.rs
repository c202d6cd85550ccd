//! # vax-bench
//!
//! The `reproduce` binary that regenerates every table and figure of Emer
//! & Clark (ISCA 1984), and the job engine and serve daemon behind it. See
//! `src/bin/reproduce.rs`. Host performance is measured by the repository
//! benchmark in `examples/benchmark`, which drives this crate through its
//! public functions.

pub mod cache;
pub mod cancel;
pub mod charrun;
pub mod cli;
pub mod diffcmd;
pub mod engine;
pub mod fsio;
pub mod heartbeat;
pub mod jobspec;
pub mod meter;
pub mod options;
pub mod pool;
pub mod progress;
pub mod resume;
pub mod runner;
pub mod serve;
pub mod tracecheck;

/// Default per-workload measurement length (instructions) for the full
/// reproduction. The paper ran each experiment ~1 hour of wall time; at
/// 10.6 cycles (2.1 µs) per instruction that is ~1.7 G instructions — far
/// beyond what shape-fidelity requires. One million instructions per
/// workload is past the point where every reported statistic is stable to
/// three digits.
pub const DEFAULT_INSTRUCTIONS: u64 = 1_000_000;

/// Default RNG seed for the reproduction experiments.
pub const DEFAULT_SEED: u64 = 1984;
