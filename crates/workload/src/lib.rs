//! # vax-workload
//!
//! Synthetic workload generation, standing in for the paper's five
//! measured workloads (two live timesharing systems and three RTE-driven
//! synthetic user populations).
//!
//! A [`WorkloadProfile`] holds generator-level knobs — instruction-mix
//! weights, operand addressing-mode mixes, loop shapes, call density,
//! string lengths, working-set sizes — calibrated so the *measured*
//! frequencies (paper Tables 1–5) come out near the published values. The
//! time decomposition (Tables 8–9) is never tuned directly; it emerges from
//! the microarchitecture model running this code.
//!
//! [`generate_process`] emits a complete VAX program (real machine code via
//! `vax-asm`) and [`build_system`] assembles a multi-user system à la the
//! RTE experiments.

pub mod codegen;
pub mod probe;
pub mod profile;
pub mod rte;

pub use codegen::generate_process;
pub use probe::{probe_system, quiesced_config};
pub use profile::{Workload, WorkloadProfile};
pub use rte::build_system;
