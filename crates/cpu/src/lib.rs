//! # vax-cpu
//!
//! A microcycle-accurate behavioural model of the VAX-11/780 CPU pipeline:
//! the microcoded **EBOX**, the **I-Decode** stage, and the **I-Fetch** unit
//! with its 8-byte instruction buffer (IB).
//!
//! Every VAX instruction executes as a sequence of microcycles. Each
//! microcycle carries a micro-PC drawn from a synthetic control store whose
//! *organization* mirrors the real 780 microcode: an instruction-decode
//! routine, per-addressing-mode operand-specifier routines (separate copies
//! for the first and for subsequent specifiers, as in the real machine),
//! branch-displacement processing, per-opcode execute routines, the TB-miss
//! service routine, interrupt dispatch, unaligned-reference microcode, and
//! abort cycles. A [`upc_monitor::Histogram`] attached to the CPU observes
//! `(µPC, plane)` each cycle — the measurement instrument of the paper.
//!
//! Timing anchors (paper §2.1, §4.3):
//! * decode takes exactly one non-overlapped cycle per instruction;
//! * a read hitting TB and cache takes one cycle; a cache miss read-stalls
//!   the EBOX ~6 cycles (more under SBI contention);
//! * a write takes one cycle, with a 6-cycle drain; a second write inside
//!   the window write-stalls;
//! * IB starvation shows up as executions of the "insufficient bytes"
//!   dispatch microaddress (IB stall);
//! * a TB miss microtraps (one abort cycle) into a service routine that
//!   fetches the PTE through the cache.

pub mod config;
pub mod ebox;
pub mod exec;
pub mod flight;
pub mod ib;
pub mod icache;
pub mod ipr;
pub mod operand;
pub mod stats;
pub mod store;

pub use config::CpuConfig;
pub use ebox::{Cpu, StepOutcome};
pub use flight::{FlightEntry, SharedFlightRecorder};
pub use icache::{DecodeCache, DecodeCacheStats};
pub use ipr::Ipr;
pub use stats::CpuStats;
pub use store::ControlStore;
