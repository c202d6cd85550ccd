//! # upc-monitor
//!
//! The paper's instrument: a micro-PC histogram monitor.
//!
//! Emer & Clark built a hardware board with 16,000 addressable count buckets
//! that incremented, at the 780's microcycle rate, a bucket selected by the
//! processor's current micro-PC. The board keeps **two planes** of counters:
//! one for normally-executing microinstructions and one for read-/write-
//! stalled microinstructions, so the *duration* of stalls is measurable even
//! though their cause is not microcode-visible. IB stalls appear in the
//! normal plane as executions of the dedicated "insufficient bytes"
//! dispatch microaddress.
//!
//! This crate models the instrument faithfully:
//!
//! * [`Histogram`] — the count board: 16 K locations × 2 planes, with the
//!   Unibus device's start/stop/clear/read operations. It is completely
//!   passive. Only a prefix sized by its owner is backed by memory (a CPU
//!   backs the locations its control store allocates); the rest reads 0.
//! * [`ControlStoreMap`] — the *data reduction key*: which µPC ranges belong
//!   to which activity (instruction decode, first-specifier processing,
//!   execute microcode of each opcode group, TB-miss service, …) and what
//!   each microinstruction does (compute, read, write, or wait-for-IB).
//!   The paper's analysts had the real microcode listings; our CPU builds
//!   its synthetic control store through this map, and the analysis crate
//!   reduces histograms against it without ever looking inside the CPU.
//!
//! ```
//! use upc_monitor::{Activity, ControlStoreMap, Histogram, MicroOp, Plane};
//!
//! let mut map = ControlStoreMap::new();
//! let region = map.alloc("IRD", Activity::Decode, &[MicroOp::Compute]);
//! let mut hist = Histogram::new_16k();
//! hist.start();
//! hist.record(region.at(0), Plane::Normal);
//! hist.stop();
//! assert_eq!(hist.read(region.at(0), Plane::Normal), 1);
//! ```

pub mod histogram;
pub mod map;

pub use histogram::{Histogram, Plane};
pub use map::{Activity, ControlStoreMap, CycleClass, MicroOp, MicroPc, Region};

/// Number of histogram buckets on the count board.
pub const BOARD_BUCKETS: usize = 16 * 1024;
