//! # vax-mem
//!
//! The VAX-11/780 memory subsystem, modelled at the fidelity the paper's
//! timing decomposition requires:
//!
//! * **Physical memory** — a flat 8 MB store (the configuration of the
//!   measured machines).
//! * **Page tables & translation buffer** — 512-byte VAX pages, P0/P1/S0
//!   regions, and the 780's 128-entry two-way TB split into system and
//!   process halves. A TB miss is *not* serviced here: it is reported to the
//!   CPU, whose microcode trap routine performs the PTE fetch (through the
//!   cache, where it may stall) and inserts the translation — exactly the
//!   microcode-visible behaviour the µPC histogram technique relies on.
//! * **Data cache** — 8 KB, two-way set-associative, 8-byte blocks,
//!   write-through with no write-allocate (writes that miss do not update
//!   the cache).
//! * **Write buffer** — one longword; a write completes 6 cycles after
//!   issue, and a second write inside that window stalls the EBOX (the
//!   paper's *write stall*).
//! * **SBI** — the Synchronous Backplane Interconnect, modelled as a single
//!   shared resource with a 6-cycle read-miss service time (the paper's
//!   simplest-case *read stall*).
//!
//! All latencies are in units of the 780's 200 ns microcycle.

pub mod addr;
pub mod cache;
pub mod codewatch;
pub mod memsys;
pub mod pagetable;
pub mod phys;
pub mod sbi;
pub mod stats;
pub mod tb;
pub mod writebuf;

pub use addr::{PhysAddr, Region, VirtAddr, PAGE_SIZE};
pub use cache::{Cache, CacheConfig};
pub use codewatch::CodeWatch;
pub use memsys::{MemConfig, MemorySystem};
pub use pagetable::{PageTables, Pte};
pub use phys::PhysicalMemory;
pub use stats::MemStats;
pub use tb::{Tb, TbConfig};
pub use writebuf::WriteBuffer;
