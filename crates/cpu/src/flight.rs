//! The flight recorder: a bounded ring of the last K retired instructions.
//!
//! When the simulator dies — an unhandled page fault, an illegal
//! instruction, an unmapped reference — the raw panic message rarely says
//! *how the machine got there*. The flight recorder keeps the last K
//! retired instructions (PC, cycle, disassembly) in a fixed-size ring and
//! dumps them to stderr, giving a failure a short instruction-level
//! backtrace of simulated time. Three paths dump it: a BPT instruction
//! (the guest's debugging entry point), the CPU's fatal-error path
//! (`Cpu::fatal`, just before its panic), and the orchestrator when a
//! cell is quarantined after its last attempt.
//!
//! Disabled (capacity 0) by default: recording disassembles every retired
//! instruction into a `String`, which is far too expensive for measurement
//! runs. Enable it with [`SharedFlightRecorder::with_capacity`] when
//! debugging a workload.
//!
//! The CPU holds a [`SharedFlightRecorder`], a handle to a shared ring, so
//! the orchestrator keeps a clone of a cell's recorder and can dump it
//! after the machine that filled it is gone.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use vax_arch::Instruction;

/// One retired instruction as remembered by the recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// PC of the instruction.
    pub pc: u32,
    /// Cycle at retirement.
    pub cycle: u64,
    /// Disassembled form, e.g. `MOVL R1, R2`.
    pub disasm: String,
}

/// A bounded ring of recently retired instructions, shared by handle.
///
/// The CPU records through this handle on every retirement; a clone of the
/// same handle lets the orchestrator dump the ring of a cell it
/// quarantined. The capacity is kept outside the lock: a disabled recorder
/// (the default) costs one branch per retirement.
#[derive(Debug, Clone, Default)]
pub struct SharedFlightRecorder {
    capacity: usize,
    ring: Arc<Mutex<VecDeque<FlightEntry>>>,
}

impl SharedFlightRecorder {
    /// A disabled recorder (recording is a no-op).
    pub fn disabled() -> SharedFlightRecorder {
        SharedFlightRecorder::default()
    }

    /// A recorder keeping the most recent `capacity` instructions.
    pub fn with_capacity(capacity: usize) -> SharedFlightRecorder {
        SharedFlightRecorder {
            capacity,
            ring: Arc::new(Mutex::new(VecDeque::with_capacity(capacity))),
        }
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The ring. Each update leaves it whole, so a lock poisoned by a
    /// panicking cell still guards a ring worth dumping.
    fn ring(&self) -> MutexGuard<'_, VecDeque<FlightEntry>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a retirement. No-op when disabled.
    #[inline]
    pub fn record(&self, pc: u32, cycle: u64, insn: &Instruction) {
        if self.capacity == 0 {
            return;
        }
        let entry = FlightEntry {
            pc,
            cycle,
            disasm: insn.to_string(),
        };
        let mut ring = self.ring();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Number of retained entries (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring().is_empty()
    }

    /// A copy of the retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        self.ring().iter().cloned().collect()
    }

    /// Render the ring as a human-readable report (oldest first).
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let ring = self.ring();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: last {} retired instruction(s)",
            ring.len()
        );
        for e in ring.iter() {
            let _ = writeln!(
                out,
                "  cycle {:>12}  pc {:#010x}  {}",
                e.cycle, e.pc, e.disasm
            );
        }
        out
    }

    /// Dump the report to stderr (called on fatal simulation errors).
    pub fn dump_stderr(&self) {
        if !self.is_empty() {
            eprintln!("{}", self.report());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::{Opcode, Reg, Specifier};

    fn movl() -> Instruction {
        Instruction::new(
            Opcode::Movl,
            vec![
                Specifier::register(Reg::new(1)),
                Specifier::register(Reg::new(2)),
            ],
            None,
        )
    }

    #[test]
    fn caps_at_capacity() {
        let fr = SharedFlightRecorder::with_capacity(4);
        for i in 0..10 {
            fr.record(0x200 + i, i as u64, &movl());
        }
        assert_eq!(fr.len(), 4);
        let pcs: Vec<u32> = fr.snapshot().iter().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![0x206, 0x207, 0x208, 0x209], "keeps the newest");
    }

    #[test]
    fn disabled_records_nothing() {
        let fr = SharedFlightRecorder::disabled();
        fr.record(0x200, 1, &movl());
        assert!(fr.is_empty());
        assert!(!fr.is_enabled());
    }

    #[test]
    fn report_contains_disassembly() {
        let fr = SharedFlightRecorder::with_capacity(2);
        fr.record(0x200, 42, &movl());
        let rep = fr.report();
        assert!(rep.contains("MOVL"), "{rep}");
        assert!(rep.contains("0x00000200"), "{rep}");
    }

    #[test]
    fn handle_clones_share_the_ring() {
        let a = SharedFlightRecorder::with_capacity(4);
        let b = a.clone();
        a.record(0x200, 1, &movl());
        assert_eq!(b.len(), 1);
        assert_eq!(b.snapshot()[0].pc, 0x200);
    }
}
