//! CPU-side event counters.
//!
//! Most of the paper's tables are reduced from the µPC histogram; these
//! counters cover the few quantities the paper obtained from other sources
//! (instruction sizes, Table 6) or that cross-check the reduction
//! (per-branch-class taken rates, Table 2; interrupt headway, Table 7).

use vax_arch::{BranchKind, Opcode};

/// Counters accumulated by the CPU while stepping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Total I-stream bytes of retired instructions (Table 6).
    pub istream_bytes: u64,
    /// Dynamic count per opcode.
    pub opcode_counts: Vec<u64>,
    /// PC-changing instructions executed, by class (Table 2).
    pub branch_executed: [u64; 10],
    /// PC-changing instructions that actually changed the PC, by class.
    pub branch_taken: [u64; 10],
    /// Hardware interrupts delivered.
    pub hw_interrupts: u64,
    /// Software interrupts delivered.
    pub sw_interrupts: u64,
    /// Software interrupt *requests* (MTPR to SIRR).
    pub sw_interrupt_requests: u64,
    /// Machine checks delivered (latched parity faults turned into
    /// high-IPL interrupts through the SCB machine-check slot).
    pub machine_checks: u64,
    /// Context switches (LDPCTX executions).
    pub context_switches: u64,
    /// Exceptions dispatched (arithmetic traps etc.).
    pub exceptions: u64,
    /// Operand specifiers evaluated in first position.
    pub spec1_count: u64,
    /// Operand specifiers evaluated in positions 2–6.
    pub spec26_count: u64,
    /// Quad-width first-specifier evaluations whose repeated data µop lands
    /// on the routine's entry address (RegisterDeferred and Autoincrement
    /// data-at-entry routines). The histogram's entry count exceeds
    /// `spec1_count` by exactly this amount; the validation pass uses it to
    /// reconcile the two instruments.
    pub spec1_quad_repeats: u64,
    /// Same for specifiers in positions 2–6.
    pub spec26_quad_repeats: u64,
    /// Branch displacements present on retired instructions.
    pub branch_disps: u64,
}

impl CpuStats {
    /// Zeroed counters.
    pub fn new() -> CpuStats {
        CpuStats {
            instructions: 0,
            istream_bytes: 0,
            opcode_counts: vec![0; Opcode::COUNT],
            branch_executed: [0; 10],
            branch_taken: [0; 10],
            hw_interrupts: 0,
            sw_interrupts: 0,
            sw_interrupt_requests: 0,
            machine_checks: 0,
            context_switches: 0,
            exceptions: 0,
            spec1_count: 0,
            spec26_count: 0,
            spec1_quad_repeats: 0,
            spec26_quad_repeats: 0,
            branch_disps: 0,
        }
    }

    /// Dense index of a branch kind for the per-class arrays.
    pub fn branch_index(kind: BranchKind) -> usize {
        match kind {
            BranchKind::None => 0,
            BranchKind::SimpleCond => 1,
            BranchKind::Loop => 2,
            BranchKind::LowBit => 3,
            BranchKind::Subroutine => 4,
            BranchKind::Unconditional => 5,
            BranchKind::Case => 6,
            BranchKind::BitBranch => 7,
            BranchKind::ProcCall => 8,
            BranchKind::SystemBranch => 9,
        }
    }

    /// Record a retired PC-changing instruction.
    pub fn record_branch(&mut self, kind: BranchKind, taken: bool) {
        let i = Self::branch_index(kind);
        self.branch_executed[i] += 1;
        if taken {
            self.branch_taken[i] += 1;
        }
    }

    /// Executed count for a branch class.
    pub fn branch_executed_of(&self, kind: BranchKind) -> u64 {
        self.branch_executed[Self::branch_index(kind)]
    }

    /// Taken count for a branch class.
    pub fn branch_taken_of(&self, kind: BranchKind) -> u64 {
        self.branch_taken[Self::branch_index(kind)]
    }

    /// All interrupts delivered (Table 7's "hardware and software").
    pub fn total_interrupts(&self) -> u64 {
        self.hw_interrupts + self.sw_interrupts
    }

    /// Average instruction size in bytes (Table 6).
    pub fn avg_instruction_bytes(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.istream_bytes as f64 / self.instructions as f64
    }

    /// Every scalar counter as `(name, value)`, in declaration order; each
    /// name is its field's identifier. The one list [`CpuStats::merge`]
    /// walks and every export and checkpoint reads, so a newly added
    /// counter cannot be left out of any of them. The per-opcode and
    /// per-branch-class arrays are handled alongside.
    pub fn scalars(&self) -> [(&'static str, u64); 13] {
        [
            ("instructions", self.instructions),
            ("istream_bytes", self.istream_bytes),
            ("hw_interrupts", self.hw_interrupts),
            ("sw_interrupts", self.sw_interrupts),
            ("sw_interrupt_requests", self.sw_interrupt_requests),
            ("machine_checks", self.machine_checks),
            ("context_switches", self.context_switches),
            ("exceptions", self.exceptions),
            ("spec1_count", self.spec1_count),
            ("spec26_count", self.spec26_count),
            ("spec1_quad_repeats", self.spec1_quad_repeats),
            ("spec26_quad_repeats", self.spec26_quad_repeats),
            ("branch_disps", self.branch_disps),
        ]
    }

    /// [`CpuStats::scalars`] as `(name, slot)`, for merging and decoding.
    pub fn scalars_mut(&mut self) -> [(&'static str, &mut u64); 13] {
        [
            ("instructions", &mut self.instructions),
            ("istream_bytes", &mut self.istream_bytes),
            ("hw_interrupts", &mut self.hw_interrupts),
            ("sw_interrupts", &mut self.sw_interrupts),
            ("sw_interrupt_requests", &mut self.sw_interrupt_requests),
            ("machine_checks", &mut self.machine_checks),
            ("context_switches", &mut self.context_switches),
            ("exceptions", &mut self.exceptions),
            ("spec1_count", &mut self.spec1_count),
            ("spec26_count", &mut self.spec26_count),
            ("spec1_quad_repeats", &mut self.spec1_quad_repeats),
            ("spec26_quad_repeats", &mut self.spec26_quad_repeats),
            ("branch_disps", &mut self.branch_disps),
        ]
    }

    /// Merge another stats block (composite workloads).
    pub fn merge(&mut self, other: &CpuStats) {
        for ((_, a), (_, b)) in self.scalars_mut().into_iter().zip(other.scalars()) {
            *a += b;
        }
        for (a, b) in self.opcode_counts.iter_mut().zip(&other.opcode_counts) {
            *a += b;
        }
        for i in 0..10 {
            self.branch_executed[i] += other.branch_executed[i];
            self.branch_taken[i] += other.branch_taken[i];
        }
    }
}

impl Default for CpuStats {
    fn default() -> Self {
        CpuStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_recording() {
        let mut s = CpuStats::new();
        s.record_branch(BranchKind::Loop, true);
        s.record_branch(BranchKind::Loop, false);
        assert_eq!(s.branch_executed_of(BranchKind::Loop), 2);
        assert_eq!(s.branch_taken_of(BranchKind::Loop), 1);
    }

    #[test]
    fn averages_and_merge() {
        let mut a = CpuStats::new();
        a.instructions = 10;
        a.istream_bytes = 38;
        assert!((a.avg_instruction_bytes() - 3.8).abs() < 1e-9);
        let mut b = CpuStats::new();
        b.instructions = 10;
        b.istream_bytes = 42;
        b.hw_interrupts = 3;
        a.merge(&b);
        assert_eq!(a.instructions, 20);
        assert_eq!(a.istream_bytes, 80);
        assert_eq!(a.total_interrupts(), 3);
    }

    #[test]
    fn zero_instructions_safe() {
        assert_eq!(CpuStats::new().avg_instruction_bytes(), 0.0);
    }

    /// A name paired with the wrong field survives every round trip, so
    /// each field holds a distinct value and both lists must name it.
    #[test]
    fn each_scalar_name_sits_beside_its_own_field() {
        let mut s = CpuStats {
            instructions: 1,
            istream_bytes: 2,
            hw_interrupts: 3,
            sw_interrupts: 4,
            sw_interrupt_requests: 5,
            machine_checks: 6,
            context_switches: 7,
            exceptions: 8,
            spec1_count: 9,
            spec26_count: 10,
            spec1_quad_repeats: 11,
            spec26_quad_repeats: 12,
            branch_disps: 13,
            ..CpuStats::new()
        };
        let want: Vec<(&str, u64)> = [
            "instructions",
            "istream_bytes",
            "hw_interrupts",
            "sw_interrupts",
            "sw_interrupt_requests",
            "machine_checks",
            "context_switches",
            "exceptions",
            "spec1_count",
            "spec26_count",
            "spec1_quad_repeats",
            "spec26_quad_repeats",
            "branch_disps",
        ]
        .into_iter()
        .zip(1..)
        .collect();
        assert_eq!(s.scalars().to_vec(), want);
        let slots: Vec<(&str, u64)> = s.scalars_mut().map(|(k, v)| (k, *v)).to_vec();
        assert_eq!(slots, want);
    }
}
