//! The control-store map: µPC allocation and classification.
//!
//! On the real 780 the microcode listings told the analysts what every
//! control-store location did. Our CPU *builds* its control store through
//! [`ControlStoreMap::alloc`], so the same information is available to the
//! reduction: each address has an [`Activity`] (a row of the paper's
//! Table 8) and a [`MicroOp`] kind (which, combined with the histogram
//! plane, yields the six cycle-class columns).

use std::fmt;

/// A control-store address (µPC), 0..16384.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MicroPc(pub u16);

impl fmt::Display for MicroPc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "µ{:04x}", self.0)
    }
}

/// The activity rows of paper Table 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Activity {
    /// Initial instruction decode (one non-overlapped cycle).
    Decode,
    /// First operand specifier processing.
    Spec1,
    /// Second through sixth specifier processing.
    Spec26,
    /// Branch displacement processing.
    BDisp,
    /// Execute phase, SIMPLE group.
    ExecSimple,
    /// Execute phase, FIELD group.
    ExecField,
    /// Execute phase, FLOAT group.
    ExecFloat,
    /// Execute phase, CALL/RET group.
    ExecCallRet,
    /// Execute phase, SYSTEM group.
    ExecSystem,
    /// Execute phase, CHARACTER group.
    ExecCharacter,
    /// Execute phase, DECIMAL group.
    ExecDecimal,
    /// Interrupt and exception dispatch overhead.
    IntExcept,
    /// Memory management (TB miss service) and unaligned-data microcode.
    MemMgmt,
    /// Abort cycles: one per microtrap and one per microcode patch.
    Abort,
}

impl Activity {
    /// All activities in Table 8 row order.
    pub const ALL: [Activity; 14] = [
        Activity::Decode,
        Activity::Spec1,
        Activity::Spec26,
        Activity::BDisp,
        Activity::ExecSimple,
        Activity::ExecField,
        Activity::ExecFloat,
        Activity::ExecCallRet,
        Activity::ExecSystem,
        Activity::ExecCharacter,
        Activity::ExecDecimal,
        Activity::IntExcept,
        Activity::MemMgmt,
        Activity::Abort,
    ];

    /// Table-8 row label.
    pub const fn name(self) -> &'static str {
        match self {
            Activity::Decode => "Decode",
            Activity::Spec1 => "Spec 1",
            Activity::Spec26 => "Spec 2-6",
            Activity::BDisp => "B-Disp",
            Activity::ExecSimple => "Simple",
            Activity::ExecField => "Field",
            Activity::ExecFloat => "Float",
            Activity::ExecCallRet => "Call/Ret",
            Activity::ExecSystem => "System",
            Activity::ExecCharacter => "Character",
            Activity::ExecDecimal => "Decimal",
            Activity::IntExcept => "Int/Except",
            Activity::MemMgmt => "Mem Mgmt",
            Activity::Abort => "Abort",
        }
    }

    /// Stable dense index in [`Activity::ALL`] order.
    pub fn index(self) -> usize {
        Activity::ALL.iter().position(|a| *a == self).unwrap()
    }
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a microinstruction does, as visible to the interface board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroOp {
    /// Autonomous EBOX operation — no memory reference.
    Compute,
    /// Issues a D-stream read (may read-stall).
    Read,
    /// Issues a D-stream write (may write-stall).
    Write,
    /// The "insufficient bytes in IB" dispatch target; each execution is
    /// one IB-stall cycle.
    IbWait,
}

/// The six mutually exclusive cycle classes — the columns of Table 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CycleClass {
    /// Ordinary microcode computation.
    Compute,
    /// A memory-read microcycle.
    Read,
    /// Cycles stalled waiting for read data.
    ReadStall,
    /// A memory-write microcycle.
    Write,
    /// Cycles stalled waiting for the write buffer.
    WriteStall,
    /// Cycles stalled waiting for instruction bytes.
    IbStall,
}

impl CycleClass {
    /// All classes in Table 8 column order.
    pub const ALL: [CycleClass; 6] = [
        CycleClass::Compute,
        CycleClass::Read,
        CycleClass::ReadStall,
        CycleClass::Write,
        CycleClass::WriteStall,
        CycleClass::IbStall,
    ];

    /// Table-8 column label.
    pub const fn name(self) -> &'static str {
        match self {
            CycleClass::Compute => "Compute",
            CycleClass::Read => "Read",
            CycleClass::ReadStall => "R-Stall",
            CycleClass::Write => "Write",
            CycleClass::WriteStall => "W-Stall",
            CycleClass::IbStall => "IB-Stall",
        }
    }

    /// Stable dense index in column order.
    pub fn index(self) -> usize {
        CycleClass::ALL.iter().position(|c| *c == self).unwrap()
    }
}

impl fmt::Display for CycleClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classify a histogram observation into a cycle class, exactly as the
/// paper's reduction did: the microinstruction's kind plus the counter
/// plane determine the class.
pub fn classify(op: MicroOp, stalled: bool) -> CycleClass {
    match (op, stalled) {
        (MicroOp::Compute, _) => CycleClass::Compute,
        (MicroOp::Read, false) => CycleClass::Read,
        (MicroOp::Read, true) => CycleClass::ReadStall,
        (MicroOp::Write, false) => CycleClass::Write,
        (MicroOp::Write, true) => CycleClass::WriteStall,
        (MicroOp::IbWait, _) => CycleClass::IbStall,
    }
}

/// One allocated microroutine region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First µPC of the region.
    pub base: MicroPc,
    /// Number of microinstructions.
    pub len: u16,
}

impl Region {
    /// The µPC of the `i`-th microinstruction of the routine.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn at(self, i: u16) -> MicroPc {
        assert!(
            i < self.len,
            "µPC offset {i} out of routine (len {})",
            self.len
        );
        MicroPc(self.base.0 + i)
    }

    /// The entry point (offset 0).
    pub fn entry(self) -> MicroPc {
        self.base
    }
}

/// Per-address control-store information.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index of the owning routine's name in [`ControlStoreMap::routines`].
    routine: u16,
    activity: Activity,
    op: MicroOp,
}

/// The control-store map: allocation of µPC space to microroutines and the
/// classification key for data reduction.
#[derive(Debug, Clone, Default)]
pub struct ControlStoreMap {
    slots: Vec<Slot>,
    /// One name per allocated region, shared by all of its addresses.
    routines: Vec<String>,
}

impl ControlStoreMap {
    /// An empty map.
    pub fn new() -> ControlStoreMap {
        ControlStoreMap::default()
    }

    /// Allocate a contiguous region for a microroutine named `name`, with
    /// one entry per microinstruction kind in `ops`.
    ///
    /// # Panics
    /// Panics if the 16 K control store is exhausted or `ops` is empty.
    pub fn alloc(&mut self, name: &str, activity: Activity, ops: &[MicroOp]) -> Region {
        assert!(!ops.is_empty(), "routine {name} must have at least one µop");
        let base = self.slots.len();
        assert!(
            base + ops.len() <= crate::BOARD_BUCKETS,
            "control store exhausted allocating {name}"
        );
        let routine = self.routines.len() as u16;
        self.routines.push(name.to_string());
        self.slots.extend(ops.iter().map(|&op| Slot {
            routine,
            activity,
            op,
        }));
        Region {
            base: MicroPc(base as u16),
            len: ops.len() as u16,
        }
    }

    /// Number of allocated control-store locations.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The activity of an address.
    ///
    /// # Panics
    /// Panics for an unallocated address.
    pub fn activity(&self, upc: MicroPc) -> Activity {
        self.slots[upc.0 as usize].activity
    }

    /// The microinstruction kind at an address.
    ///
    /// # Panics
    /// Panics for an unallocated address.
    pub fn op(&self, upc: MicroPc) -> MicroOp {
        self.slots[upc.0 as usize].op
    }

    /// The routine name owning an address.
    ///
    /// # Panics
    /// Panics for an unallocated address.
    pub fn routine(&self, upc: MicroPc) -> &str {
        &self.routines[self.slots[upc.0 as usize].routine as usize]
    }

    /// Iterate over all allocated addresses as (µPC, routine, activity, op).
    pub fn iter(&self) -> impl Iterator<Item = (MicroPc, &str, Activity, MicroOp)> + '_ {
        self.slots.iter().enumerate().map(|(i, s)| {
            let routine = self.routines[s.routine as usize].as_str();
            (MicroPc(i as u16), routine, s.activity, s.op)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_classify() {
        let mut map = ControlStoreMap::new();
        let r1 = map.alloc(
            "IRD",
            Activity::Decode,
            &[MicroOp::Compute, MicroOp::IbWait],
        );
        let r2 = map.alloc(
            "SPEC.RDISP",
            Activity::Spec1,
            &[MicroOp::Compute, MicroOp::Read],
        );
        assert_eq!(map.len(), 4);
        assert_eq!(map.activity(r1.at(0)), Activity::Decode);
        assert_eq!(map.op(r1.at(1)), MicroOp::IbWait);
        assert_eq!(map.routine(r2.at(1)), "SPEC.RDISP");
        assert_eq!(r2.base.0, 2);
    }

    #[test]
    fn a_region_shares_one_routine_name() {
        let mut map = ControlStoreMap::new();
        map.alloc("IRD", Activity::Decode, &[MicroOp::Compute]);
        let r = map.alloc(
            "EXEC.MOVC3",
            Activity::ExecCharacter,
            &[MicroOp::Compute, MicroOp::Read, MicroOp::Write],
        );
        let (first, last) = (map.routine(r.at(0)), map.routine(r.at(2)));
        assert_eq!(first, "EXEC.MOVC3");
        assert!(std::ptr::eq(first, last), "one name per region");
        let names: Vec<&str> = map.iter().map(|(_, name, _, _)| name).collect();
        assert_eq!(names, ["IRD", "EXEC.MOVC3", "EXEC.MOVC3", "EXEC.MOVC3"]);
    }

    #[test]
    fn classification_matrix() {
        assert_eq!(classify(MicroOp::Compute, false), CycleClass::Compute);
        assert_eq!(classify(MicroOp::Read, false), CycleClass::Read);
        assert_eq!(classify(MicroOp::Read, true), CycleClass::ReadStall);
        assert_eq!(classify(MicroOp::Write, false), CycleClass::Write);
        assert_eq!(classify(MicroOp::Write, true), CycleClass::WriteStall);
        assert_eq!(classify(MicroOp::IbWait, false), CycleClass::IbStall);
    }

    #[test]
    #[should_panic(expected = "out of routine")]
    fn region_bounds() {
        let mut map = ControlStoreMap::new();
        let r = map.alloc("X", Activity::Decode, &[MicroOp::Compute]);
        let _ = r.at(1);
    }

    #[test]
    fn indices_dense() {
        for (i, a) in Activity::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
        for (i, c) in CycleClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
