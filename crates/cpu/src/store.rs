//! The synthetic control store.
//!
//! The 780's microcode is organized as an instruction-decode dispatch,
//! per-addressing-mode specifier routines (with separate copies used for the
//! first specifier of an instruction versus later specifiers), branch
//! displacement processing, per-opcode execute routines, and service code
//! (TB miss, unaligned data, interrupts). We allocate a µPC region per
//! routine through the [`ControlStoreMap`], so the monitor's histogram can
//! be reduced *by address* exactly as the paper's analysts did against the
//! microcode listings.
//!
//! Like the 780's one microcode listing, the layout is a constant: it is
//! laid out once per process, on first use ([`ControlStore::get`]), and
//! every machine and every reduction reads that one store.

use std::sync::OnceLock;

use upc_monitor::{Activity, ControlStoreMap, MicroOp, MicroPc, Region};
use vax_arch::{AccessType, AddressingMode, Opcode, OpcodeGroup};

use crate::config::CpuConfig;
use crate::exec::{group_layout, row_of, ExecRow};

use MicroOp::{Compute as C, IbWait, Read as R, Write as W};

/// A routine layout of `N` compute µops, but for the data references and
/// IB waits at `refs`' offsets.
pub(crate) const fn layout<const N: usize>(refs: &[(u16, MicroOp)]) -> [MicroOp; N] {
    let mut ops = [C; N];
    let mut i = 0;
    while i < refs.len() {
        ops[refs[i].0 as usize] = refs[i].1;
        i += 1;
    }
    ops
}

/// `N` steps at consecutive offsets from `from`.
pub(crate) const fn span<const N: usize>(from: u16) -> [u16; N] {
    let mut steps = [0; N];
    let mut i = 0;
    while i < N {
        steps[i] = from + i as u16;
        i += 1;
    }
    steps
}

/// Access flavor of a specifier evaluation, determining its microroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFlavor {
    /// Operand is read at specifier time.
    Read,
    /// Operand address is computed; datum written at write-back.
    Write,
    /// Operand is read at specifier time and written at write-back.
    Modify,
    /// Only the address is computed (MOVAx, string bases, bit-field bases).
    Address,
}

impl SpecFlavor {
    /// Dense index for table storage.
    pub const fn index(self) -> usize {
        match self {
            SpecFlavor::Read => 0,
            SpecFlavor::Write => 1,
            SpecFlavor::Modify => 2,
            SpecFlavor::Address => 3,
        }
    }

    /// The flavor whose routine evaluates an operand of `access` type (a
    /// bit-field base is an address).
    pub const fn of(access: AccessType) -> SpecFlavor {
        match access {
            AccessType::Read => SpecFlavor::Read,
            AccessType::Write => SpecFlavor::Write,
            AccessType::Modify => SpecFlavor::Modify,
            AccessType::Address | AccessType::Field => SpecFlavor::Address,
        }
    }

    /// Every flavor, in [`SpecFlavor::index`] order.
    pub const ALL: [SpecFlavor; 4] = [
        SpecFlavor::Read,
        SpecFlavor::Write,
        SpecFlavor::Modify,
        SpecFlavor::Address,
    ];
}

/// The specifier routine for a (mode, flavor) pair, or `None` if the
/// combination is architecturally impossible or unused by our workloads.
///
/// The µop list is the routine's timing: `Cpu::eval_spec` runs it, and
/// the same list keys the histogram reduction, so a cost edit is an edit
/// to one row here. The EBOX reads each list in this order:
/// * literal, immediate and register operands run their one `Compute`;
///   for a register destination it is the write-back move, run after
///   execute, and a register modify's write-back is free;
/// * a memory operand forms its base address (and autoincrement or
///   autodecrement side effect) without a cycle of its own;
/// * a deferred mode's first two µops fetch the longword pointer at that
///   base (`Read` is the fetch, `Compute` one cycle);
/// * an index prefix adds its one cycle (`SpecRegions::index_prefix`);
/// * the remaining µops run in order: `Compute` is one cycle, `Read`
///   fetches the datum, and a final `Write` (write and modify flavors) is
///   the write-back, run after execute at its µPC;
/// * quad-width data repeats each datum `Read` or `Write` at the same µPC.
fn spec_ops(mode: AddressingMode, flavor: SpecFlavor) -> Option<&'static [MicroOp]> {
    use AddressingMode::*;
    let ops: &'static [MicroOp] = match (mode, flavor) {
        (Literal, SpecFlavor::Read) => &[C],
        (Literal, _) => return None,

        (Register, SpecFlavor::Read) => &[C],
        (Register, SpecFlavor::Write) => &[C],
        (Register, SpecFlavor::Modify) => &[C],
        // "address of a register" faults architecturally; bit-field bases in
        // register mode are handled as a register read.
        (Register, SpecFlavor::Address) => &[C],

        (RegisterDeferred, SpecFlavor::Read) => &[R],
        (RegisterDeferred, SpecFlavor::Write) => &[W],
        (RegisterDeferred, SpecFlavor::Modify) => &[R, W],
        (RegisterDeferred, SpecFlavor::Address) => &[C],

        (Autoincrement, SpecFlavor::Read) => &[R, C],
        (Autoincrement, SpecFlavor::Write) => &[C, W],
        (Autoincrement, SpecFlavor::Modify) => &[R, C, W],
        (Autoincrement, SpecFlavor::Address) => &[C, C],

        (Autodecrement, SpecFlavor::Read) => &[C, R],
        (Autodecrement, SpecFlavor::Write) => &[C, W],
        (Autodecrement, SpecFlavor::Modify) => &[C, R, W],
        (Autodecrement, SpecFlavor::Address) => &[C, C],

        (AutoincrementDeferred, SpecFlavor::Read) => &[R, C, R],
        (AutoincrementDeferred, SpecFlavor::Write) => &[R, C, W],
        (AutoincrementDeferred, SpecFlavor::Modify) => &[R, C, R, W],
        (AutoincrementDeferred, SpecFlavor::Address) => &[R, C],

        (ByteDisp | WordDisp | LongDisp, SpecFlavor::Read) => &[C, R],
        (ByteDisp | WordDisp | LongDisp, SpecFlavor::Write) => &[C, W],
        (ByteDisp | WordDisp | LongDisp, SpecFlavor::Modify) => &[C, R, W],
        (ByteDisp | WordDisp | LongDisp, SpecFlavor::Address) => &[C],

        (ByteDispDeferred | WordDispDeferred | LongDispDeferred, SpecFlavor::Read) => &[C, R, R],
        (ByteDispDeferred | WordDispDeferred | LongDispDeferred, SpecFlavor::Write) => &[C, R, W],
        (ByteDispDeferred | WordDispDeferred | LongDispDeferred, SpecFlavor::Modify) => {
            &[C, R, R, W]
        }
        (ByteDispDeferred | WordDispDeferred | LongDispDeferred, SpecFlavor::Address) => &[C, R],

        (Immediate, SpecFlavor::Read) => &[C],
        (Immediate, _) => return None,

        (Absolute, SpecFlavor::Read) => &[C, R],
        (Absolute, SpecFlavor::Write) => &[C, W],
        (Absolute, SpecFlavor::Modify) => &[C, R, W],
        (Absolute, SpecFlavor::Address) => &[C],

        (PcRelative, SpecFlavor::Read) => &[C, R],
        (PcRelative, SpecFlavor::Write) => &[C, W],
        (PcRelative, SpecFlavor::Modify) => &[C, R, W],
        (PcRelative, SpecFlavor::Address) => &[C],

        (PcRelativeDeferred, SpecFlavor::Read) => &[C, R, R],
        (PcRelativeDeferred, SpecFlavor::Write) => &[C, R, W],
        (PcRelativeDeferred, SpecFlavor::Modify) => &[C, R, R, W],
        (PcRelativeDeferred, SpecFlavor::Address) => &[C, R],
    };
    Some(ops)
}

/// The specifier microroutine set for one position class (SPEC1 or
/// SPEC2-6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecRegions {
    regions: [[Option<Region>; 4]; 16],
    /// The "insufficient bytes" dispatch target for this position class.
    pub ib_wait: MicroPc,
    /// The index-prefix base-address computation cycle.
    pub index_prefix: Region,
}

impl SpecRegions {
    fn build(map: &mut ControlStoreMap, activity: Activity, prefix: &str) -> SpecRegions {
        let mut regions: [[Option<Region>; 4]; 16] = Default::default();
        for &mode in AddressingMode::ALL.iter() {
            for flavor in SpecFlavor::ALL {
                if let Some(ops) = spec_ops(mode, flavor) {
                    let name = format!("{prefix}.{:?}.{:?}", mode, flavor);
                    regions[mode.index()][flavor.index()] = Some(map.alloc(&name, activity, ops));
                }
            }
        }
        let ib_wait = map
            .alloc(&format!("{prefix}.IBWAIT"), activity, &[MicroOp::IbWait])
            .entry();
        let index_prefix = map.alloc(&format!("{prefix}.INDEX"), activity, &[MicroOp::Compute]);
        SpecRegions {
            regions,
            ib_wait,
            index_prefix,
        }
    }

    /// The routine for a (mode, flavor) pair, or `None` for an impossible
    /// combination (e.g. writing a literal).
    #[inline]
    pub fn get(&self, mode: AddressingMode, flavor: SpecFlavor) -> Option<Region> {
        self.regions[mode.index()][flavor.index()]
    }

    /// The routine for a (mode, flavor) pair.
    ///
    /// # Panics
    /// Panics for impossible combinations (see [`SpecRegions::get`]).
    #[inline]
    pub fn routine(&self, mode: AddressingMode, flavor: SpecFlavor) -> Region {
        self.get(mode, flavor)
            .unwrap_or_else(|| panic!("no specifier routine for {mode:?} {flavor:?}"))
    }
}

/// The Table 8 row an opcode group's execute routines charge.
pub fn group_activity(group: OpcodeGroup) -> Activity {
    match group {
        OpcodeGroup::Simple => Activity::ExecSimple,
        OpcodeGroup::Field => Activity::ExecField,
        OpcodeGroup::Float => Activity::ExecFloat,
        OpcodeGroup::CallRet => Activity::ExecCallRet,
        OpcodeGroup::System => Activity::ExecSystem,
        OpcodeGroup::Character => Activity::ExecCharacter,
        OpcodeGroup::Decimal => Activity::ExecDecimal,
    }
}

// The routines outside the specifier and execute tables: named offsets,
// their `layout`, and the step lists `Cpu::walk` runs. The EBOX charges
// IRD's, BDISP's and ABORT's single steps directly.

/// IRD: the one decode cycle, and the decode-time "insufficient bytes"
/// dispatch.
pub mod ird {
    use super::*;
    pub const DECODE: u16 = 0;
    pub const IB_WAIT: u16 = 1;
    pub const OPS: [MicroOp; 2] = layout(&[(IB_WAIT, IbWait)]);
}

/// BDISP: a taken branch's target computation, and the displacement's IB
/// wait.
pub mod bdisp {
    use super::*;
    pub const TARGET: u16 = 0;
    pub const IB_WAIT: u16 = 1;
    pub const OPS: [MicroOp; 2] = layout(&[(IB_WAIT, IbWait)]);
}

/// ABORT: the abort cycle of a microtrap or a microcode patch.
pub mod abort {
    use super::*;
    pub const ABORT: u16 = 0;
    pub const OPS: [MicroOp; 1] = layout(&[]);
}

/// TBMISS (MemMgmt): state save and PTE address computation from `SETUP`,
/// the PTE `READ` (one cycle per PTE read, two when the process PTE's
/// system page also misses, and their stall), and installing the
/// translation. The paper's 21.6-cycle average is these cycles plus the
/// stall.
pub mod tbmiss {
    use super::*;
    pub const SETUP: u16 = 0;
    pub const READ: u16 = 18;
    pub const FINISH: u16 = 19;
    pub const OPS: [MicroOp; 20] = layout(&[(READ, R)]);
    pub const STEPS: [u16; 20] = span(SETUP);
}

/// INT.DISPATCH (IntExcept): state sequencing from `SETUP`, the SCB
/// `VECTOR` read, the PSL and PC pushes (the PC ends on top, as REI
/// expects), and cleanup from `FINISH`.
pub mod int_dispatch {
    use super::*;
    pub const SETUP: u16 = 0;
    pub const VECTOR: u16 = 26;
    pub const PUSH_PSL: u16 = 27;
    pub const PUSH_PC: u16 = 28;
    pub const FINISH: u16 = 29;
    pub const OPS: [MicroOp; 33] = layout(&[(VECTOR, R), (PUSH_PSL, W), (PUSH_PC, W)]);
    pub const STEPS: [u16; 33] = span(SETUP);
}

/// UNALIGNED (MemMgmt): a datum that crosses an aligned longword computes
/// the next one's address, then makes its second physical reference.
pub mod unaligned {
    use super::*;
    pub const CALC1: u16 = 0;
    pub const CALC2: u16 = 1;
    pub const READ: u16 = 2;
    pub const WRITE: u16 = 3;
    pub const OPS: [MicroOp; 4] = layout(&[(READ, R), (WRITE, W)]);
    pub const READ_STEPS: [u16; 3] = [CALC1, CALC2, READ];
    pub const WRITE_STEPS: [u16; 3] = [CALC1, CALC2, WRITE];
}

/// The fully laid-out control store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlStore {
    /// The reduction key (shared with the analysis crate).
    pub map: ControlStoreMap,
    /// Instruction decode ([`ird`]).
    pub ird: Region,
    /// First-specifier routines.
    pub spec1: SpecRegions,
    /// Later-specifier routines.
    pub spec26: SpecRegions,
    /// Branch displacement ([`bdisp`]).
    pub bdisp: Region,
    /// Execute routine per opcode (indexed by `Opcode as usize`): its
    /// region and the cost-table row that times it.
    exec: Vec<(Region, &'static ExecRow)>,
    /// TB-miss service ([`tbmiss`]).
    pub tb_miss: Region,
    /// Unaligned-reference microcode ([`unaligned`]).
    pub unaligned: Region,
    /// Interrupt dispatch ([`int_dispatch`]).
    pub interrupt: Region,
    /// The abort cycle ([`abort`]).
    pub abort: Region,
}

impl ControlStore {
    /// The process's control store, laid out on first use. Every [`Cpu`]
    /// holds it, so every machine's histogram is keyed on the same µPCs.
    ///
    /// [`Cpu`]: crate::Cpu
    pub fn get() -> &'static ControlStore {
        static STORE: OnceLock<ControlStore> = OnceLock::new();
        STORE.get_or_init(|| ControlStore::new(&CpuConfig::VAX_780))
    }

    /// Lay out a fresh copy of the control store. No field of `config`
    /// shapes it: machines and reductions read [`ControlStore::get`]
    /// instead, which lays it out once.
    pub fn new(_config: &CpuConfig) -> ControlStore {
        let mut map = ControlStoreMap::new();

        let ird = map.alloc("IRD", Activity::Decode, &ird::OPS);
        let spec1 = SpecRegions::build(&mut map, Activity::Spec1, "SPEC1");
        let spec26 = SpecRegions::build(&mut map, Activity::Spec26, "SPEC26");
        let bdisp = map.alloc("BDISP", Activity::BDisp, &bdisp::OPS);

        let mut exec = Vec::with_capacity(Opcode::COUNT);
        for info in vax_arch::opcode::OPCODE_TABLE {
            let (name, activity) = (
                format!("EXEC.{}", info.mnemonic),
                group_activity(info.group),
            );
            let row = row_of(info.opcode)
                .unwrap_or_else(|| panic!("{} has no execute cost row", info.mnemonic));
            exec.push((map.alloc(&name, activity, group_layout(info.group)), row));
        }

        let tb_miss = map.alloc("TBMISS", Activity::MemMgmt, &tbmiss::OPS);
        let unaligned = map.alloc("UNALIGNED", Activity::MemMgmt, &unaligned::OPS);
        let interrupt = map.alloc("INT.DISPATCH", Activity::IntExcept, &int_dispatch::OPS);
        let abort = map.alloc("ABORT", Activity::Abort, &abort::OPS);

        ControlStore {
            map,
            ird,
            spec1,
            spec26,
            bdisp,
            exec,
            tb_miss,
            unaligned,
            interrupt,
            abort,
        }
    }

    /// Execute region of an opcode.
    #[inline]
    pub fn exec_region(&self, op: Opcode) -> Region {
        self.exec[op as usize].0
    }

    /// The cost-table row that times an opcode's execute routine: its
    /// steps are offsets into [`ControlStore::exec_region`].
    #[inline]
    pub fn exec_row(&self, op: Opcode) -> &'static ExecRow {
        self.exec[op as usize].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_within_16k() {
        let cs = ControlStore::get();
        assert!(cs.map.len() <= upc_monitor::BOARD_BUCKETS);
        assert!(cs.map.len() > 500, "control store should be substantial");
    }

    #[test]
    fn decode_region_shape() {
        let cs = ControlStore::get();
        assert_eq!(cs.map.op(cs.ird.at(ird::DECODE)), MicroOp::Compute);
        assert_eq!(cs.map.op(cs.ird.at(ird::IB_WAIT)), MicroOp::IbWait);
        assert_eq!(cs.map.activity(cs.ird.entry()), Activity::Decode);
    }

    #[test]
    fn spec_routines_exist() {
        let cs = ControlStore::get();
        let r = cs.spec1.routine(AddressingMode::ByteDisp, SpecFlavor::Read);
        assert_eq!(
            cs.spec1.get(AddressingMode::ByteDisp, SpecFlavor::Read),
            Some(r)
        );
        assert_eq!(
            cs.spec1.get(AddressingMode::Literal, SpecFlavor::Write),
            None
        );
        assert_eq!(r.len, 2);
        assert_eq!(cs.map.op(r.at(0)), MicroOp::Compute);
        assert_eq!(cs.map.op(r.at(1)), MicroOp::Read);
        assert_eq!(cs.map.activity(r.at(1)), Activity::Spec1);
        let w = cs
            .spec26
            .routine(AddressingMode::Register, SpecFlavor::Write);
        assert_eq!(w.len, 1);
        assert_eq!(cs.map.activity(w.at(0)), Activity::Spec26);
    }

    #[test]
    #[should_panic(expected = "no specifier routine")]
    fn literal_write_impossible() {
        let cs = ControlStore::get();
        let _ = cs.spec1.routine(AddressingMode::Literal, SpecFlavor::Write);
    }

    #[test]
    fn exec_regions_cover_all_opcodes() {
        let cs = ControlStore::get();
        assert_eq!(cs.exec.len(), Opcode::COUNT);
        let r = cs.exec_region(Opcode::Movc3);
        assert_eq!(cs.map.activity(r.entry()), Activity::ExecCharacter);
        assert!(cs.map.routine(r.entry()).contains("MOVC3"));
    }

    /// Each service step list stays in its region and meets the data
    /// references its walker makes, in order.
    #[test]
    fn service_step_lists_meet_their_walkers_references() {
        let cs = ControlStore::get();
        let data = |region: Region, steps: &[u16]| -> Vec<MicroOp> {
            let ops = steps.iter().map(|&s| cs.map.op(region.at(s)));
            ops.filter(|&op| op != C).collect()
        };
        assert_eq!(data(cs.tb_miss, &tbmiss::STEPS), [R]);
        assert_eq!(data(cs.interrupt, &int_dispatch::STEPS), [R, W, W]);
        assert_eq!(data(cs.unaligned, &unaligned::READ_STEPS), [R]);
        assert_eq!(data(cs.unaligned, &unaligned::WRITE_STEPS), [W]);
        assert_eq!(tbmiss::STEPS.len(), usize::from(cs.tb_miss.len));
        assert_eq!(int_dispatch::STEPS.len(), usize::from(cs.interrupt.len));
        assert_eq!(cs.map.activity(cs.tb_miss.entry()), Activity::MemMgmt);
    }
}
