//! Directed-microbenchmark emission: one steady-state probe loop per
//! opcode × addressing-mode grid cell.
//!
//! A probe loop executes `reps` copies of a single *probed* instruction
//! inside a strictly periodic scaffold (register re-initialization plus an
//! unconditional `BRW` back edge), so that any measurement window of an
//! exact multiple of the loop period sums a whole number of iterations —
//! per-instruction cost falls out of the delta against an identical
//! scaffold with zero probe copies. The probed instruction carries the
//! grid cell's addressing mode on one operand; every other operand gets a
//! fixed safe default (small literal for reads, a scratch register for
//! writes, a pointer into the image's data area for addresses).
//!
//! The image embeds everything the probed modes can reach:
//!
//! ```text
//! origin+0x000  "src"      512 B of the longword 0x0000_0002 — the target
//!                          of every probed memory operand. The pattern is
//!                          chosen so any interpretation is safe: small as
//!                          a string/decimal length, nonzero as an integer
//!                          divisor, a clean zero as a float.
//! origin+0x200  "ptr"      32 longwords, each the address of "src" — the
//!                          pointer table the deferred modes bounce through.
//! origin+0x400  (pad)
//! origin+0x600  "scratch"  1 KiB of zeros — CHARACTER/DECIMAL destination
//!                          buffers and translate tables land here.
//! origin+0xA00  stack strip; SP is re-pointed at its midpoint every
//!                          iteration so PUSHR/POPR probes cannot drift.
//! origin+0xB00  "loop"     the scaffold and probe bodies.
//! ```
//!
//! Not every grid cell is measurable: branches would escape the loop,
//! SYSTEM-group opcodes trap or require privilege, literal/immediate
//! specifiers exist only for read access, and the address of a register
//! faults. Those cells carry a
//! [`SkipReason`] instead of a probe, and `reproduce characterize --list`
//! prints the full grid with those reasons.

use crate::builder::{Asm, AsmError, Image, Operand};
use vax_arch::opcode::OPCODE_TABLE;
use vax_arch::{AccessType, AddressingMode, BranchKind, Opcode, OpcodeGroup, OperandKind, Reg};

/// Base register carrying the probed operand's address (or value, in
/// register mode). Re-initialized every iteration.
pub const BASE_REG: Reg = Reg::new(6);
/// Register holding the scratch-area address; the default for address and
/// bit-field-base operands. Re-initialized every iteration.
pub const ADDR_REG: Reg = Reg::new(7);
/// Default destination register for write/modify operands (quad writes
/// also touch R5).
pub const DEST_REG: Reg = Reg::new(4);

/// Probe image origin (page 0 stays unmapped).
pub const ORIGIN: u32 = 0x200;
/// Address of the `src` data region.
pub const SRC_ADDR: u32 = ORIGIN;
/// Bytes in the `src` region.
pub const SRC_LEN: u32 = 0x200;
/// The longword pattern filling `src` (see module docs for why 2).
pub const SRC_FILL: u32 = 2;
/// Address of the pointer table.
pub const PTR_ADDR: u32 = ORIGIN + 0x200;
/// Entries in the pointer table (bounds the autoincrement-deferred walk).
pub const PTR_ENTRIES: u32 = 32;
/// Address of the scratch region.
pub const SCRATCH_ADDR: u32 = ORIGIN + 0x400;
/// SP re-initialization value: the midpoint of the stack strip, so pushes
/// and pops both stay inside it.
pub const SP_INIT: u32 = ORIGIN + 0x880;
/// Scaffold instructions per iteration (three MOVLs + the BRW back edge).
pub const SCAFFOLD_INSNS: u32 = 4;
/// Displacements forcing each displacement width (byte/word/long); the
/// base register is biased by the same amount so the effective address
/// still lands on the data region.
pub const BYTE_DISP: i32 = 16;
/// Displacement forcing word width.
pub const WORD_DISP: i32 = 300;
/// Displacement forcing long width.
pub const LONG_DISP: i32 = 70_000;
/// Upper bound on probe copies per iteration: keeps every autoincrement /
/// autodecrement walk inside its region (16 reps × 8-byte quad = 128 B).
pub const MAX_REPS: u32 = 16;

/// Why a grid cell cannot be probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The opcode branches, calls, jumps or returns — it would escape the
    /// measurement loop.
    ChangesPc,
    /// SYSTEM-group opcode: privileged, trapping, or context-changing.
    SystemGroup,
    /// The opcode has no operand specifiers to carry the mode.
    NoSpecifiers,
    /// Literal/immediate specifiers exist only for read access and the
    /// opcode has no read operand.
    ReadOnlyMode,
    /// Register mode on an address operand (MOVAx, PUSHAx): the 780
    /// faults. A bit-field base in a register is a register field, and
    /// stays probeable.
    RegisterAddress,
}

impl SkipReason {
    /// Human-readable reason for the `--list` grid and the skip table.
    pub const fn describe(self) -> &'static str {
        match self {
            SkipReason::ChangesPc => "changes PC (branch/call/jump)",
            SkipReason::SystemGroup => "SYSTEM group (privileged or trapping)",
            SkipReason::NoSpecifiers => "no operand specifiers",
            SkipReason::ReadOnlyMode => "literal/immediate is read-only; no read operand",
            SkipReason::RegisterAddress => "address of a register faults",
        }
    }
}

impl std::fmt::Display for SkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.describe())
    }
}

/// One measurable grid cell: the probed opcode, the addressing mode under
/// test, and which specifier position carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeTarget {
    /// Probed opcode.
    pub opcode: Opcode,
    /// Addressing mode under test.
    pub mode: AddressingMode,
    /// Specifier position carrying the probed mode.
    pub operand: usize,
}

/// One cell of the full grid: measurable or skipped.
#[derive(Debug, Clone, Copy)]
pub struct GridCell {
    /// The opcode row.
    pub opcode: Opcode,
    /// The addressing-mode column.
    pub mode: AddressingMode,
    /// The probe, or why there is none.
    pub target: Result<ProbeTarget, SkipReason>,
}

/// Decide whether `(opcode, mode)` is probeable and, if so, which operand
/// carries the mode: literal/immediate go on the first read operand, every
/// other mode on the first specifier, which register mode may not take if
/// it is an address.
pub fn probe_target(opcode: Opcode, mode: AddressingMode) -> Result<ProbeTarget, SkipReason> {
    if opcode.branch_kind() != BranchKind::None {
        return Err(SkipReason::ChangesPc);
    }
    if opcode.group() == OpcodeGroup::System {
        return Err(SkipReason::SystemGroup);
    }
    if opcode.specifier_count() == 0 {
        return Err(SkipReason::NoSpecifiers);
    }
    let operand = match mode {
        AddressingMode::Literal | AddressingMode::Immediate => opcode
            .operands()
            .iter()
            .position(|k| matches!(k, OperandKind::Spec(AccessType::Read, _)))
            .ok_or(SkipReason::ReadOnlyMode)?,
        AddressingMode::Register
            if matches!(
                opcode.operands()[0],
                OperandKind::Spec(AccessType::Address, _)
            ) =>
        {
            return Err(SkipReason::RegisterAddress)
        }
        _ => 0,
    };
    Ok(ProbeTarget {
        opcode,
        mode,
        operand,
    })
}

/// The full opcode × addressing-mode grid, in `OPCODE_TABLE` ×
/// [`AddressingMode::ALL`] order.
pub fn probe_grid() -> Vec<GridCell> {
    let mut grid = Vec::with_capacity(OPCODE_TABLE.len() * AddressingMode::ALL.len());
    for info in OPCODE_TABLE {
        for &mode in &AddressingMode::ALL {
            grid.push(GridCell {
                opcode: info.opcode,
                mode,
                target: probe_target(info.opcode, mode),
            });
        }
    }
    grid
}

/// Stable machine-readable key for a mode (JSON fields, `--modes` values).
pub const fn mode_key(mode: AddressingMode) -> &'static str {
    match mode {
        AddressingMode::Literal => "literal",
        AddressingMode::Register => "register",
        AddressingMode::RegisterDeferred => "register_deferred",
        AddressingMode::Autodecrement => "autodecrement",
        AddressingMode::Autoincrement => "autoincrement",
        AddressingMode::AutoincrementDeferred => "autoincrement_deferred",
        AddressingMode::ByteDisp => "byte_disp",
        AddressingMode::ByteDispDeferred => "byte_disp_deferred",
        AddressingMode::WordDisp => "word_disp",
        AddressingMode::WordDispDeferred => "word_disp_deferred",
        AddressingMode::LongDisp => "long_disp",
        AddressingMode::LongDispDeferred => "long_disp_deferred",
        AddressingMode::Immediate => "immediate",
        AddressingMode::Absolute => "absolute",
        AddressingMode::PcRelative => "pc_relative",
        AddressingMode::PcRelativeDeferred => "pc_relative_deferred",
    }
}

/// Inverse of [`mode_key`].
pub fn mode_from_key(key: &str) -> Option<AddressingMode> {
    AddressingMode::ALL
        .iter()
        .copied()
        .find(|&m| mode_key(m) == key)
}

/// The probed instruction's operand list: the probed mode at
/// `target.operand`, safe defaults everywhere else.
pub fn probe_operands(target: &ProbeTarget) -> Vec<Operand> {
    let mut ops = Vec::with_capacity(target.opcode.specifier_count());
    for (spec_i, kind) in target.opcode.operands().iter().enumerate() {
        let OperandKind::Spec(access, _) = kind else {
            unreachable!("branch opcodes are never probed");
        };
        let op = if spec_i == target.operand {
            probed_operand(target.mode)
        } else {
            default_operand(*access)
        };
        ops.push(op);
    }
    ops
}

/// The operand expression carrying the probed mode.
fn probed_operand(mode: AddressingMode) -> Operand {
    match mode {
        AddressingMode::Literal => Operand::Lit(4),
        AddressingMode::Immediate => Operand::Imm(4),
        AddressingMode::Register => Operand::Reg(BASE_REG),
        AddressingMode::RegisterDeferred => Operand::Deferred(BASE_REG),
        AddressingMode::Autoincrement => Operand::AutoInc(BASE_REG),
        AddressingMode::Autodecrement => Operand::AutoDec(BASE_REG),
        AddressingMode::AutoincrementDeferred => Operand::AutoIncDef(BASE_REG),
        AddressingMode::ByteDisp => Operand::Disp(BYTE_DISP, BASE_REG),
        AddressingMode::WordDisp => Operand::Disp(WORD_DISP, BASE_REG),
        AddressingMode::LongDisp => Operand::Disp(LONG_DISP, BASE_REG),
        AddressingMode::ByteDispDeferred => Operand::DispDef(BYTE_DISP, BASE_REG),
        AddressingMode::WordDispDeferred => Operand::DispDef(WORD_DISP, BASE_REG),
        AddressingMode::LongDispDeferred => Operand::DispDef(LONG_DISP, BASE_REG),
        AddressingMode::Absolute => Operand::Abs(SRC_ADDR),
        AddressingMode::PcRelative => Operand::Label("src".to_string()),
        AddressingMode::PcRelativeDeferred => Operand::LabelDef("ptr".to_string()),
    }
}

/// Safe default for a non-probed operand.
fn default_operand(access: AccessType) -> Operand {
    match access {
        // Small nonzero scalar: a safe length, shift count, and divisor.
        AccessType::Read => Operand::Lit(4),
        AccessType::Write | AccessType::Modify => Operand::Reg(DEST_REG),
        // Register mode on an address operand yields the register's value
        // as the address; on a field base it names a register field.
        AccessType::Address | AccessType::Field => Operand::Reg(ADDR_REG),
    }
}

/// The per-iteration value loaded into [`BASE_REG`], chosen so the probed
/// operand's effective address lands on the data region — or, for register
/// mode on the length-interpreting groups, a small direct value.
pub fn base_value(target: &ProbeTarget) -> u32 {
    match target.mode {
        AddressingMode::Register => match target.opcode.group() {
            // Operand 0 of these groups is a length / position scalar;
            // a huge value would make the execute loop run away (or, for
            // register bit fields, fault).
            OpcodeGroup::Character | OpcodeGroup::Decimal | OpcodeGroup::Field => 4,
            _ => SRC_ADDR,
        },
        AddressingMode::RegisterDeferred | AddressingMode::Autoincrement => SRC_ADDR,
        // Walk downward but stay inside `src`.
        AddressingMode::Autodecrement => SRC_ADDR + MAX_REPS * 8,
        AddressingMode::AutoincrementDeferred => PTR_ADDR,
        AddressingMode::ByteDisp => SRC_ADDR.wrapping_sub(BYTE_DISP as u32),
        AddressingMode::WordDisp => SRC_ADDR.wrapping_sub(WORD_DISP as u32),
        AddressingMode::LongDisp => SRC_ADDR.wrapping_sub(LONG_DISP as u32),
        AddressingMode::ByteDispDeferred => PTR_ADDR.wrapping_sub(BYTE_DISP as u32),
        AddressingMode::WordDispDeferred => PTR_ADDR.wrapping_sub(WORD_DISP as u32),
        AddressingMode::LongDispDeferred => PTR_ADDR.wrapping_sub(LONG_DISP as u32),
        // Modes that do not involve the base register.
        AddressingMode::Literal
        | AddressingMode::Immediate
        | AddressingMode::Absolute
        | AddressingMode::PcRelative
        | AddressingMode::PcRelativeDeferred => SRC_ADDR,
    }
}

/// An assembled probe (or baseline) loop.
#[derive(Debug, Clone)]
pub struct ProbeLoop {
    /// The process image; execution starts at its `entry` label.
    pub image: Image,
    /// Probe copies per iteration (0 for the baseline loop).
    pub reps: u32,
    /// Instructions per iteration, scaffold included.
    pub period: u32,
    /// Code bytes per iteration (the I-stream footprint of one lap).
    pub loop_bytes: u32,
}

/// Assemble the probe loop for `target` with `reps` probe copies per
/// iteration, or the baseline loop (identical scaffold, no probes) when
/// `target` is `None`.
///
/// # Errors
/// Propagates assembler errors (none are expected for a valid target).
///
/// # Panics
/// Panics if `reps` is 0 with a target, exceeds [`MAX_REPS`], or a
/// baseline is requested with nonzero reps.
pub fn probe_loop(target: Option<&ProbeTarget>, reps: u32) -> Result<ProbeLoop, AsmError> {
    match target {
        Some(_) => assert!(
            (1..=MAX_REPS).contains(&reps),
            "reps must be in 1..={MAX_REPS}"
        ),
        None => assert_eq!(reps, 0, "baseline loop has no probe copies"),
    }
    let mut asm = Asm::new(ORIGIN);
    asm.label("src");
    for _ in 0..SRC_LEN / 4 {
        asm.long(SRC_FILL);
    }
    asm.label("ptr");
    for _ in 0..PTR_ENTRIES {
        asm.long(SRC_ADDR);
    }
    asm.block(SCRATCH_ADDR - (PTR_ADDR + PTR_ENTRIES * 4));
    asm.label("scratch");
    asm.block(0x400);
    // Stack strip: SP parks at its midpoint so pushes and pops both stay
    // inside the image.
    asm.block(SP_INIT - (SCRATCH_ADDR + 0x400));
    asm.label("sp");
    asm.block(0x80);
    asm.label("entry");
    asm.label("loop");
    let base = target.map_or(SRC_ADDR, base_value);
    asm.insn(
        Opcode::Movl,
        &[Operand::Imm(base), Operand::Reg(BASE_REG)],
        None,
    );
    asm.insn(
        Opcode::Movl,
        &[Operand::Imm(SCRATCH_ADDR), Operand::Reg(ADDR_REG)],
        None,
    );
    asm.insn(
        Opcode::Movl,
        &[Operand::Imm(SP_INIT), Operand::Reg(Reg::SP)],
        None,
    );
    if let Some(t) = target {
        let ops = probe_operands(t);
        for _ in 0..reps {
            asm.insn(t.opcode, &ops, None);
        }
    }
    asm.insn(Opcode::Brw, &[], Some("loop"));
    let image = asm.assemble()?;
    let loop_bytes = image.end() - image.addr_of("loop");
    Ok(ProbeLoop {
        image,
        reps,
        period: SCAFFOLD_INSNS + reps,
        loop_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::decode;

    #[test]
    fn grid_covers_every_cell_once() {
        let grid = probe_grid();
        assert_eq!(grid.len(), OPCODE_TABLE.len() * 16);
        let probeable = grid.iter().filter(|c| c.target.is_ok()).count();
        // Most of the table is probeable; every skip has a reason.
        assert!(probeable > 1000, "only {probeable} probeable cells");
        for cell in &grid {
            if let Err(r) = cell.target {
                assert!(!r.describe().is_empty());
            }
        }
    }

    #[test]
    fn branches_and_system_ops_are_skipped() {
        assert_eq!(
            probe_target(Opcode::Brb, AddressingMode::Register),
            Err(SkipReason::ChangesPc)
        );
        // CHMK both branches and is privileged; the PC check fires first.
        assert_eq!(
            probe_target(Opcode::Chmk, AddressingMode::Register),
            Err(SkipReason::ChangesPc)
        );
        assert_eq!(
            probe_target(Opcode::Halt, AddressingMode::Register),
            Err(SkipReason::SystemGroup)
        );
    }

    #[test]
    fn the_address_of_a_register_is_skipped_but_a_register_field_is_not() {
        let skipped: Vec<Opcode> = probe_grid()
            .into_iter()
            .filter(|c| c.target == Err(SkipReason::RegisterAddress))
            .map(|c| c.opcode)
            .collect();
        use Opcode::*;
        let movs = [Movab, Movaw, Moval, Movaq, Pushab, Pushaw, Pushal, Pushaq];
        assert_eq!(skipped, movs);
        assert!(probe_target(Extzv, AddressingMode::Register).is_ok());
        assert!(probe_target(Moval, AddressingMode::RegisterDeferred).is_ok());
    }

    #[test]
    fn literal_goes_on_the_first_read_operand() {
        // MOVL [r, w]: literal probes operand 0.
        let t = probe_target(Opcode::Movl, AddressingMode::Literal).unwrap();
        assert_eq!(t.operand, 0);
        // CLRL [w]: no read operand — literal cell is skipped.
        assert_eq!(
            probe_target(Opcode::Clrl, AddressingMode::Literal),
            Err(SkipReason::ReadOnlyMode)
        );
        // But CLRL still probes writable modes on operand 0.
        let t = probe_target(Opcode::Clrl, AddressingMode::RegisterDeferred).unwrap();
        assert_eq!(t.operand, 0);
    }

    #[test]
    fn mode_keys_round_trip() {
        for &m in &AddressingMode::ALL {
            assert_eq!(mode_from_key(mode_key(m)), Some(m), "{m:?}");
        }
        assert_eq!(mode_from_key("frobnicate"), None);
    }

    #[test]
    fn probe_loop_layout_matches_constants() {
        let t = probe_target(Opcode::Addl2, AddressingMode::ByteDisp).unwrap();
        let p = probe_loop(Some(&t), 4).unwrap();
        assert_eq!(p.image.addr_of("src"), SRC_ADDR);
        assert_eq!(p.image.addr_of("ptr"), PTR_ADDR);
        assert_eq!(p.image.addr_of("scratch"), SCRATCH_ADDR);
        assert_eq!(p.image.addr_of("sp"), SP_INIT);
        assert_eq!(p.image.addr_of("entry"), p.image.addr_of("loop"));
        assert_eq!(p.period, SCAFFOLD_INSNS + 4);
        // The pointer table holds src addresses.
        let off = (PTR_ADDR - ORIGIN) as usize;
        let ptr0 = u32::from_le_bytes(p.image.bytes[off..off + 4].try_into().unwrap());
        assert_eq!(ptr0, SRC_ADDR);
    }

    #[test]
    fn baseline_loop_matches_scaffold() {
        let b = probe_loop(None, 0).unwrap();
        assert_eq!(b.period, SCAFFOLD_INSNS);
        // 3 MOVL #imm,Rn at 7 bytes each + BRW at 3 bytes.
        assert_eq!(b.loop_bytes, 24);
    }

    #[test]
    fn probed_instruction_decodes_back_to_its_mode() {
        let t = probe_target(Opcode::Movl, AddressingMode::PcRelativeDeferred).unwrap();
        let p = probe_loop(Some(&t), 1).unwrap();
        // Walk the loop: three scaffold MOVLs, then the probe.
        let start = (p.image.addr_of("loop") - ORIGIN) as usize;
        let mut at = start;
        for _ in 0..3 {
            let insn = decode(&p.image.bytes[at..]).unwrap();
            assert_eq!(insn.opcode, Opcode::Movl);
            at += insn.len as usize;
        }
        let probe = decode(&p.image.bytes[at..]).unwrap();
        assert_eq!(probe.opcode, Opcode::Movl);
        assert_eq!(probe.specifiers[0].mode, AddressingMode::PcRelativeDeferred);
        // The deferred displacement points at the pointer table.
        let pc_after = ORIGIN + at as u32 + 1 + 5;
        let ea = pc_after.wrapping_add(probe.specifiers[0].value as u32);
        assert_eq!(ea, PTR_ADDR);
    }

    #[test]
    #[should_panic(expected = "reps must be in")]
    fn zero_reps_probe_panics() {
        let t = probe_target(Opcode::Movl, AddressingMode::Register).unwrap();
        let _ = probe_loop(Some(&t), 0);
    }
}
