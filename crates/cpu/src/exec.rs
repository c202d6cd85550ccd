//! Execute-phase microroutines: semantics plus cycle emission.
//!
//! Each opcode group shares a control-store *layout* (which offsets are
//! compute/read/write µops); each opcode owns its region with that layout.
//! Loops re-execute offsets, exactly as the 780's microcode loops re-execute
//! microinstructions — so histogram counts at loop addresses measure
//! data-dependent costs (the paper's "average character string is 36–44
//! characters" inference comes from such counts).
//!
//! Each group's module below declares its layout once, as named offsets and
//! the µop kind at each, and its cost table: one [`ExecRow`] per opcode or
//! opcode family, listing the steps no operand value decides. `execute`
//! runs a row's `setup`, and the routine runs its `each` and `finish` steps
//! at their points, all through `Cpu::walk`; what an operand value decides
//! (a loop's trip count, a taken branch, where a field lives) stays code,
//! at named offsets. So a fixed execute-cost edit is a one-row diff, and
//! `tests/exec_routines.rs` checks the rows against the µPC histogram on
//! directed probes.

use upc_monitor::{MicroOp, MicroPc, Region};
use vax_arch::psl::AccessMode;
use vax_arch::{Instruction, Opcode, OpcodeGroup, Psl};
use vax_mem::VirtAddr;

use crate::ebox::{mask, Cpu, SCB_BASE, VEC_CHMK};
use crate::ipr::IprNum;
use crate::operand::{EvaldOperand, Loc};
use crate::store::{layout, span};

use MicroOp::{Read as R, Write as W};
use Opcode::*;

/// Control-flow result of the execute phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Fall through to the next instruction.
    Normal,
    /// Take the embedded branch displacement.
    TakenDisp,
    /// Jump to a computed target.
    Jump(u32),
    /// HALT executed.
    Halt,
}

/// One execute routine's declared timing: the compute steps no operand
/// value decides, as offsets into its group's layout.
#[derive(Debug, PartialEq, Eq)]
pub struct ExecRow {
    /// The opcodes that share this routine's timing.
    pub opcodes: &'static [Opcode],
    /// Steps run on entry, before any operand-dependent work. A SIMPLE
    /// routine's first is ENTRY, which the 780's literal optimization fuses
    /// into a literal first specifier's cycle.
    pub setup: &'static [u16],
    /// Steps run once per item of the routine's loop: after each register
    /// pushed or popped (CALL/RET), saved or loaded (SVPCTX, LDPCTX), per
    /// digit (DECIMAL), and per longword of string (CHARACTER, whose loop
    /// body holds its data references).
    pub each: &'static [u16],
    /// Steps run once, where the routine's operand-dependent work ends:
    /// after a field fetch, a frame's pushes or pops, a string loop, or a
    /// case-table read.
    pub finish: &'static [u16],
}

const fn row(opcodes: &'static [Opcode], setup: &'static [u16]) -> ExecRow {
    ExecRow {
        opcodes,
        setup,
        each: &[],
        finish: &[],
    }
}

impl ExecRow {
    const fn each(self, each: &'static [u16]) -> ExecRow {
        ExecRow { each, ..self }
    }

    const fn finish(self, finish: &'static [u16]) -> ExecRow {
        ExecRow { finish, ..self }
    }
}

/// SIMPLE: `[entry, redirect, read, extra, write]`.
mod simple {
    use super::*;

    /// The execute cycle every routine opens with.
    pub const ENTRY: u16 = 0;
    /// IB-redirect cycle on taken branches.
    pub const REDIRECT: u16 = 1;
    /// Data read (case tables, RSB return address).
    pub const READ: u16 = 2;
    /// Additional computation.
    pub const EXTRA: u16 = 3;
    /// Data write (BSB/JSB return push, PUSHL).
    pub const WRITE: u16 = 4;
    pub const OPS: [MicroOp; 5] = layout(&[(READ, R), (WRITE, W)]);

    pub static ROWS: &[ExecRow] = &[
        // Data operations: moves, converts, clears, pushes (the push is
        // the WRITE), integer arithmetic and logic, tests and compares.
        row(
            &[
                Movb, Movw, Movl, Movq, Movab, Movaw, Moval, Movaq, Pushl, Pushab, Pushaw, Pushal,
                Pushaq, Clrb, Clrw, Clrl, Clrq, Mnegb, Mnegw, Mnegl, Mcomb, Mcomw, Mcoml, Movzbw,
                Movzbl, Movzwl, Cvtbw, Cvtbl, Cvtwb, Cvtwl, Cvtlb, Cvtlw, Addb2, Addb3, Addw2,
                Addw3, Addl2, Addl3, Subb2, Subb3, Subw2, Subw3, Subl2, Subl3, Incb, Incw, Incl,
                Decb, Decw, Decl, Bicb2, Bicb3, Bicw2, Bicw3, Bicl2, Bicl3, Bisb2, Bisb3, Bisw2,
                Bisw3, Bisl2, Bisl3, Xorb2, Xorb3, Xorw2, Xorw3, Xorl2, Xorl3, Tstb, Tstw, Tstl,
                Cmpb, Cmpw, Cmpl, Bitb, Bitw, Bitl,
            ],
            &[ENTRY],
        ),
        // Shifts and rotates.
        row(&[Ashl, Ashq, Rotl], &[ENTRY, EXTRA]),
        // Conditional and low-bit branches; a taken one adds REDIRECT.
        row(
            &[
                Bneq, Beql, Bgtr, Bleq, Bgeq, Blss, Bgtru, Blequ, Bvc, Bvs, Bcc, Bcs, Brb, Brw,
                Blbs, Blbc,
            ],
            &[ENTRY],
        ),
        row(&[Jmp], &[ENTRY, REDIRECT]),
        // Loop branches; a taken one adds REDIRECT.
        row(
            &[Sobgeq, Sobgtr, Aoblss, Aobleq, Acbb, Acbw, Acbl],
            &[ENTRY, EXTRA],
        ),
        // Case branches: the table READ (when in range), then REDIRECT.
        row(&[Caseb, Casew, Casel], &[ENTRY]).finish(&[REDIRECT]),
        // Subroutine linkage: the return address's WRITE or READ, then
        // REDIRECT.
        row(&[Bsbb, Bsbw, Jsb, Rsb], &[ENTRY]).finish(&[REDIRECT]),
    ];
}

/// FIELD.
mod field {
    use super::*;

    /// First execute cycle.
    pub const ENTRY: u16 = 0;
    /// Field position/size arithmetic.
    pub const CALC1: u16 = 1;
    /// Field position/size arithmetic.
    pub const CALC2: u16 = 2;
    /// Extract/merge computation.
    pub const MERGE: u16 = 3;
    /// Field longword read.
    pub const READ: u16 = 4;
    /// Post-read computation.
    pub const POST: u16 = 5;
    /// Field longword write (INSV, BBSS and friends).
    pub const WRITE: u16 = 6;
    /// IB-redirect cycle for taken bit branches.
    pub const REDIRECT: u16 = 7;
    pub const OPS: [MicroOp; 8] = layout(&[(READ, R), (WRITE, W)]);

    pub static ROWS: &[ExecRow] = &[
        // Field reads: each finish follows the field fetch.
        row(&[Extv, Extzv], &[ENTRY]).finish(&[CALC1, CALC2, MERGE, POST, POST]),
        row(&[Cmpv, Cmpzv], &[ENTRY]).finish(&[CALC1, CALC2, MERGE, POST]),
        row(&[Ffs, Ffc], &[ENTRY]).finish(&[CALC1, CALC2, MERGE, POST, MERGE]),
        // INSV's finish runs once the field is known to be non-empty.
        row(&[Insv], &[ENTRY]).finish(&[CALC1, CALC2, MERGE]),
        // Bit branches; a taken one adds REDIRECT.
        row(&[Bbs, Bbc], &[ENTRY, CALC2, CALC1]),
        // Bit branches that write the bit: MERGE between its read and write.
        row(
            &[Bbss, Bbcs, Bbsc, Bbcc, Bbssi, Bbcci],
            &[ENTRY, CALC2, CALC1],
        )
        .finish(&[MERGE]),
    ];
}

/// FLOAT (with integer multiply and divide, per Table 1): 24 compute µops.
/// A routine runs straight through its region, re-executing the last µop
/// once it runs out (EDIV's 26 cycles outrun the 24).
mod float {
    use super::*;

    pub const OPS: [MicroOp; 24] = layout(&[]);

    /// `N` steps straight through the region.
    const fn straight<const N: usize>() -> [u16; N] {
        let mut steps = [0; N];
        let mut i = 0;
        while i < N {
            steps[i] = (if i < OPS.len() { i } else { OPS.len() - 1 }) as u16;
            i += 1;
        }
        steps
    }

    pub static ROWS: &[ExecRow] = &[
        row(&[Movf, Tstf, Mnegf, Movd, Tstd], &straight::<2>()),
        row(&[Cmpf, Cmpd], &straight::<4>()),
        row(&[Addf2, Addf3, Subf2, Subf3], &straight::<6>()),
        row(&[Addd2, Addd3, Subd2, Subd3], &straight::<8>()),
        row(&[Mulf2, Mulf3], &straight::<8>()),
        row(&[Muld2, Muld3], &straight::<13>()),
        row(&[Divf2, Divf3], &straight::<15>()),
        row(&[Divd2, Divd3], &straight::<23>()),
        row(&[Cvtfl, Cvtlf, Cvtfd, Cvtdl, Cvtld], &straight::<5>()),
        row(&[Mulb2, Mulb3, Mulw2, Mulw3], &straight::<10>()),
        row(&[Mull2, Mull3], &straight::<13>()),
        row(&[Divb2, Divb3, Divw2, Divw3], &straight::<20>()),
        row(&[Divl2, Divl3], &straight::<24>()),
        row(&[Emul], &straight::<14>()),
        row(&[Ediv], &straight::<26>()),
    ];
}

/// CALL/RET.
mod callret {
    use super::*;

    /// Setup cycles 0..8.
    pub const SETUP: u16 = 0;
    /// Register/frame push.
    pub const PUSH: u16 = 8;
    /// Inter-push gap cycle (the microcode spaces pushes to soften write
    /// stalls).
    pub const PUSH_GAP: u16 = 9;
    /// Frame pop / entry-mask read.
    pub const POP: u16 = 10;
    /// Inter-pop gap cycle.
    pub const POP_GAP: u16 = 11;
    /// Finish cycles 12..16.
    pub const FINISH: u16 = 12;
    pub const OPS: [MicroOp; 16] = layout(&[(PUSH, W), (POP, R)]);

    /// The condition handler's push, the frame's last, keeps two of its
    /// three gaps, which open the finish.
    const CALL_FINISH: [u16; 6] = {
        let f = span::<4>(FINISH);
        [PUSH_GAP, PUSH_GAP, f[0], f[1], f[2], f[3]]
    };

    pub static ROWS: &[ExecRow] = &[
        // Three gaps after each push.
        row(&[Calls, Callg], &span::<8>(SETUP))
            .each(&[PUSH_GAP; 3])
            .finish(&CALL_FINISH),
        row(&[Ret], &span::<5>(SETUP))
            .each(&[POP_GAP; 2])
            .finish(&span::<3>(FINISH)),
        row(&[Pushr], &span::<2>(SETUP)).each(&[PUSH_GAP]),
        row(&[Popr], &span::<2>(SETUP)).each(&[POP_GAP]),
    ];
}

/// SYSTEM.
mod system {
    use super::*;

    /// Setup cycles 0..10.
    pub const SETUP: u16 = 0;
    /// Data read.
    pub const READ: u16 = 10;
    /// Data write.
    pub const WRITE: u16 = 11;
    /// Finish cycles 12..14.
    pub const FINISH: u16 = 12;
    pub const OPS: [MicroOp; 14] = layout(&[(READ, R), (WRITE, W)]);

    pub static ROWS: &[ExecRow] = &[
        row(&[Halt, Nop], &[SETUP]),
        row(&[Bpt], &span::<4>(SETUP)),
        row(&[Chmk, Chme, Chms, Chmu], &span::<10>(SETUP)).finish(&span::<2>(FINISH)),
        row(&[Rei], &span::<6>(SETUP)).finish(&span::<2>(FINISH)),
        // One FINISH step per general register saved or loaded.
        row(&[Svpctx, Ldpctx], &span::<2>(SETUP))
            .each(&[FINISH])
            .finish(&span::<2>(FINISH)),
        row(&[Mtpr, Mfpr], &span::<3>(SETUP)),
        row(&[Insque, Remque], &span::<4>(SETUP)).finish(&span::<2>(FINISH)),
        row(&[Prober, Probew], &span::<4>(SETUP)),
        row(&[Bispsw, Bicpsw], &span::<2>(SETUP)),
    ];
}

/// CHARACTER. A row's `each` is one iteration of its longword loop, data
/// references included.
mod character {
    use super::*;

    /// Setup cycles 0..8.
    pub const SETUP: u16 = 0;
    /// Source longword read.
    pub const READ: u16 = 8;
    /// Loop computation.
    pub const LOOP1: u16 = 9;
    /// Loop computation.
    pub const LOOP2: u16 = 10;
    /// Destination longword write.
    pub const WRITE: u16 = 11;
    /// Loop computation (the microcode writes only every sixth cycle to
    /// avoid write stalls — paper §4.3).
    pub const LOOP3: u16 = 12;
    /// Loop computation.
    pub const LOOP4: u16 = 13;
    /// Finish cycle.
    pub const FINISH: u16 = 14;
    pub const OPS: [MicroOp; 15] = layout(&[(READ, R), (WRITE, W)]);

    /// The source longword's read and the destination longword's write.
    const MOVE: [u16; 8] = [READ, LOOP1, LOOP2, LOOP1, WRITE, LOOP3, LOOP4, LOOP3];
    /// A longword of each string.
    const COMPARE: [u16; 4] = [READ, READ, LOOP1, LOOP2];
    /// A longword of the scanned string.
    const SCAN: [u16; 3] = [READ, LOOP1, LOOP2];
    /// A longword of the string, then the translate table's.
    const TABLE: [u16; 4] = [READ, LOOP1, LOOP2, READ];

    pub static ROWS: &[ExecRow] = &[
        row(&[Movc3, Movc5], &span::<8>(SETUP))
            .each(&MOVE)
            .finish(&[FINISH]),
        row(&[Cmpc3, Cmpc5], &span::<8>(SETUP))
            .each(&COMPARE)
            .finish(&[FINISH]),
        row(&[Locc, Skpc], &span::<8>(SETUP))
            .each(&SCAN)
            .finish(&[FINISH]),
        row(&[Scanc, Spanc], &span::<8>(SETUP))
            .each(&TABLE)
            .finish(&[FINISH]),
        row(&[Matchc], &span::<8>(SETUP))
            .each(&SCAN)
            .finish(&[FINISH]),
    ];
}

/// DECIMAL. A row's `each` is one digit-loop iteration; `READ_LW` and
/// `WRITE_LW` run once per longword of packed operand.
pub mod decimal {
    use super::*;

    /// Setup cycles 0..10.
    pub const SETUP: u16 = 0;
    /// Packed-operand longword read.
    pub const READ: u16 = 10;
    /// Digit-loop computation.
    pub const DIGIT1: u16 = 11;
    /// Digit-loop computation.
    pub const DIGIT2: u16 = 12;
    /// Digit-loop computation.
    pub const DIGIT3: u16 = 13;
    /// Result longword write.
    pub const WRITE: u16 = 14;
    /// Finish cycle.
    pub const FINISH: u16 = 15;
    /// The routine's µops.
    pub const OPS: [MicroOp; 16] = layout(&[(READ, R), (WRITE, W)]);

    /// One longword of a packed operand read.
    pub const READ_LW: [u16; 2] = [READ, DIGIT1];
    /// One longword of a packed result written.
    pub const WRITE_LW: [u16; 3] = [WRITE, FINISH, DIGIT2];

    const DIGIT: [u16; 3] = [DIGIT1, DIGIT2, DIGIT3];

    pub(super) static ROWS: &[ExecRow] = &[
        row(&[Addp4, Subp4, Addp6, Subp6], &span::<10>(SETUP)).each(&DIGIT),
        // Multiply and divide run the digit loop's body twice per digit.
        row(&[Mulp, Divp], &span::<10>(SETUP))
            .each(&[DIGIT1, DIGIT2, DIGIT3, DIGIT1, DIGIT2, DIGIT3]),
        row(&[Movp], &span::<10>(SETUP)),
        row(&[Cmpp3, Cmpp4], &span::<10>(SETUP)).each(&DIGIT),
        row(&[Cvtlp, Cvtpl], &span::<10>(SETUP)).each(&DIGIT),
        row(&[Ashp], &span::<10>(SETUP)).each(&DIGIT),
    ];
}

/// The shared execute-region layout of an opcode group.
pub(crate) fn group_layout(group: OpcodeGroup) -> &'static [MicroOp] {
    match group {
        OpcodeGroup::Simple => &simple::OPS,
        OpcodeGroup::Field => &field::OPS,
        OpcodeGroup::Float => &float::OPS,
        OpcodeGroup::CallRet => &callret::OPS,
        OpcodeGroup::System => &system::OPS,
        OpcodeGroup::Character => &character::OPS,
        OpcodeGroup::Decimal => &decimal::OPS,
    }
}

/// Every row of the cost table, group by group.
fn rows() -> impl Iterator<Item = &'static ExecRow> {
    [
        simple::ROWS,
        field::ROWS,
        float::ROWS,
        callret::ROWS,
        system::ROWS,
        character::ROWS,
        decimal::ROWS,
    ]
    .into_iter()
    .flatten()
}

/// The cost-table row that prices `op`.
pub(crate) fn row_of(op: Opcode) -> Option<&'static ExecRow> {
    rows().find(|row| row.opcodes.contains(&op))
}

/// Run the execute phase of `insn`. `ops` holds the evaluated operands;
/// results are stored back into `ops[i].value` for deferred write-back.
/// `fused` is the 780's literal optimization: a SIMPLE routine's first
/// step runs inside a literal first specifier's cycle.
pub(crate) fn execute(
    cpu: &mut Cpu,
    insn: &Instruction,
    ops: &mut [EvaldOperand],
    fused: bool,
) -> Flow {
    let op = insn.opcode;
    let (r, row) = (cpu.cs.exec_region(op), cpu.cs.exec_row(op));
    cpu.walk(r, &row.setup[usize::from(fused)..], no_refs);
    match op.group() {
        OpcodeGroup::Simple => exec_simple(cpu, r, row, op, ops),
        OpcodeGroup::Field => exec_field(cpu, r, row, op, ops),
        OpcodeGroup::Float => exec_float(&mut cpu.psl, op, ops),
        OpcodeGroup::CallRet => exec_callret(cpu, r, row, op, ops),
        OpcodeGroup::System => exec_system(cpu, r, row, op, ops),
        OpcodeGroup::Character => exec_character(cpu, r, row, op, ops),
        OpcodeGroup::Decimal => exec_decimal(cpu, r, row, op, ops),
    }
}

// ---- condition-code helpers ----

fn sign(v: u64, size: u32) -> bool {
    v & (1 << (8 * size - 1)) != 0
}

fn sext(v: u64, size: u32) -> i64 {
    let shift = 64 - 8 * size;
    ((v << shift) as i64) >> shift
}

fn cc_nz(psl: &mut Psl, v: u64, size: u32) {
    psl.n = sign(v & mask(size), size);
    psl.z = v & mask(size) == 0;
    psl.v = false;
}

fn cc_add(psl: &mut Psl, a: u64, b: u64, r: u64, size: u32) {
    let m = mask(size);
    psl.n = sign(r & m, size);
    psl.z = r & m == 0;
    psl.v = sign(a, size) == sign(b, size) && sign(r & m, size) != sign(a, size);
    psl.c = (a & m) as u128 + (b & m) as u128 > m as u128;
}

fn cc_sub(psl: &mut Psl, a: u64, b: u64, r: u64, size: u32) {
    // r = b - a (VAX SUBx subtracts operand 1 from operand 2).
    let m = mask(size);
    psl.n = sign(r & m, size);
    psl.z = r & m == 0;
    psl.v = sign(a, size) != sign(b, size) && sign(r & m, size) == sign(a, size);
    psl.c = (b & m) < (a & m);
}

fn cc_cmp(psl: &mut Psl, a: u64, b: u64, size: u32) {
    // CMP a, b: condition codes reflect a - b.
    let sa = sext(a, size);
    let sb = sext(b, size);
    psl.n = sa < sb;
    psl.z = sa == sb;
    psl.v = false;
    psl.c = (a & mask(size)) < (b & mask(size));
}

fn branch_condition(psl: &Psl, op: Opcode) -> bool {
    match op {
        Bneq => !psl.z,
        Beql => psl.z,
        Bgtr => !(psl.n || psl.z),
        Bleq => psl.n || psl.z,
        Bgeq => !psl.n,
        Blss => psl.n,
        Bgtru => !(psl.c || psl.z),
        Blequ => psl.c || psl.z,
        Bvc => !psl.v,
        Bvs => psl.v,
        Bcc => !psl.c,
        Bcs => psl.c,
        Brb | Brw => true,
        _ => unreachable!("not a condition branch: {op}"),
    }
}

/// The data reference of a compute-only step list, which has none.
fn no_refs(_: &mut Cpu, _: usize, upc: MicroPc) {
    unreachable!("data step {upc} in a compute-only step list")
}

/// A loop's data reference at `upc`: a `Read` step reads the aligned
/// longword holding `va`, and a `Write` step writes a placeholder there,
/// which the routine's untimed semantics then overwrite.
fn lw_ref(cpu: &mut Cpu, upc: MicroPc, va: VirtAddr) {
    let lw = VirtAddr(va.0 & !3);
    if cpu.cs.map.op(upc) == W {
        cpu.write_data(upc, lw, 4, 0);
    } else {
        cpu.read_data(upc, lw, 4);
    }
}

/// Run `steps` once per longword, `lws` times: the k-th data step of the
/// i-th run references `refs[k]`'s address plus `i` times its stride.
fn lw_loop(cpu: &mut Cpu, r: Region, steps: &[u16], lws: u32, refs: &[(VirtAddr, u32)]) {
    for i in 0..lws {
        cpu.walk(r, steps, |cpu, k, upc| {
            let (va, stride) = refs[k];
            lw_ref(cpu, upc, va.add(i * stride));
        });
    }
}

/// End a conditional branch: a taken one runs its IB-redirect cycle.
fn branch(cpu: &mut Cpu, redirect: MicroPc, taken: bool) -> Flow {
    if taken {
        cpu.c(redirect);
        Flow::TakenDisp
    } else {
        Flow::Normal
    }
}

// ---- SIMPLE ----

fn exec_simple(
    cpu: &mut Cpu,
    r: Region,
    row: &ExecRow,
    op: Opcode,
    ops: &mut [EvaldOperand],
) -> Flow {
    use simple::*;
    match op {
        Pushl | Pushab | Pushaw | Pushal | Pushaq => {
            let v = ops[0].value as u32;
            cc_nz(&mut cpu.psl, v as u64, 4);
            let sp = cpu.regs[14].wrapping_sub(4);
            cpu.regs[14] = sp;
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, v as u64);
            Flow::Normal
        }
        // Test / compare / bit test.
        Tstb | Tstw | Tstl => {
            cc_nz(&mut cpu.psl, ops[0].value, ops[0].size);
            cpu.psl.c = false;
            Flow::Normal
        }
        Cmpb | Cmpw | Cmpl => {
            cc_cmp(&mut cpu.psl, ops[0].value, ops[1].value, ops[0].size);
            Flow::Normal
        }
        Bitb | Bitw | Bitl => {
            let v = ops[0].value & ops[1].value;
            cc_nz(&mut cpu.psl, v, ops[0].size);
            Flow::Normal
        }
        // Conditional and unconditional displacement branches.
        Bneq | Beql | Bgtr | Bleq | Bgeq | Blss | Bgtru | Blequ | Bvc | Bvs | Bcc | Bcs | Brb
        | Brw => branch(cpu, r.at(REDIRECT), branch_condition(&cpu.psl, op)),
        Jmp => Flow::Jump(ops[0].value as u32),
        // Low-bit tests.
        Blbs | Blbc => {
            let bit = ops[0].value & 1 != 0;
            branch(cpu, r.at(REDIRECT), bit == (op == Blbs))
        }
        // Loop branches.
        Sobgeq | Sobgtr => {
            let v = (ops[0].as_i32()).wrapping_sub(1);
            ops[0].value = v as u32 as u64;
            cc_nz(&mut cpu.psl, v as u32 as u64, 4);
            let taken = if op == Sobgeq { v >= 0 } else { v > 0 };
            branch(cpu, r.at(REDIRECT), taken)
        }
        Aoblss | Aobleq => {
            let limit = ops[0].as_i32();
            let v = ops[1].as_i32().wrapping_add(1);
            ops[1].value = v as u32 as u64;
            cc_nz(&mut cpu.psl, v as u32 as u64, 4);
            let taken = if op == Aoblss { v < limit } else { v <= limit };
            branch(cpu, r.at(REDIRECT), taken)
        }
        Acbb | Acbw | Acbl => {
            let size = ops[0].size;
            let limit = sext(ops[0].value, size);
            let add = sext(ops[1].value, size);
            let v = sext(ops[2].value, size).wrapping_add(add);
            ops[2].value = v as u64 & mask(size);
            cc_nz(&mut cpu.psl, v as u64, size);
            let taken = if add >= 0 { v <= limit } else { v >= limit };
            branch(cpu, r.at(REDIRECT), taken)
        }
        // Case branches. The word displacement table follows the
        // instruction in the I-stream.
        Caseb | Casew | Casel => {
            let size = ops[0].size;
            let sel = ops[0].value & mask(size);
            let base = ops[1].value & mask(size);
            let limit = ops[2].value & mask(size);
            let table = cpu.regs[15]; // instruction end
            let i = sel.wrapping_sub(base) & mask(size);
            let target = if i <= limit {
                let disp = cpu.read_data(r.at(READ), VirtAddr(table.wrapping_add(2 * i as u32)), 2);
                table.wrapping_add(sext(disp, 2) as u32)
            } else {
                table.wrapping_add(2 * (limit as u32 + 1))
            };
            cpu.walk(r, row.finish, no_refs);
            Flow::Jump(target)
        }
        // Subroutine linkage (simple: just push/pop the PC).
        Bsbb | Bsbw | Jsb => {
            let sp = cpu.regs[14].wrapping_sub(4);
            cpu.regs[14] = sp;
            let ret = cpu.regs[15];
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, ret as u64);
            cpu.walk(r, row.finish, no_refs);
            if op == Jsb {
                Flow::Jump(ops[0].value as u32)
            } else {
                Flow::TakenDisp
            }
        }
        Rsb => {
            let sp = cpu.regs[14];
            let ret = cpu.read_data(r.at(READ), VirtAddr(sp), 4) as u32;
            cpu.regs[14] = sp.wrapping_add(4);
            cpu.walk(r, row.finish, no_refs);
            Flow::Jump(ret)
        }
        // Every other SIMPLE instruction computes a result into its last
        // operand (the destination of the 2- and 3-operand forms alike).
        _ => {
            let v = simple_result(&mut cpu.psl, op, ops);
            ops[ops.len() - 1].value = v;
            Flow::Normal
        }
    }
}

/// The result of a SIMPLE data operation; sets the condition codes.
fn simple_result(psl: &mut Psl, op: Opcode, ops: &[EvaldOperand]) -> u64 {
    match op {
        // Moves.
        Movb | Movw | Movl | Movq => {
            cc_nz(psl, ops[0].value, ops[0].size);
            ops[0].value
        }
        Movab | Movaw | Moval | Movaq => {
            cc_nz(psl, ops[0].value, 4);
            ops[0].value
        }
        Clrb | Clrw | Clrl | Clrq => {
            cc_nz(psl, 0, ops[0].size);
            0
        }
        Mnegb | Mnegw | Mnegl => {
            let size = ops[0].size;
            let v = (ops[0].value as i64).wrapping_neg() as u64 & mask(size);
            cc_sub(psl, ops[0].value, 0, v, size);
            v
        }
        Mcomb | Mcomw | Mcoml => {
            let v = !ops[0].value & mask(ops[0].size);
            cc_nz(psl, v, ops[0].size);
            v
        }
        Movzbw | Movzbl | Movzwl => {
            let v = ops[0].value & mask(ops[0].size);
            cc_nz(psl, v, ops[1].size);
            v
        }
        Cvtbw | Cvtbl | Cvtwb | Cvtwl | Cvtlb | Cvtlw => {
            let v = sext(ops[0].value, ops[0].size) as u64 & mask(ops[1].size);
            cc_nz(psl, v, ops[1].size);
            v
        }
        // Integer add/sub.
        Addb2 | Addw2 | Addl2 | Addb3 | Addw3 | Addl3 => {
            let size = ops[0].size;
            let v = ops[0].value.wrapping_add(ops[1].value) & mask(size);
            cc_add(psl, ops[0].value, ops[1].value, v, size);
            v
        }
        Subb2 | Subw2 | Subl2 | Subb3 | Subw3 | Subl3 => {
            let size = ops[0].size;
            let v = ops[1].value.wrapping_sub(ops[0].value) & mask(size);
            cc_sub(psl, ops[0].value, ops[1].value, v, size);
            v
        }
        Incb | Incw | Incl => {
            let size = ops[0].size;
            let v = ops[0].value.wrapping_add(1) & mask(size);
            cc_add(psl, 1, ops[0].value, v, size);
            v
        }
        Decb | Decw | Decl => {
            let size = ops[0].size;
            let v = ops[0].value.wrapping_sub(1) & mask(size);
            cc_sub(psl, 1, ops[0].value, v, size);
            v
        }
        Ashl | Ashq => {
            let cnt = sext(ops[0].value, 1);
            let size = ops[1].size;
            let src = sext(ops[1].value, size);
            let v = if cnt >= 0 {
                (src as u64).wrapping_shl(cnt.min(63) as u32)
            } else {
                (src >> (-cnt).min(63)) as u64
            } & mask(size);
            cc_nz(psl, v, size);
            v
        }
        Rotl => {
            let cnt = (sext(ops[0].value, 1).rem_euclid(32)) as u32;
            let v = (ops[1].value as u32).rotate_left(cnt) as u64;
            cc_nz(psl, v, 4);
            v
        }
        // Boolean.
        Bicb2 | Bicw2 | Bicl2 | Bicb3 | Bicw3 | Bicl3 => {
            let v = ops[1].value & !ops[0].value & mask(ops[0].size);
            cc_nz(psl, v, ops[0].size);
            v
        }
        Bisb2 | Bisw2 | Bisl2 | Bisb3 | Bisw3 | Bisl3 => {
            let v = (ops[1].value | ops[0].value) & mask(ops[0].size);
            cc_nz(psl, v, ops[0].size);
            v
        }
        Xorb2 | Xorw2 | Xorl2 | Xorb3 | Xorw3 | Xorl3 => {
            let v = (ops[1].value ^ ops[0].value) & mask(ops[0].size);
            cc_nz(psl, v, ops[0].size);
            v
        }
        other => unreachable!("{other} is not a SIMPLE data operation"),
    }
}

// ---- FIELD ----

/// Fetch a bit field of `size` bits at bit `pos` relative to `base`.
fn field_fetch(cpu: &mut Cpu, r: Region, pos: i64, size: u32, base: &EvaldOperand) -> u64 {
    use field::*;
    if size == 0 {
        return 0;
    }
    match base.loc {
        Loc::Reg(reg) => {
            cpu.c(r.at(CALC1));
            let v = cpu.get_reg(reg, 4) >> (pos & 31);
            v & mask_bits(size)
        }
        _ => {
            cpu.c(r.at(CALC1));
            cpu.c(r.at(CALC2));
            let byte = VirtAddr((base.value as u32).wrapping_add((pos >> 3) as u32));
            let lw = VirtAddr(byte.0 & !3);
            let word = cpu.read_data(r.at(READ), lw, 4);
            let bit_in_lw = ((base.value as u32 as u64 * 8).wrapping_add(pos as u64) & 31) as u32;
            // Fields crossing the longword need the next one too.
            let v = if bit_in_lw + size > 32 {
                let hi = cpu.read_data(r.at(READ), lw.add(4), 4);
                (word | (hi << 32)) >> bit_in_lw
            } else {
                word >> bit_in_lw
            };
            v & mask_bits(size)
        }
    }
}

fn mask_bits(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

fn exec_field(
    cpu: &mut Cpu,
    r: Region,
    row: &ExecRow,
    op: Opcode,
    ops: &mut [EvaldOperand],
) -> Flow {
    use field::*;
    match op {
        Extv | Extzv | Cmpv | Cmpzv | Ffs | Ffc => {
            let pos = sext(ops[0].value, 4);
            let size = (ops[1].value & 0xFF) as u32;
            let raw = field_fetch(cpu, r, pos, size, &ops[2]);
            cpu.walk(r, row.finish, no_refs);
            match op {
                Extv | Extzv => {
                    let v = if op == Extv && size > 0 {
                        sext(raw, 4).wrapping_shl(32 - size.min(32)) as u64 >> (32 - size.min(32))
                            | if raw & (1 << (size.saturating_sub(1))) != 0 && size < 32 {
                                !mask_bits(size) & mask(4)
                            } else {
                                0
                            }
                    } else {
                        raw
                    };
                    cc_nz(&mut cpu.psl, v, 4);
                    ops[3].value = v & mask(4);
                }
                Cmpv | Cmpzv => cc_cmp(&mut cpu.psl, raw, ops[3].value, 4),
                _ => {
                    let scan = if op == Ffs {
                        raw
                    } else {
                        !raw & mask_bits(size)
                    };
                    let found = scan.trailing_zeros().min(size);
                    cpu.psl.z = found == size;
                    ops[3].value = (pos as u64).wrapping_add(found as u64) & mask(4);
                }
            }
            Flow::Normal
        }
        Insv => {
            let src = ops[0].value;
            let pos = sext(ops[1].value, 4);
            let size = (ops[2].value & 0xFF) as u32;
            if size == 0 {
                return Flow::Normal;
            }
            cpu.walk(r, row.finish, no_refs);
            match ops[3].loc {
                Loc::Reg(reg) => {
                    cpu.c(r.at(MERGE));
                    let shift = (pos & 31) as u32;
                    let old = cpu.get_reg(reg, 4);
                    let m = mask_bits(size) << shift;
                    let v = (old & !m) | ((src << shift) & m);
                    cpu.set_reg(reg, 4, v & mask(4));
                }
                _ => {
                    let byte = VirtAddr((ops[3].value as u32).wrapping_add((pos >> 3) as u32));
                    let lw = VirtAddr(byte.0 & !3);
                    let old = cpu.read_data(r.at(READ), lw, 4);
                    cpu.c(r.at(MERGE));
                    cpu.c(r.at(MERGE));
                    let shift = ((ops[3].value * 8).wrapping_add(pos as u64) & 31) as u32;
                    if shift + size <= 32 {
                        let m = mask_bits(size) << shift;
                        let v = (old & !m) | ((src << shift) & m);
                        cpu.write_data(r.at(WRITE), lw, 4, v & mask(4));
                    } else {
                        let hi_old = cpu.read_data(r.at(READ), lw.add(4), 4);
                        let both = old | (hi_old << 32);
                        let m = mask_bits(size) << shift;
                        let v = (both & !m) | ((src << shift) & m);
                        cpu.write_data(r.at(WRITE), lw, 4, v & mask(4));
                        cpu.write_data(r.at(WRITE), lw.add(4), 4, (v >> 32) & mask(4));
                    }
                }
            }
            Flow::Normal
        }
        // Bit branches (single-bit fields): the bit lives in a register's
        // longword or in a byte of memory.
        Bbs | Bbc | Bbss | Bbcs | Bbsc | Bbcc | Bbssi | Bbcci => {
            let pos = sext(ops[0].value, 4);
            let byte = VirtAddr((ops[1].value as u32).wrapping_add((pos >> 3) as u32));
            let (old, shift) = match ops[1].loc {
                Loc::Reg(reg) => (cpu.get_reg(reg, 4), pos & 31),
                _ => (cpu.read_data(r.at(READ), byte, 1), pos & 7),
            };
            cpu.walk(r, row.finish, no_refs);
            let newbit = match op {
                Bbss | Bbcs | Bbssi => Some(1u64),
                Bbsc | Bbcc | Bbcci => Some(0),
                _ => None,
            };
            if let Some(nb) = newbit {
                let v = (old & !(1 << shift)) | (nb << shift);
                match ops[1].loc {
                    Loc::Reg(reg) => cpu.set_reg(reg, 4, v & mask(4)),
                    _ => cpu.write_data(r.at(WRITE), byte, 1, v),
                }
            }
            let on_set = matches!(op, Bbs | Bbss | Bbsc | Bbssi);
            branch(cpu, r.at(REDIRECT), ((old >> shift) & 1 != 0) == on_set)
        }
        other => unreachable!("{other} is not FIELD"),
    }
}

// ---- FLOAT ----

fn f32_of(v: u64) -> f32 {
    f32::from_bits(v as u32)
}
fn f64_of(v: u64) -> f64 {
    f64::from_bits(v)
}

/// Store an F_floating result and set the condition codes from it.
fn put_f(psl: &mut Psl, dst: &mut EvaldOperand, v: f32) {
    dst.value = v.to_bits() as u64;
    set_float_cc(psl, v as f64);
}

/// Store a D_floating result and set the condition codes from it.
fn put_d(psl: &mut Psl, dst: &mut EvaldOperand, v: f64) {
    dst.value = v.to_bits();
    set_float_cc(psl, v);
}

fn exec_float(psl: &mut Psl, op: Opcode, ops: &mut [EvaldOperand]) -> Flow {
    let (a, b) = (ops[0].value, ops.get(1).map_or(0, |o| o.value));
    let (fa, fb, da, db) = (f32_of(a), f32_of(b), f64_of(a), f64_of(b));
    // The 2- and 3-operand forms share shape: the destination is the last
    // operand.
    let dst = ops.len() - 1;
    match op {
        Addf2 | Addf3 => put_f(psl, &mut ops[dst], fa + fb),
        Subf2 | Subf3 => put_f(psl, &mut ops[dst], fb - fa),
        Mulf2 | Mulf3 => put_f(psl, &mut ops[dst], fa * fb),
        Divf2 | Divf3 => put_f(psl, &mut ops[dst], if fa == 0.0 { 0.0 } else { fb / fa }),
        Addd2 | Addd3 => put_d(psl, &mut ops[dst], da + db),
        Subd2 | Subd3 => put_d(psl, &mut ops[dst], db - da),
        Muld2 | Muld3 => put_d(psl, &mut ops[dst], da * db),
        Divd2 | Divd3 => put_d(psl, &mut ops[dst], if da == 0.0 { 0.0 } else { db / da }),
        Mnegf => put_f(psl, &mut ops[dst], -fa),
        Cvtlf => put_f(psl, &mut ops[dst], sext(a, 4) as f32),
        Cvtld => put_d(psl, &mut ops[dst], sext(a, 4) as f64),
        Cvtfd => put_d(psl, &mut ops[dst], fa as f64),
        Movf => put_f(psl, &mut ops[dst], fa),
        Movd => put_d(psl, &mut ops[dst], da),
        Tstf => set_float_cc(psl, fa as f64),
        Tstd => set_float_cc(psl, da),
        // F_floating widens to D_floating exactly.
        Cmpf | Cmpd => {
            let (x, y) = if op == Cmpf {
                (fa as f64, fb as f64)
            } else {
                (da, db)
            };
            psl.n = x < y;
            psl.z = x == y;
            psl.v = false;
            psl.c = false;
        }
        Cvtfl | Cvtdl => {
            let x = if op == Cvtfl { fa as f64 } else { da };
            let v = x as i64 as u64 & mask(4);
            cc_nz(psl, v, 4);
            ops[dst].value = v;
        }
        // Integer multiply/divide (FLOAT group per Table 1).
        Mulb2 | Mulw2 | Mull2 | Mulb3 | Mulw3 | Mull3 => {
            let size = ops[0].size;
            let v = (sext(a, size).wrapping_mul(sext(b, size))) as u64 & mask(size);
            cc_nz(psl, v, size);
            ops[dst].value = v;
        }
        Divb2 | Divw2 | Divl2 | Divb3 | Divw3 | Divl3 => {
            let size = ops[0].size;
            let d = sext(a, size);
            let v = if d == 0 {
                b
            } else {
                (sext(b, size).wrapping_div(d)) as u64 & mask(size)
            };
            cc_nz(psl, v, size);
            psl.v = d == 0;
            ops[dst].value = v;
        }
        Emul => {
            let v =
                (sext(a, 4) as i128 * sext(b, 4) as i128 + sext(ops[2].value, 4) as i128) as u64;
            cc_nz(psl, v, 8);
            ops[dst].value = v;
        }
        Ediv => {
            let d = sext(a, 4);
            let dividend = b as i64;
            let (q, rem) = if d == 0 {
                (0i64, 0i64)
            } else {
                (dividend.wrapping_div(d), dividend.wrapping_rem(d))
            };
            ops[2].value = q as u64 & mask(4);
            ops[3].value = rem as u64 & mask(4);
            cc_nz(psl, q as u64 & mask(4), 4);
            psl.v = d == 0;
        }
        other => unreachable!("{other} is not FLOAT"),
    }
    Flow::Normal
}

fn set_float_cc(psl: &mut Psl, v: f64) {
    psl.n = v < 0.0;
    psl.z = v == 0.0;
    psl.v = false;
    psl.c = false;
}

// ---- CALL/RET ----

/// The CALLS flag bit in our saved mask/PSW longword.
const FRAME_CALLS: u32 = 1 << 29;

/// Push a longword, then run the `gaps` steps.
fn push32(cpu: &mut Cpu, r: Region, gaps: &[u16], value: u32) {
    let sp = cpu.regs[14].wrapping_sub(4);
    cpu.regs[14] = sp;
    cpu.write_data(r.at(callret::PUSH), VirtAddr(sp), 4, value as u64);
    cpu.walk(r, gaps, no_refs);
}

/// Pop a longword, then run the `gaps` steps.
fn pop32(cpu: &mut Cpu, r: Region, gaps: &[u16]) -> u32 {
    let sp = cpu.regs[14];
    let v = cpu.read_data(r.at(callret::POP), VirtAddr(sp), 4) as u32;
    cpu.regs[14] = sp.wrapping_add(4);
    cpu.walk(r, gaps, no_refs);
    v
}

fn exec_callret(
    cpu: &mut Cpu,
    r: Region,
    row: &ExecRow,
    op: Opcode,
    ops: &mut [EvaldOperand],
) -> Flow {
    use callret::*;
    match op {
        Calls | Callg => {
            // Frame (ascending from the new FP, as on the real VAX):
            //   [handler=0][mask|flags][AP][FP][PC][saved regs r_lo..r_hi]
            //   [numarg][args...]           (numarg/args for CALLS only)
            let is_calls = op == Calls;
            let dst = ops[1].value as u32;
            let entry_mask = cpu.read_data(r.at(POP), VirtAddr(dst), 2) as u32 & 0x0FFF;
            let ap_val = if is_calls {
                push32(cpu, r, row.each, ops[0].value as u32 & 0xFF); // numarg
                cpu.regs[14]
            } else {
                ops[0].value as u32
            };
            // Saved registers, highest first so they end up ascending.
            for reg in (0..12u8).rev() {
                if entry_mask & (1 << reg) != 0 {
                    let v = cpu.regs[reg as usize];
                    push32(cpu, r, row.each, v);
                }
            }
            push32(cpu, r, row.each, cpu.regs[15]); // PC
            push32(cpu, r, row.each, cpu.regs[13]);
            push32(cpu, r, row.each, cpu.regs[12]);
            let mask_word = entry_mask | if is_calls { FRAME_CALLS } else { 0 };
            push32(cpu, r, row.each, mask_word);
            push32(cpu, r, &[], 0); // condition handler: its gaps open the finish
            cpu.regs[13] = cpu.regs[14]; // FP
            cpu.regs[12] = ap_val; // AP
            cpu.walk(r, row.finish, no_refs);
            Flow::Jump(dst.wrapping_add(2))
        }
        Ret => {
            cpu.regs[14] = cpu.regs[13]; // SP <- FP
            let _handler = pop32(cpu, r, row.each);
            let mask_word = pop32(cpu, r, row.each);
            let entry_mask = mask_word & 0x0FFF;
            cpu.regs[12] = pop32(cpu, r, row.each); // AP
            cpu.regs[13] = pop32(cpu, r, row.each); // FP
            let ret_pc = pop32(cpu, r, row.each);
            for reg in 0..12u8 {
                if entry_mask & (1 << reg) != 0 {
                    let v = pop32(cpu, r, row.each);
                    cpu.regs[reg as usize] = v;
                }
            }
            if mask_word & FRAME_CALLS != 0 {
                let numarg = cpu.read_data(r.at(POP), VirtAddr(cpu.regs[14]), 4) as u32 & 0xFF;
                cpu.regs[14] = cpu.regs[14].wrapping_add(4 + 4 * numarg);
            }
            cpu.walk(r, row.finish, no_refs);
            Flow::Jump(ret_pc)
        }
        Pushr => {
            let m = ops[0].value as u32 & 0x7FFF;
            for reg in (0..15u8).rev() {
                if m & (1 << reg) != 0 {
                    let v = cpu.regs[reg as usize];
                    push32(cpu, r, row.each, v);
                }
            }
            Flow::Normal
        }
        Popr => {
            let m = ops[0].value as u32 & 0x7FFF;
            for reg in 0..15u8 {
                if m & (1 << reg) != 0 {
                    let v = pop32(cpu, r, row.each);
                    cpu.regs[reg as usize] = v;
                }
            }
            Flow::Normal
        }
        other => unreachable!("{other} is not CALL/RET"),
    }
}

// ---- SYSTEM ----

/// Pop the PC and PSL that an interrupt or a CHMx pushed.
fn pop_pc_psl(cpu: &mut Cpu, r: Region) -> (u32, u32) {
    let sp = cpu.regs[14];
    let pc = cpu.read_data(r.at(system::READ), VirtAddr(sp), 4) as u32;
    let psl = cpu.read_data(r.at(system::READ), VirtAddr(sp.wrapping_add(4)), 4) as u32;
    cpu.regs[14] = sp.wrapping_add(8);
    (pc, psl)
}

fn exec_system(
    cpu: &mut Cpu,
    r: Region,
    row: &ExecRow,
    op: Opcode,
    ops: &mut [EvaldOperand],
) -> Flow {
    use system::*;
    match op {
        Nop => Flow::Normal,
        Halt => Flow::Halt,
        Bpt => {
            cpu.stats.exceptions += 1;
            // A breakpoint is the debugging entry point: dump the flight
            // recorder so the trap site comes with its instruction history.
            cpu.flight.dump_stderr();
            Flow::Normal
        }
        Chmk | Chme | Chms | Chmu => {
            let code = ops[0].value as u32;
            // Push PSL, PC, then the change-mode code.
            let psl_word = cpu.psl.to_u32();
            let pc = cpu.regs[15];
            let mut sp = cpu.regs[14];
            sp = sp.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, psl_word as u64);
            sp = sp.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, pc as u64);
            sp = sp.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(sp), 4, code as u64);
            cpu.regs[14] = sp;
            let vec_va = SCB_BASE.add(VEC_CHMK * 4);
            let target = cpu.read_data(r.at(READ), vec_va, 4) as u32;
            cpu.psl.cur_mode = AccessMode::Kernel;
            cpu.walk(r, row.finish, no_refs);
            Flow::Jump(target)
        }
        Rei => {
            let (pc, psl_word) = pop_pc_psl(cpu, r);
            cpu.psl = Psl::from_u32(psl_word);
            cpu.walk(r, row.finish, no_refs);
            Flow::Jump(pc)
        }
        Svpctx => {
            // Pop the PC/PSL the interrupt pushed, then save state to PCB.
            let (pc, psl_word) = pop_pc_psl(cpu, r);
            let pcb = VirtAddr(cpu.iprs.pcbb);
            for i in 0..14u32 {
                let v = cpu.regs[i as usize];
                cpu.write_data(r.at(WRITE), pcb.add(i * 4), 4, v as u64);
                cpu.walk(r, row.each, no_refs);
            }
            let sp_now = cpu.regs[14];
            cpu.write_data(r.at(WRITE), pcb.add(56), 4, sp_now as u64);
            cpu.write_data(r.at(WRITE), pcb.add(60), 4, pc as u64);
            cpu.write_data(r.at(WRITE), pcb.add(64), 4, psl_word as u64);
            cpu.walk(r, row.finish, no_refs);
            Flow::Normal
        }
        Ldpctx => {
            let pcb = VirtAddr(cpu.iprs.pcbb);
            for i in 0..14u32 {
                let v = cpu.read_data(r.at(READ), pcb.add(i * 4), 4) as u32;
                cpu.regs[i as usize] = v;
                cpu.walk(r, row.each, no_refs);
            }
            let sp = cpu.read_data(r.at(READ), pcb.add(56), 4) as u32;
            let pc = cpu.read_data(r.at(READ), pcb.add(60), 4) as u32;
            let psl_word = cpu.read_data(r.at(READ), pcb.add(64), 4) as u32;
            let p0br = cpu.read_data(r.at(READ), pcb.add(68), 4) as u32;
            let p0lr = cpu.read_data(r.at(READ), pcb.add(72), 4) as u32;
            let p1br = cpu.read_data(r.at(READ), pcb.add(76), 4) as u32;
            let p1lr = cpu.read_data(r.at(READ), pcb.add(80), 4) as u32;
            cpu.mem.tables.p0br = VirtAddr(p0br);
            cpu.mem.tables.p0lr = p0lr;
            cpu.mem.tables.p1br = VirtAddr(p1br);
            cpu.mem.tables.p1lr = p1lr;
            cpu.mem.tb_mut().invalidate_process();
            // The decode cache needs no invalidate here: its entries are
            // keyed by the page-table tuple just loaded, and PTE rewrites
            // made while this process slept are caught by the code watch
            // (cached code's PTE bytes are watched).
            // Switch to the new process's stack, then push its PC/PSL so
            // the following REI resumes it with a balanced stack.
            let s1 = sp.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(s1), 4, psl_word as u64);
            let s2 = s1.wrapping_sub(4);
            cpu.write_data(r.at(WRITE), VirtAddr(s2), 4, pc as u64);
            cpu.regs[14] = s2;
            cpu.walk(r, row.finish, no_refs);
            Flow::Normal
        }
        Mtpr => {
            let v = ops[0].value as u32;
            let which = ops[1].value as u32;
            match IprNum::from_u32(which) {
                Some(IprNum::Sirr) => {
                    cpu.iprs.request_soft(v as u8);
                    cpu.stats.sw_interrupt_requests += 1;
                }
                Some(IprNum::Ipl) => cpu.psl.ipl = (v & 0x1F) as u8,
                Some(IprNum::Pcbb) => cpu.iprs.pcbb = v,
                Some(IprNum::Scbb) => cpu.iprs.scbb = v,
                Some(IprNum::Ksp) => cpu.iprs.ksp = v,
                Some(IprNum::Iccs) => cpu.iprs.iccs = v,
                Some(IprNum::P0br) => cpu.mem.tables.p0br = VirtAddr(v),
                Some(IprNum::P0lr) => cpu.mem.tables.p0lr = v,
                Some(IprNum::P1br) => cpu.mem.tables.p1br = VirtAddr(v),
                Some(IprNum::P1lr) => cpu.mem.tables.p1lr = v,
                Some(IprNum::Sbr) => cpu.mem.tables.sbr = vax_mem::PhysAddr(v),
                Some(IprNum::Slr) => cpu.mem.tables.slr = v,
                Some(IprNum::Tbia) => cpu.mem.tb_mut().invalidate_all(),
                Some(IprNum::Tbis) => cpu.mem.tb_mut().invalidate_page(VirtAddr(v)),
                Some(IprNum::Sisr) => cpu.iprs.sisr = v as u16,
                None => {}
            }
            // A TB invalidate is how the guest announces PTE rewrites for
            // the running context; cached decodes made under the old
            // translations must go too. (Base/length register writes need
            // nothing here: they change the page-table tuple, which is part
            // of the decode cache's key.)
            if matches!(IprNum::from_u32(which), Some(IprNum::Tbia | IprNum::Tbis)) {
                cpu.flush_decode_cache();
            }
            Flow::Normal
        }
        Mfpr => {
            let which = ops[0].value as u32;
            let v = match IprNum::from_u32(which) {
                Some(IprNum::Ipl) => cpu.psl.ipl as u32,
                Some(IprNum::Pcbb) => cpu.iprs.pcbb,
                Some(IprNum::Scbb) => cpu.iprs.scbb,
                Some(IprNum::Ksp) => cpu.iprs.ksp,
                Some(IprNum::Sisr) => cpu.iprs.sisr as u32,
                Some(IprNum::Iccs) => cpu.iprs.iccs,
                Some(IprNum::P0br) => cpu.mem.tables.p0br.0,
                Some(IprNum::P0lr) => cpu.mem.tables.p0lr,
                Some(IprNum::P1br) => cpu.mem.tables.p1br.0,
                Some(IprNum::P1lr) => cpu.mem.tables.p1lr,
                Some(IprNum::Sbr) => cpu.mem.tables.sbr.0,
                Some(IprNum::Slr) => cpu.mem.tables.slr,
                _ => 0,
            };
            ops[1].value = v as u64;
            Flow::Normal
        }
        Insque => {
            let entry = ops[0].value as u32;
            let pred = ops[1].value as u32;
            let succ = cpu.read_data(r.at(READ), VirtAddr(pred), 4) as u32;
            let _pred_blink = cpu.read_data(r.at(READ), VirtAddr(pred.wrapping_add(4)), 4);
            cpu.write_data(r.at(WRITE), VirtAddr(entry), 4, succ as u64);
            cpu.write_data(r.at(WRITE), VirtAddr(entry.wrapping_add(4)), 4, pred as u64);
            cpu.write_data(r.at(WRITE), VirtAddr(pred), 4, entry as u64);
            cpu.write_data(r.at(WRITE), VirtAddr(succ.wrapping_add(4)), 4, entry as u64);
            cpu.psl.z = succ == pred; // queue was empty
            cpu.walk(r, row.finish, no_refs);
            Flow::Normal
        }
        Remque => {
            let entry = ops[0].value as u32;
            let flink = cpu.read_data(r.at(READ), VirtAddr(entry), 4) as u32;
            let blink = cpu.read_data(r.at(READ), VirtAddr(entry.wrapping_add(4)), 4) as u32;
            cpu.write_data(r.at(WRITE), VirtAddr(blink), 4, flink as u64);
            cpu.write_data(
                r.at(WRITE),
                VirtAddr(flink.wrapping_add(4)),
                4,
                blink as u64,
            );
            ops[1].value = entry as u64;
            cpu.psl.z = flink == blink; // queue now empty
            cpu.walk(r, row.finish, no_refs);
            Flow::Normal
        }
        Prober | Probew => {
            cpu.psl.z = false; // accessible
            Flow::Normal
        }
        Bispsw | Bicpsw => {
            let m = ops[0].value as u32 & 0xF;
            let cur = cpu.psl.to_u32();
            let new = if op == Bispsw { cur | m } else { cur & !m };
            cpu.psl = Psl::from_u32(new);
            Flow::Normal
        }
        other => unreachable!("{other} is not SYSTEM"),
    }
}

// ---- CHARACTER ----

/// Run the row's loop body once per longword of string, `lws` times (the
/// k-th data step of the i-th run references `strings[k]`'s address plus
/// `i` times its stride), then its finish.
fn string_loop(cpu: &mut Cpu, r: Region, row: &ExecRow, lws: u32, strings: &[(VirtAddr, u32)]) {
    lw_loop(cpu, r, row.each, lws, strings);
    cpu.walk(r, row.finish, no_refs);
}

fn exec_character(
    cpu: &mut Cpu,
    r: Region,
    row: &ExecRow,
    op: Opcode,
    ops: &mut [EvaldOperand],
) -> Flow {
    match op {
        Movc3 | Movc5 => {
            let (srclen, srcaddr, fill, dstlen, dstaddr) = if op == Movc3 {
                let len = ops[0].value as u32 & 0xFFFF;
                (len, ops[1].as_va(), 0u8, len, ops[2].as_va())
            } else {
                (
                    ops[0].value as u32 & 0xFFFF,
                    ops[1].as_va(),
                    ops[2].value as u8,
                    ops[3].value as u32 & 0xFFFF,
                    ops[4].as_va(),
                )
            };
            // Timing: longword loop; the microcode writes only every sixth
            // cycle to avoid write stalls (paper §4.3).
            let strings = [(srcaddr, 4), (dstaddr, 4)];
            string_loop(cpu, r, row, dstlen.div_ceil(4), &strings);
            // Semantics: byte-accurate copy + fill (after the timed loop so
            // its placeholder writes don't clobber the data).
            let n = srclen.min(dstlen);
            for i in 0..n {
                let b = cpu.read_value(srcaddr.add(i), 1);
                cpu.write_value(dstaddr.add(i), 1, b);
            }
            for i in n..dstlen {
                cpu.write_value(dstaddr.add(i), 1, fill as u64);
            }
            cpu.regs[0] = srclen.saturating_sub(dstlen);
            cpu.regs[1] = srcaddr.add(n).0;
            cpu.regs[2] = 0;
            cpu.regs[3] = dstaddr.add(dstlen).0;
            cpu.regs[4] = 0;
            cpu.regs[5] = 0;
            cpu.psl.z = srclen == dstlen;
            Flow::Normal
        }
        Cmpc3 | Cmpc5 => {
            let (len1, a1, len2, a2) = if op == Cmpc3 {
                let len = ops[0].value as u32 & 0xFFFF;
                (len, ops[1].as_va(), len, ops[2].as_va())
            } else {
                (
                    ops[0].value as u32 & 0xFFFF,
                    ops[1].as_va(),
                    ops[3].value as u32 & 0xFFFF,
                    ops[4].as_va(),
                )
            };
            let n = len1.min(len2);
            let mut diff_at = n;
            let mut ca = 0u64;
            let mut cb = 0u64;
            for i in 0..n {
                ca = cpu.read_value(a1.add(i), 1);
                cb = cpu.read_value(a2.add(i), 1);
                if ca != cb {
                    diff_at = i;
                    break;
                }
            }
            let scanned = if diff_at == n { n } else { diff_at + 1 };
            let lws = scanned.div_ceil(4).max(1);
            string_loop(cpu, r, row, lws, &[(a1, 4), (a2, 4)]);
            cc_cmp(&mut cpu.psl, ca, cb, 1);
            if diff_at == n {
                cpu.psl.z = len1 == len2;
            }
            cpu.regs[0] = len1 - diff_at.min(len1);
            cpu.regs[1] = a1.add(diff_at).0;
            cpu.regs[2] = len2 - diff_at.min(len2);
            cpu.regs[3] = a2.add(diff_at).0;
            Flow::Normal
        }
        Locc | Skpc => {
            let ch = ops[0].value as u8;
            let len = ops[1].value as u32 & 0xFFFF;
            let addr = ops[2].as_va();
            let mut found = len;
            for i in 0..len {
                let b = cpu.read_value(addr.add(i), 1) as u8;
                let hit = if op == Locc { b == ch } else { b != ch };
                if hit {
                    found = i;
                    break;
                }
            }
            let scanned = if found == len { len } else { found + 1 };
            string_loop(cpu, r, row, scanned.div_ceil(4).max(1), &[(addr, 4)]);
            cpu.psl.z = found == len;
            cpu.regs[0] = len - found.min(len);
            cpu.regs[1] = addr.add(found.min(len)).0;
            Flow::Normal
        }
        Scanc | Spanc => {
            let len = ops[0].value as u32 & 0xFFFF;
            let addr = ops[1].as_va();
            let table = ops[2].as_va();
            let m = ops[3].value as u8;
            let mut found = len;
            for i in 0..len {
                let b = cpu.read_value(addr.add(i), 1) as u8;
                let t = cpu.read_value(table.add(b as u32), 1) as u8;
                let hit = if op == Scanc { t & m != 0 } else { t & m == 0 };
                if hit {
                    found = i;
                    break;
                }
            }
            let scanned = if found == len { len } else { found + 1 };
            // Table lookups: one reference per longword of string, a coarse
            // model of the per-byte table probes.
            let lws = scanned.div_ceil(4).max(1);
            string_loop(cpu, r, row, lws, &[(addr, 4), (table, 0)]);
            cpu.psl.z = found == len;
            cpu.regs[0] = len - found.min(len);
            cpu.regs[1] = addr.add(found.min(len)).0;
            cpu.regs[2] = 0;
            cpu.regs[3] = table.0;
            Flow::Normal
        }
        Matchc => {
            let len1 = ops[0].value as u32 & 0xFFFF;
            let a1 = ops[1].as_va();
            let len2 = ops[2].value as u32 & 0xFFFF;
            let a2 = ops[3].as_va();
            // Naive substring search (pattern a1 within a2).
            let mut at = None;
            if len1 <= len2 {
                'outer: for s in 0..=(len2 - len1) {
                    for i in 0..len1 {
                        let p = cpu.read_value(a1.add(i), 1);
                        let t = cpu.read_value(a2.add(s + i), 1);
                        if p != t {
                            continue 'outer;
                        }
                    }
                    at = Some(s);
                    break;
                }
            }
            let scanned = at.map(|s| s + len1).unwrap_or(len2);
            string_loop(cpu, r, row, scanned.div_ceil(4).max(1), &[(a2, 4)]);
            cpu.psl.z = at.is_some();
            cpu.regs[0] = if at.is_some() { 0 } else { len1 };
            cpu.regs[3] = a2.add(at.map(|s| s + len1).unwrap_or(len2)).0;
            Flow::Normal
        }
        other => unreachable!("{other} is not CHARACTER"),
    }
}

// ---- DECIMAL ----

/// Packed-decimal byte length for a digit count.
fn packed_bytes(digits: u32) -> u32 {
    digits / 2 + 1
}

/// A packed-decimal operand: its digit count and address.
fn packed(len: &EvaldOperand, addr: &EvaldOperand) -> (u32, VirtAddr) {
    (len.value as u32 & 0x1F, addr.as_va())
}

fn read_packed(cpu: &Cpu, addr: VirtAddr, digits: u32) -> i128 {
    let bytes = packed_bytes(digits.min(31));
    let mut v: i128 = 0;
    for i in 0..bytes {
        let b = cpu.read_value(addr.add(i), 1) as u8;
        if i == bytes - 1 {
            v = v * 10 + (b >> 4) as i128;
            if b & 0x0F == 0x0D {
                v = -v;
            }
        } else {
            v = v * 100 + ((b >> 4) * 10 + (b & 0x0F)) as i128;
        }
    }
    v
}

fn write_packed(cpu: &mut Cpu, addr: VirtAddr, digits: u32, value: i128) {
    let digits = digits.min(31);
    let bytes = packed_bytes(digits);
    let neg = value < 0;
    let mut mag = value.unsigned_abs();
    // Build digits least-significant first.
    let mut ds = [0u8; 32];
    for d in ds.iter_mut().take(digits as usize) {
        *d = (mag % 10) as u8;
        mag /= 10;
    }
    // Pack: last byte holds the lowest digit + sign nibble.
    for i in 0..bytes {
        let byte = if i == bytes - 1 {
            (ds[0] << 4) | if neg { 0x0D } else { 0x0C }
        } else {
            let hi_idx = (2 * (bytes - 1 - i) - 1) as usize;
            let lo_idx = (2 * (bytes - 1 - i)) as usize;
            (ds[lo_idx.min(31)] << 4) | ds[hi_idx.min(31)]
        };
        cpu.write_value(addr.add(i), 1, byte as u64);
    }
}

/// Run `steps`, `decimal::READ_LW` or `WRITE_LW`, once per longword of
/// the `digits`-digit packed operand at `addr`.
fn per_longword(cpu: &mut Cpu, r: Region, steps: &[u16], addr: VirtAddr, digits: u32) {
    let lws = packed_bytes(digits).div_ceil(4);
    lw_loop(cpu, r, steps, lws, &[(addr, 4)]);
}

fn ten_pow(digits: u32) -> i128 {
    10i128.saturating_pow(digits.min(31))
}

fn exec_decimal(
    cpu: &mut Cpu,
    r: Region,
    row: &ExecRow,
    op: Opcode,
    ops: &mut [EvaldOperand],
) -> Flow {
    use decimal::{READ_LW, WRITE_LW};
    let digit_loop = |cpu: &mut Cpu, digits: u32| {
        for _ in 0..digits {
            cpu.walk(r, row.each, no_refs);
        }
    };
    // Each arm yields the value whose sign and zeroness set N and Z.
    let v = match op {
        // Two sources into a destination; the 4-operand forms add into
        // their second operand.
        Addp4 | Subp4 | Addp6 | Subp6 | Mulp | Divp => {
            let (l1, a1) = packed(&ops[0], &ops[1]);
            let (l2, a2) = packed(&ops[2], &ops[3]);
            let (l3, a3) = if ops.len() == 6 {
                packed(&ops[4], &ops[5])
            } else {
                (l2, a2)
            };
            per_longword(cpu, r, &READ_LW, a1, l1);
            per_longword(cpu, r, &READ_LW, a2, l2);
            digit_loop(cpu, l3.max(l1).max(l2));
            let x = read_packed(cpu, a1, l1);
            let y = read_packed(cpu, a2, l2);
            let v = match op {
                Addp4 | Addp6 => (y + x) % ten_pow(l3),
                Subp4 | Subp6 => (y - x) % ten_pow(l3),
                Mulp => y.saturating_mul(x) % ten_pow(l3),
                _ if x == 0 => {
                    cpu.psl.v = true;
                    0
                }
                _ => (y / x) % ten_pow(l3),
            };
            per_longword(cpu, r, &WRITE_LW, a3, l3);
            write_packed(cpu, a3, l3, v);
            v
        }
        Movp => {
            let (len, src) = packed(&ops[0], &ops[1]);
            let dst = ops[2].as_va();
            per_longword(cpu, r, &READ_LW, src, len);
            let v = read_packed(cpu, src, len);
            per_longword(cpu, r, &WRITE_LW, dst, len);
            write_packed(cpu, dst, len, v);
            v
        }
        // The condition codes of x - y.
        Cmpp3 | Cmpp4 => {
            let (l1, a1) = packed(&ops[0], &ops[1]);
            let (l2, a2) = if op == Cmpp3 {
                (l1, ops[2].as_va())
            } else {
                packed(&ops[2], &ops[3])
            };
            per_longword(cpu, r, &READ_LW, a1, l1);
            per_longword(cpu, r, &READ_LW, a2, l2);
            digit_loop(cpu, l1.max(l2) / 2);
            read_packed(cpu, a1, l1) - read_packed(cpu, a2, l2)
        }
        Cvtlp => {
            let v = sext(ops[0].value, 4) as i128;
            let (len, dst) = packed(&ops[1], &ops[2]);
            digit_loop(cpu, len);
            per_longword(cpu, r, &WRITE_LW, dst, len);
            write_packed(cpu, dst, len, v % ten_pow(len));
            v
        }
        Cvtpl => {
            let (len, src) = packed(&ops[0], &ops[1]);
            per_longword(cpu, r, &READ_LW, src, len);
            digit_loop(cpu, len);
            let v = read_packed(cpu, src, len);
            ops[2].value = v as i64 as u64 & mask(4);
            v
        }
        Ashp => {
            let shift = sext(ops[0].value, 1);
            let (srclen, src) = packed(&ops[1], &ops[2]);
            let (dstlen, dst) = packed(&ops[4], &ops[5]);
            per_longword(cpu, r, &READ_LW, src, srclen);
            digit_loop(cpu, dstlen);
            let x = read_packed(cpu, src, srclen);
            let v = if shift >= 0 {
                x.saturating_mul(ten_pow(shift as u32))
            } else {
                x / ten_pow((-shift) as u32)
            } % ten_pow(dstlen);
            per_longword(cpu, r, &WRITE_LW, dst, dstlen);
            write_packed(cpu, dst, dstlen, v);
            v
        }
        other => unreachable!("{other} is not DECIMAL"),
    };
    cpu.psl.n = v < 0;
    cpu.psl.z = v == 0;
    Flow::Normal
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::opcode::OPCODE_TABLE;

    #[test]
    fn every_opcode_has_one_row_inside_its_region() {
        for info in OPCODE_TABLE {
            let op = info.opcode;
            let rows: Vec<&ExecRow> = rows().filter(|row| row.opcodes.contains(&op)).collect();
            assert_eq!(rows.len(), 1, "{op} is priced by {} rows", rows.len());
            let layout = group_layout(info.group);
            let row = rows[0];
            // Only a CHARACTER loop body holds data references.
            let data_ok = |steps: &[u16]| info.group == OpcodeGroup::Character && steps == row.each;
            for steps in [row.setup, row.each, row.finish] {
                for &step in steps {
                    let len = layout.len();
                    assert!(
                        usize::from(step) < len,
                        "{op}: step {step} leaves the {len}-µop region"
                    );
                    let op_at = layout[usize::from(step)];
                    assert!(
                        op_at == MicroOp::Compute || data_ok(steps),
                        "{op}: step {step}"
                    );
                }
            }
            if info.group == OpcodeGroup::Simple {
                assert_eq!(row.setup.first(), Some(&simple::ENTRY), "{op}");
            }
        }
        // EDIV keeps its cost: 24 straight cycles, then two re-executions of
        // the last microinstruction.
        let ediv = row_of(Opcode::Ediv).unwrap().setup;
        assert_eq!(ediv.len(), 26);
        assert_eq!(ediv[22..], [22, 23, 23, 23]);
    }

    #[test]
    fn packed_decimal_roundtrip_helpers() {
        // Pure helpers (no CPU needed).
        assert_eq!(packed_bytes(5), 3);
        assert_eq!(packed_bytes(0), 1);
        assert_eq!(ten_pow(3), 1000);
        assert_eq!(mask_bits(4), 0xF);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sext(0xFF, 1), -1);
        assert_eq!(sext(0x7F, 1), 127);
        assert_eq!(sext(0xFFFF_FFFF, 4), -1);
    }
}
