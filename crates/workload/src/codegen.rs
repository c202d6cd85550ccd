//! The VAX program generator.
//!
//! Emits a complete user program as real VAX machine code: a call DAG of
//! routines whose bodies are loops over statement sequences sampled from
//! the profile's instruction-mix weights, plus leaf subroutines, CASE
//! dispatches, character/decimal/queue work, and a startup prologue that
//! initializes base registers, pointer tables, and data patterns.
//!
//! Register conventions in generated code:
//!
//! | Reg | Use |
//! |-----|-----|
//! | R0, R1, R3 | statement scratch |
//! | R2  | routine loop counter (saved by entry masks) |
//! | R4  | roving pointer (autoinc/autodec), reset each iteration |
//! | R5  | branch-bias counter |
//! | R6  | hot working set base |
//! | R7  | pointer-table base |
//! | R8  | cold-walk pointer |
//! | R9  | string area base |
//! | R10 | misc data base (queues, floats, decimals) |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vax780::{ProcessShape, ProcessSpec};
use vax_arch::{Opcode, Reg};
use vax_asm::{Asm, AsmError, Operand};

use crate::profile::WorkloadProfile;

use Operand::{Imm, Label, Lit, Reg as R};

/// Fixed start of the data region (code must fit below).
const DATA_BASE: u32 = 0x10000;
/// Code origin (page 0 is the guard page).
const ORIGIN: u32 = 0x200;
/// Stack pages of every generated process (it maps no bss pages).
const STACK_PAGES: u32 = 16;

/// Data-region layout, derived from the profile.
#[derive(Debug, Clone, Copy)]
struct DataLayout {
    wsa: u32,
    ptrs: u32,
    strs: u32,
    misc: u32,
    wsb: u32,
    wsb_end: u32,
}

impl DataLayout {
    fn new(p: &WorkloadProfile) -> DataLayout {
        // Read-mostly tables first; the writable working sets (wsa, wsb)
        // last, so indexed-addressing overreach past a working set lands in
        // the next working set or the (mapped, mostly unused) stack gap —
        // never in the pointer table.
        let ptrs = DATA_BASE;
        let strs = ptrs + 256;
        let misc = strs + 2048;
        let wsa = misc + 512;
        let wsb = (wsa + p.ws_hot_bytes).next_multiple_of(512);
        DataLayout {
            wsa,
            ptrs,
            strs,
            misc,
            wsb,
            wsb_end: wsb + p.ws_walk_bytes,
        }
    }

    /// Misc-slot addresses. The first 16 bytes of `misc` are a sacrificial
    /// landing zone for register-deferred writes through R10; real
    /// structures start at +16.
    fn qhead(&self) -> u32 {
        self.misc + 16
    }
    fn qnode(&self) -> u32 {
        self.misc + 24
    }
    fn floats(&self) -> u32 {
        self.misc + 64
    }
    fn decimals(&self) -> u32 {
        self.misc + 128
    }
    fn save_r2(&self) -> u32 {
        self.misc + 192
    }
    fn wlimit(&self) -> u32 {
        self.misc + 196
    }
}

/// Statement kinds sampled from profile weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stmt {
    Mov,
    Arith,
    Bool,
    Test,
    CondBranch,
    LowBit,
    BitBranch,
    Case,
    SubCall,
    ProcCall,
    Pushr,
    FieldOp,
    Float,
    System,
    Char,
    Decimal,
    InnerLoop,
}

struct Gen<'p> {
    p: &'p WorkloadProfile,
    rng: StdRng,
    asm: Asm,
    d: DataLayout,
    label_n: u32,
    /// Routine labels by level.
    levels: Vec<Vec<String>>,
    subs: Vec<String>,
    kinds: Vec<(Stmt, f64)>,
    total_w: f64,
}

impl<'p> Gen<'p> {
    fn new(p: &'p WorkloadProfile, seed: u64) -> Gen<'p> {
        let kinds = vec![
            (Stmt::Mov, p.w_mov),
            (Stmt::Arith, p.w_arith),
            (Stmt::Bool, p.w_bool),
            (Stmt::Test, p.w_test),
            (Stmt::CondBranch, p.w_cond_branch),
            (Stmt::LowBit, p.w_lowbit),
            (Stmt::BitBranch, p.w_bit_branch),
            (Stmt::Case, p.w_case),
            (Stmt::SubCall, p.w_sub_call),
            (Stmt::ProcCall, p.w_proc_call),
            (Stmt::Pushr, p.w_pushr),
            (Stmt::FieldOp, p.w_field_op),
            (Stmt::Float, p.w_float),
            (Stmt::System, p.w_system),
            (Stmt::Char, p.w_char),
            (Stmt::Decimal, p.w_decimal),
            (Stmt::InnerLoop, p.w_inner_loop),
        ];
        let total_w = kinds.iter().map(|(_, w)| w).sum();
        Gen {
            p,
            rng: StdRng::seed_from_u64(seed),
            asm: Asm::new(ORIGIN),
            d: DataLayout::new(p),
            label_n: 0,
            levels: vec![Vec::new(); 4],
            subs: Vec::new(),
            kinds,
            total_w,
        }
    }

    fn lbl(&mut self) -> String {
        self.label_n += 1;
        // Not `format!`: every branch makes a label, and the formatter
        // costs twice this.
        let mut name = String::with_capacity(11);
        name.push('L');
        name.push_str(&self.label_n.to_string());
        name
    }

    fn sample_kind(&mut self) -> Stmt {
        let mut x = self.rng.gen_range(0.0..self.total_w);
        for (k, w) in &self.kinds {
            if x < *w {
                return *k;
            }
            x -= w;
        }
        Stmt::Mov
    }

    // ---- operand sampling ----

    /// A data operand for the given access. `first` selects the SPEC1 vs
    /// SPEC2-6 mode mix; `write` excludes literal/immediate.
    fn operand(&mut self, first: bool, write: bool) -> Operand {
        let (reg_w, lit, imm, disp, defd, auto, dispdef, abs, idx) = if first {
            (
                self.p.m1_register,
                self.p.m1_literal,
                self.p.m1_immediate,
                self.p.m1_disp,
                self.p.m1_deferred,
                self.p.m1_autoinc,
                self.p.m1_disp_def,
                self.p.m1_absolute,
                self.p.m1_indexed,
            )
        } else {
            (
                self.p.m2_register,
                self.p.m2_literal,
                self.p.m2_immediate,
                self.p.m2_disp,
                self.p.m2_deferred,
                self.p.m2_autoinc,
                self.p.m2_disp_def,
                self.p.m2_absolute,
                self.p.m2_indexed,
            )
        };
        let (lit, imm) = if write { (0, 0) } else { (lit, imm) };
        let total = reg_w + lit + imm + disp + defd + auto + dispdef + abs;
        let mut x = self.rng.gen_range(0..total);
        // R3 is the dedicated (bounded) index register; scratch is R0/R1.
        let scratch = [Reg::new(0), Reg::new(1)];
        let sc = scratch[self.rng.gen_range(0..2)];
        let base = if x < reg_w {
            return R(sc);
        } else {
            x -= reg_w;
            if x < lit {
                return Lit(self.rng.gen_range(0..64));
            }
            x -= lit;
            if x < imm {
                return Imm(self.rng.gen());
            }
            x -= imm;
            if x < disp {
                self.disp_operand()
            } else {
                x -= disp;
                if x < defd {
                    let bases = [Reg::new(6), Reg::new(9), Reg::new(10)];
                    Operand::Deferred(bases[self.rng.gen_range(0..3)])
                } else {
                    x -= defd;
                    if x < auto {
                        if self.rng.gen_bool(0.5) {
                            Operand::AutoInc(Reg::new(4))
                        } else {
                            Operand::AutoDec(Reg::new(4))
                        }
                    } else {
                        x -= auto;
                        if x < dispdef {
                            let slot = self.rng.gen_range(0..16u32);
                            Operand::DispDef(slot as i32 * 4, Reg::new(7))
                        } else {
                            x -= dispdef;
                            if x < abs {
                                let off = self.aligned_hot_offset();
                                Operand::Abs(self.d.wsa + off)
                            } else {
                                self.disp_operand()
                            }
                        }
                    }
                }
            }
        };
        // Index prefix on a per-mille of memory operands. R10-deferred is
        // excluded: misc+4*R3 would reach the control slots (walk limit,
        // loop counters) that keep generated programs self-consistent.
        if self.rng.gen_range(0..1000) < idx {
            let indexable = !matches!(
                base,
                Operand::AutoInc(_) | Operand::AutoDec(_) | Operand::Deferred(Reg { .. })
            ) || matches!(base, Operand::Deferred(r) if r.number() != 10);
            if indexable {
                // R3 holds small integers; keep the reach tiny.
                return Operand::Indexed(Box::new(base), Reg::new(3));
            }
        }
        base
    }

    fn aligned_hot_offset(&mut self) -> u32 {
        let unaligned = self.rng.gen_range(0..1000) < self.p.unaligned_per_mille;
        let off = self.rng.gen_range(0..self.p.ws_hot_bytes / 4 - 4) * 4;
        if unaligned {
            off + 1
        } else {
            off
        }
    }

    /// Displacement off a data base register: mostly the hot set, sometimes
    /// the cold walker.
    fn disp_operand(&mut self) -> Operand {
        if self.rng.gen_bool(0.7) {
            Operand::Disp(self.aligned_hot_offset() as i32, Reg::new(6))
        } else {
            Operand::Disp(self.rng.gen_range(0..512) * 4, Reg::new(8))
        }
    }

    // ---- statements ----

    fn emit_statement(&mut self, kind: Stmt, level: usize) {
        match kind {
            Stmt::Mov => self.stmt_mov(),
            Stmt::Arith => self.stmt_arith(),
            Stmt::Bool => self.stmt_bool(),
            Stmt::Test => self.stmt_test(),
            Stmt::CondBranch => self.stmt_cond_branch(),
            Stmt::LowBit => self.stmt_lowbit(),
            Stmt::BitBranch => self.stmt_bit_branch(),
            Stmt::Case => self.stmt_case(),
            Stmt::SubCall => self.stmt_sub_call(),
            Stmt::ProcCall => self.stmt_proc_call(level),
            Stmt::Pushr => self.stmt_pushr(),
            Stmt::FieldOp => self.stmt_field(),
            Stmt::Float => self.stmt_float(),
            Stmt::System => self.stmt_system(),
            Stmt::Char => self.stmt_char(),
            Stmt::Decimal => self.stmt_decimal(),
            Stmt::InnerLoop => self.stmt_inner_loop(),
        }
    }

    /// A small counted inner loop: the dominant source of the paper's
    /// loop-branch frequency (taken rate (k-1)/k ≈ 90% with k ≈ 8-12).
    fn stmt_inner_loop(&mut self) {
        let top = self.lbl();
        let cnt = (self.d.save_r2() - self.d.misc) as i32 + 8; // counter slot
        let iters = self.rng.gen_range(7..13u8);
        let variant = self.rng.gen_range(0..10);
        if variant < 6 {
            self.asm.insn(
                Opcode::Movl,
                &[Lit(iters), Operand::Disp(cnt, Reg::new(10))],
                None,
            );
        } else {
            self.asm
                .insn(Opcode::Clrl, &[Operand::Disp(cnt, Reg::new(10))], None);
        }
        self.asm.label(&top);
        for _ in 0..self.rng.gen_range(2..4u32) {
            if self.rng.gen_bool(0.6) {
                self.stmt_mov();
            } else {
                self.stmt_arith();
            }
        }
        match variant {
            0..=5 => {
                self.asm.insn(
                    Opcode::Sobgtr,
                    &[Operand::Disp(cnt, Reg::new(10))],
                    Some(&top),
                );
            }
            6..=7 => {
                self.asm.insn(
                    Opcode::Aoblss,
                    &[Lit(iters), Operand::Disp(cnt, Reg::new(10))],
                    Some(&top),
                );
            }
            _ => {
                self.asm.insn(
                    Opcode::Acbl,
                    &[Lit(iters), Lit(1), Operand::Disp(cnt, Reg::new(10))],
                    Some(&top),
                );
            }
        }
    }

    fn stmt_mov(&mut self) {
        let choice = self.rng.gen_range(0..10);
        match choice {
            0..=5 => {
                let src = self.operand(true, false);
                let dst = self.operand(false, true);
                let op = match self.rng.gen_range(0..8) {
                    0 => Opcode::Movb,
                    1 => Opcode::Movw,
                    _ => Opcode::Movl,
                };
                self.asm.insn(op, &[src, dst], None);
            }
            6 => {
                let src = self.operand(true, false);
                self.asm.insn(Opcode::Pushl, &[src], None);
                // Balance the stack immediately.
                let dst = self.operand(false, true);
                self.asm
                    .insn(Opcode::Movl, &[Operand::AutoInc(Reg::SP), dst], None);
            }
            7 => {
                let off = self.aligned_hot_offset() & !1;
                self.asm.insn(
                    Opcode::Movab,
                    &[Operand::Disp(off as i32, Reg::new(6)), R(Reg::new(1))],
                    None,
                );
            }
            8 => {
                let src = self.operand(true, false);
                let dst = self.operand(false, true);
                self.asm.insn(Opcode::Movzbl, &[src, dst], None);
            }
            _ => {
                // Quad operands occupy a register *pair*; confine register
                // operands to R0/R1 so R2 (loop counter) and R4 (roving
                // pointer) are never clobbered by the high half.
                let fix = |o: Operand| match o {
                    R(_) => R(Reg::new(0)),
                    other => other,
                };
                let src = fix(self.operand(true, false));
                let dst = fix(self.operand(false, true));
                self.asm.insn(Opcode::Movq, &[src, dst], None);
            }
        }
    }

    fn stmt_arith(&mut self) {
        let choice = self.rng.gen_range(0..12);
        match choice {
            0..=3 => {
                let src = self.operand(true, false);
                let dst = R(Reg::new(self.rng.gen_range(0..2))); // R0 or R1
                let op = if self.rng.gen_bool(0.6) {
                    Opcode::Addl2
                } else {
                    Opcode::Subl2
                };
                self.asm.insn(op, &[src, dst], None);
            }
            4..=5 => {
                let a = self.operand(true, false);
                let b = self.operand(false, false);
                let dst = self.operand(false, true);
                let op = if self.rng.gen_bool(0.5) {
                    Opcode::Addl3
                } else {
                    Opcode::Subl3
                };
                self.asm.insn(op, &[a, b, dst], None);
            }
            6..=7 => {
                let dst = self.operand(true, true);
                let op = if self.rng.gen_bool(0.6) {
                    Opcode::Incl
                } else {
                    Opcode::Decl
                };
                self.asm.insn(op, &[dst], None);
            }
            8 => {
                let dst = self.operand(true, true);
                self.asm.insn(Opcode::Clrl, &[dst], None);
            }
            9 => {
                let src = self.operand(true, false);
                let dst = self.operand(false, true);
                self.asm.insn(Opcode::Cvtwl, &[src, dst], None);
            }
            10 => {
                let src = self.operand(false, false);
                self.asm.insn(
                    Opcode::Ashl,
                    &[Lit(self.rng.gen_range(0..8)), src, R(Reg::new(0))],
                    None,
                );
            }
            _ => {
                let src = self.operand(true, false);
                let dst = self.operand(false, true);
                self.asm.insn(Opcode::Mnegl, &[src, dst], None);
            }
        }
    }

    fn stmt_bool(&mut self) {
        let src = self.operand(true, false);
        let dst = R(Reg::new([0u8, 1][self.rng.gen_range(0..2)]));
        let op = match self.rng.gen_range(0..3) {
            0 => Opcode::Bicl2,
            1 => Opcode::Bisl2,
            _ => Opcode::Xorl2,
        };
        self.asm.insn(op, &[src, dst], None);
    }

    fn stmt_test(&mut self) {
        if self.rng.gen_bool(0.5) {
            let a = self.operand(true, false);
            self.asm.insn(Opcode::Tstl, &[a], None);
        } else {
            let a = self.operand(true, false);
            let b = self.operand(false, false);
            self.asm.insn(Opcode::Cmpl, &[a, b], None);
        }
    }

    /// Conditional branch: a test on the bias counter (≈50% taken) or on
    /// data, branching forward over one or two filler statements. BRB/BRW
    /// mix in as the always-taken members of the class.
    fn stmt_cond_branch(&mut self) {
        let skip = self.lbl();
        let roll = self.rng.gen_range(0..100);
        if roll < 2 {
            // Unconditional JMP (Table 2's rare JMP class).
            self.asm.insn(Opcode::Jmp, &[Label(skip.clone())], None);
        } else if roll < 12 {
            // Unconditional member of the simple-branch class.
            let op = if self.rng.gen_bool(0.7) {
                Opcode::Brb
            } else {
                Opcode::Brw
            };
            self.asm.insn(op, &[], Some(&skip));
        } else {
            if self.rng.gen_bool(0.6) {
                let bit = 1u8 << self.rng.gen_range(0..3);
                self.asm
                    .insn(Opcode::Bitl, &[Lit(bit), R(Reg::new(5))], None);
                self.asm.insn(Opcode::Incl, &[R(Reg::new(5))], None);
            } else {
                let a = self.operand(true, false);
                self.asm.insn(Opcode::Tstl, &[a], None);
            }
            let op = match self.rng.gen_range(0..6) {
                0 => Opcode::Bneq,
                1 => Opcode::Beql,
                2 => Opcode::Bgtr,
                3 => Opcode::Bleq,
                4 => Opcode::Bgeq,
                _ => Opcode::Blss,
            };
            self.asm.insn(op, &[], Some(&skip));
        }
        // Filler.
        for _ in 0..self.rng.gen_range(1..3u32) {
            self.stmt_mov();
        }
        self.asm.label(&skip);
    }

    fn stmt_lowbit(&mut self) {
        let skip = self.lbl();
        let src = if self.rng.gen_bool(0.6) {
            Operand::Disp(self.aligned_hot_offset() as i32 & !3, Reg::new(6))
        } else {
            R(Reg::new(5))
        };
        let op = if self.rng.gen_bool(0.5) {
            Opcode::Blbs
        } else {
            Opcode::Blbc
        };
        self.asm.insn(op, &[src], Some(&skip));
        self.stmt_mov();
        self.asm.label(&skip);
    }

    fn stmt_bit_branch(&mut self) {
        let skip = self.lbl();
        let pos = Lit(self.rng.gen_range(0..32));
        let base = if self.rng.gen_bool(0.9) {
            Operand::Disp(self.aligned_hot_offset() as i32 & !3, Reg::new(6))
        } else {
            R(Reg::new(5))
        };
        let op = match self.rng.gen_range(0..4) {
            0 => Opcode::Bbs,
            1 => Opcode::Bbc,
            2 => Opcode::Bbss,
            _ => Opcode::Bbcc,
        };
        self.asm.insn(op, &[pos, base], Some(&skip));
        self.stmt_mov();
        self.asm.label(&skip);
    }

    fn stmt_case(&mut self) {
        let c0 = self.lbl();
        let c1 = self.lbl();
        let c2 = self.lbl();
        let join = self.lbl();
        // Selector = bias counter & 3 (the value 3 exercises the
        // out-of-range fall-through path).
        self.asm.insn(
            Opcode::Bicl3,
            &[Imm(!3u32), R(Reg::new(5)), R(Reg::new(0))],
            None,
        );
        self.asm.insn(Opcode::Incl, &[R(Reg::new(5))], None);
        self.asm
            .insn(Opcode::Caseb, &[R(Reg::new(0)), Lit(0), Lit(2)], None);
        self.asm.case_table(&[&c0, &c1, &c2]);
        self.asm.insn(Opcode::Brb, &[], Some(&join)); // out of range
        self.asm.label(&c0);
        self.stmt_mov();
        self.asm.insn(Opcode::Brb, &[], Some(&join));
        self.asm.label(&c1);
        self.stmt_arith();
        self.asm.insn(Opcode::Brb, &[], Some(&join));
        self.asm.label(&c2);
        self.stmt_bool();
        self.asm.label(&join);
    }

    fn stmt_sub_call(&mut self) {
        if self.subs.is_empty() {
            return self.stmt_mov();
        }
        // Target a recent subroutine so the BSBW word displacement stays in
        // range as the program grows.
        let lo = self.subs.len().saturating_sub(2);
        let i = self.rng.gen_range(lo..self.subs.len());
        let target = self.subs[i].clone();
        if self.rng.gen_bool(0.85) {
            self.asm.insn(Opcode::Bsbw, &[], Some(&target));
        } else {
            self.asm.insn(Opcode::Jsb, &[Label(target)], None);
        }
    }

    /// Procedure call with a shared depth budget in memory: any routine may
    /// call any other, and the counter bounds dynamic recursion — this
    /// keeps the dynamic execution weight spread across the whole program
    /// instead of concentrating in call-DAG leaves.
    fn stmt_proc_call(&mut self, _level: usize) {
        let all: usize = self.levels.iter().map(|l| l.len()).sum();
        if all == 0 {
            return self.stmt_mov();
        }
        let mut i = self.rng.gen_range(0..all);
        let mut target = None;
        for level in &self.levels {
            if i < level.len() {
                target = Some(level[i].clone());
                break;
            }
            i -= level.len();
        }
        let target = target.unwrap();
        let depth = (self.d.save_r2() - self.d.misc) as i32 + 12; // misc+204
        let skip = self.lbl();
        self.asm
            .insn(Opcode::Decl, &[Operand::Disp(depth, Reg::new(10))], None);
        self.asm.insn(Opcode::Blss, &[], Some(&skip));
        if self.rng.gen_bool(0.5) {
            self.asm.insn(Opcode::Pushl, &[Lit(7)], None);
            self.asm.insn(Opcode::Calls, &[Lit(1), Label(target)], None);
        } else {
            self.asm.insn(Opcode::Calls, &[Lit(0), Label(target)], None);
        }
        self.asm.label(&skip);
        self.asm
            .insn(Opcode::Incl, &[Operand::Disp(depth, Reg::new(10))], None);
    }

    fn stmt_pushr(&mut self) {
        let m = 0b1011u8; // R0, R1, R3
        self.asm.insn(Opcode::Pushr, &[Lit(m)], None);
        self.stmt_arith();
        self.asm.insn(Opcode::Popr, &[Lit(m)], None);
    }

    fn stmt_field(&mut self) {
        let pos = Lit(self.rng.gen_range(0..24));
        let size = Lit(self.rng.gen_range(1..16));
        let base = match self.rng.gen_range(0..10) {
            0..=4 => Operand::Disp(self.aligned_hot_offset() as i32 & !3, Reg::new(6)),
            5..=7 => Operand::Disp(self.rng.gen_range(0..500) * 4, Reg::new(8)),
            _ => R(Reg::new(1)),
        };
        match self.rng.gen_range(0..5) {
            0 | 1 => self
                .asm
                .insn(Opcode::Extzv, &[pos, size, base, R(Reg::new(0))], None),
            2 => self
                .asm
                .insn(Opcode::Extv, &[pos, size, base, R(Reg::new(0))], None),
            3 => self
                .asm
                .insn(Opcode::Insv, &[R(Reg::new(0)), pos, size, base], None),
            _ => self
                .asm
                .insn(Opcode::Ffs, &[Lit(0), Lit(32), base, R(Reg::new(0))], None),
        };
    }

    fn stmt_float(&mut self) {
        let f = |g: &mut Gen<'_>| {
            let off = g.rng.gen_range(0..8u32) * 4;
            Operand::Disp((g.d.floats() - g.d.misc + off) as i32, Reg::new(10))
        };
        match self.rng.gen_range(0..10) {
            0..=2 => {
                let a = f(self);
                self.asm.insn(Opcode::Addf2, &[a, R(Reg::new(0))], None);
            }
            3..=4 => {
                let a = f(self);
                self.asm.insn(Opcode::Mulf2, &[a, R(Reg::new(0))], None);
            }
            5 => {
                let a = f(self);
                self.asm.insn(Opcode::Subf2, &[a, R(Reg::new(1))], None);
            }
            6 => {
                let a = f(self);
                let b = f(self);
                self.asm.insn(Opcode::Cmpf, &[a, b], None);
            }
            7 => {
                let a = f(self);
                self.asm.insn(Opcode::Movf, &[a, R(Reg::new(0))], None);
            }
            8 => {
                let src = self.operand(true, false);
                self.asm.insn(Opcode::Mull2, &[src, R(Reg::new(0))], None);
            }
            _ => {
                self.asm
                    .insn(Opcode::Divl2, &[Lit(3), R(Reg::new(0))], None);
            }
        }
    }

    fn stmt_system(&mut self) {
        match self.rng.gen_range(0..8) {
            0..=2 => {
                self.asm.insn(Opcode::Chmk, &[Lit(0)], None);
            }
            3..=4 => {
                self.asm.insn(Opcode::Chmk, &[Lit(1)], None);
            }
            5 => {
                // User-space queue work.
                let qn = self.d.qnode() - self.d.misc;
                let qh = self.d.qhead() - self.d.misc;
                self.asm.insn(
                    Opcode::Movab,
                    &[Operand::Disp(qn as i32 + 16, Reg::new(10)), R(Reg::new(0))],
                    None,
                );
                self.asm.insn(
                    Opcode::Movab,
                    &[Operand::Disp(qh as i32, Reg::new(10)), R(Reg::new(1))],
                    None,
                );
                // Re-initialize the queue head (self-linked) so the
                // operation is self-contained.
                self.asm.insn(
                    Opcode::Movl,
                    &[R(Reg::new(1)), Operand::Deferred(Reg::new(1))],
                    None,
                );
                self.asm.insn(
                    Opcode::Movl,
                    &[R(Reg::new(1)), Operand::Disp(4, Reg::new(1))],
                    None,
                );
                self.asm.insn(
                    Opcode::Insque,
                    &[
                        Operand::Deferred(Reg::new(0)),
                        Operand::Deferred(Reg::new(1)),
                    ],
                    None,
                );
                self.asm.insn(
                    Opcode::Remque,
                    &[Operand::Deferred(Reg::new(0)), R(Reg::new(1))],
                    None,
                );
            }
            6 => {
                let off = self.aligned_hot_offset() & !3;
                self.asm.insn(
                    Opcode::Prober,
                    &[Lit(0), Lit(4), Operand::Disp(off as i32, Reg::new(6))],
                    None,
                );
            }
            _ => {
                self.asm
                    .insn(Opcode::Mfpr, &[Lit(18), R(Reg::new(1))], None);
            }
        }
    }

    /// Character-string statement. MOVC-class instructions clobber R0–R5,
    /// so the loop counter (R2) is saved around them and the roving pointer
    /// (R4) re-established after.
    fn stmt_char(&mut self) {
        let len = self
            .rng
            .gen_range(self.p.string_len_min..=self.p.string_len_max);
        let sv = (self.d.save_r2() - self.d.misc) as i32;
        self.asm.insn(
            Opcode::Movl,
            &[R(Reg::new(2)), Operand::Disp(sv, Reg::new(10))],
            None,
        );
        let soff = self.rng.gen_range(0..(2048 - 64) / 4) * 4;
        let len_op = if len < 64 { Lit(len as u8) } else { Imm(len) };
        match self.rng.gen_range(0..6) {
            0..=2 => {
                // Copy into the cold walker region, advancing it; the
                // source alternates between warm text and the cold region
                // itself (strings in live systems have poor locality).
                let src = if self.rng.gen_bool(0.5) {
                    Operand::Disp(soff, Reg::new(9))
                } else {
                    Operand::Disp(1024, Reg::new(8))
                };
                self.asm.insn(
                    Opcode::Movc3,
                    &[len_op, src, Operand::Deferred(Reg::new(8))],
                    None,
                );
                self.advance_walker();
            }
            3 => {
                self.asm.insn(
                    Opcode::Cmpc3,
                    &[
                        len_op,
                        Operand::Disp(soff, Reg::new(9)),
                        Operand::Disp((soff + 64) & 0x7fc, Reg::new(9)),
                    ],
                    None,
                );
            }
            4 => {
                // 'q' never occurs in the text: the scan runs full length.
                self.asm.insn(
                    Opcode::Locc,
                    &[Imm(b'q' as u32), len_op, Operand::Disp(soff, Reg::new(9))],
                    None,
                );
            }
            _ => {
                // The first 1 KB of the string area is a run of 'a'.
                self.asm.insn(
                    Opcode::Skpc,
                    &[
                        Imm(b'a' as u32),
                        len_op,
                        Operand::Disp(self.rng.gen_range(0..900), Reg::new(9)),
                    ],
                    None,
                );
            }
        }
        self.asm.insn(
            Opcode::Movl,
            &[Operand::Disp(sv, Reg::new(10)), R(Reg::new(2))],
            None,
        );
        self.reset_roving();
        self.rebind_index();
    }

    fn stmt_decimal(&mut self) {
        let digits = self
            .rng
            .gen_range(self.p.decimal_digits_min..=self.p.decimal_digits_max);
        let d0 = (self.d.decimals() - self.d.misc) as i32;
        let a = Operand::Disp(d0, Reg::new(10));
        let b = Operand::Disp(d0 + 20, Reg::new(10));
        match self.rng.gen_range(0..4) {
            0 => {
                self.asm.insn(
                    Opcode::Addp4,
                    &[Lit(digits as u8), a, Lit(digits as u8), b],
                    None,
                );
            }
            1 => {
                self.asm
                    .insn(Opcode::Cmpp3, &[Lit(digits as u8), a, b], None);
            }
            2 => {
                self.asm
                    .insn(Opcode::Movp, &[Lit(digits as u8), a, b], None);
            }
            _ => {
                self.asm
                    .insn(Opcode::Cvtlp, &[R(Reg::new(1)), Lit(digits as u8), b], None);
            }
        }
    }

    /// Advance the cold walker, wrapping at the region end.
    fn advance_walker(&mut self) {
        let ok = self.lbl();
        self.asm.insn(
            Opcode::Addl2,
            &[Imm(self.p.walk_stride), R(Reg::new(8))],
            None,
        );
        self.asm.insn(
            Opcode::Cmpl,
            &[
                R(Reg::new(8)),
                Operand::Disp((self.d.wlimit() - self.d.misc) as i32, Reg::new(10)),
            ],
            None,
        );
        self.asm.insn(Opcode::Blss, &[], Some(&ok));
        self.asm
            .insn(Opcode::Movl, &[Imm(self.d.wsb), R(Reg::new(8))], None);
        self.asm.label(&ok);
    }

    /// Re-establish the bounded index register (R3 = R5 & 0xFF) after an
    /// instruction that architecturally clobbers R0-R5.
    fn rebind_index(&mut self) {
        self.asm.insn(
            Opcode::Bicl3,
            &[Imm(0xFFFF_FF00), R(Reg::new(5)), R(Reg::new(3))],
            None,
        );
    }

    fn reset_roving(&mut self) {
        let off = self.rng.gen_range(0..self.p.ws_hot_bytes / 8) * 4;
        self.asm.insn(
            Opcode::Movab,
            &[Operand::Disp(off as i32, Reg::new(6)), R(Reg::new(4))],
            None,
        );
    }

    // ---- program structure ----

    fn emit_startup_subs(&mut self) {
        // placeholder: sub0 body is emitted right after startup (see
        // generate()), once the assembler has a position for it.
    }

    fn emit_startup(&mut self) {
        let d = self.d;
        self.asm.label("entry");
        // Base registers.
        for (reg, addr) in [
            (6u8, d.wsa),
            (7, d.ptrs),
            (8, d.wsb),
            (9, d.strs),
            (10, d.misc),
        ] {
            self.asm
                .insn(Opcode::Movl, &[Imm(addr), R(Reg::new(reg))], None);
        }
        self.asm.insn(Opcode::Clrl, &[R(Reg::new(5))], None);
        self.asm.insn(Opcode::Clrl, &[R(Reg::new(3))], None);
        // Call-depth budget slot.
        self.asm.insn(
            Opcode::Movl,
            &[
                Lit(8),
                Operand::Disp((d.save_r2() - d.misc) as i32 + 12, Reg::new(10)),
            ],
            None,
        );
        // Walk limit slot.
        self.asm
            .insn(Opcode::Movl, &[Imm(d.wsb_end), R(Reg::new(0))], None);
        self.asm.insn(
            Opcode::Movl,
            &[
                R(Reg::new(0)),
                Operand::Disp((d.wlimit() - d.misc) as i32, Reg::new(10)),
            ],
            None,
        );
        // Pointer table: slots into the hot set.
        for i in 0..16u32 {
            let off = self.rng.gen_range(0..self.p.ws_hot_bytes / 4 - 4) * 4;
            self.asm.insn(
                Opcode::Movab,
                &[Operand::Disp(off as i32, Reg::new(6)), R(Reg::new(0))],
                None,
            );
            self.asm.insn(
                Opcode::Movl,
                &[R(Reg::new(0)), Operand::Disp(i as i32 * 4, Reg::new(7))],
                None,
            );
        }
        // Hot-set data: ~41% odd values (low-bit branch rates), ~44% bit
        // density (bit-branch rates).
        for k in 0..32u32 {
            let odd = self.rng.gen_range(0..100) < 41;
            let v: u32 = (self.rng.gen::<u32>() & 0x5B5B_5B5A) | u32::from(odd);
            let off = self.rng.gen_range(0..self.p.ws_hot_bytes / 4 - 4) * 4;
            let _ = k;
            self.asm.insn(
                Opcode::Movl,
                &[Imm(v), Operand::Disp(off as i32, Reg::new(6))],
                None,
            );
        }
        // Float constants.
        for k in 0..8u32 {
            let v = (1.25f32 + k as f32 * 0.75).to_bits();
            self.asm.insn(
                Opcode::Movl,
                &[
                    Imm(v),
                    Operand::Disp((d.floats() - d.misc + k * 4) as i32, Reg::new(10)),
                ],
                None,
            );
        }
        // User queue head: self-linked.
        self.asm.insn(
            Opcode::Movab,
            &[
                Operand::Disp((d.qhead() - d.misc) as i32, Reg::new(10)),
                R(Reg::new(0)),
            ],
            None,
        );
        self.asm.insn(
            Opcode::Movl,
            &[R(Reg::new(0)), Operand::Deferred(Reg::new(0))],
            None,
        );
        self.asm.insn(
            Opcode::Movl,
            &[R(Reg::new(0)), Operand::Disp(4, Reg::new(0))],
            None,
        );
        self.reset_roving();
        // Outer loop: call the level-0 routines forever.
        self.asm.label("outer");
        let l0: Vec<String> = self.levels[0].clone();
        for target in &l0 {
            self.asm
                .insn(Opcode::Calls, &[Lit(0), Label(target.clone())], None);
        }
        self.asm.insn(Opcode::Chmk, &[Lit(0)], None);
        self.asm.insn(Opcode::Brw, &[], Some("outer"));
        // sub0 sits just past the outer loop, reachable from early routines.
        let first = self.subs[0].clone();
        self.emit_sub(&first);
    }

    fn emit_routine(&mut self, name: &str, level: usize) {
        self.asm.label(name);
        // Entry mask: save R2-R5 (paper: ~8 registers pushed+popped per
        // CALL/RET pair including the frame words).
        self.asm.word(0b0011_1100);
        self.reset_roving();
        self.rebind_index();
        self.advance_walker();
        let n = self.p.body_statements;
        for _ in 0..n {
            let kind = self.sample_kind();
            self.emit_statement(kind, level);
        }
        self.asm.insn(Opcode::Ret, &[], None);
    }

    fn emit_sub(&mut self, name: &str) {
        self.asm.label(name);
        for _ in 0..self.rng.gen_range(2..5u32) {
            if self.rng.gen_bool(0.6) {
                self.stmt_mov();
            } else {
                self.stmt_arith();
            }
        }
        self.asm.insn(Opcode::Rsb, &[], None);
    }

    fn emit_data(&mut self) {
        let d = self.d;
        // pointer table: zeros (initialized at startup).
        self.asm.block(d.strs - d.ptrs);
        // string area: text-like bytes.
        let mut text = vec![b'a'; 1024];
        let words = [
            "the ", "swift ", "editing ", "of ", "program ", "sources ", "and ", "mail ",
        ];
        while text.len() < 2048 {
            let w = words[self.rng.gen_range(0..words.len())];
            text.extend_from_slice(w.as_bytes());
        }
        text.truncate(2048);
        self.asm.bytes(&text);
        // misc: zeros except packed-decimal constants.
        let mut misc = vec![0u8; (d.wsb - d.misc) as usize];
        // Packed +1234567890123456789012345 at `decimals`, 25 digits.
        let dec_off = (d.decimals() - d.misc) as usize;
        for (i, b) in misc[dec_off..dec_off + 13].iter_mut().enumerate() {
            *b = if i == 12 { 0x5C } else { 0x12 + (i as u8 % 8) };
        }
        let dec2 = dec_off + 20;
        for (i, b) in misc[dec2..dec2 + 13].iter_mut().enumerate() {
            *b = if i == 12 { 0x3C } else { 0x09 + (i as u8 % 9) };
        }
        self.asm.bytes(&misc);
        // wsb: zeros.
        self.asm.block(d.wsb_end - d.wsb);
    }

    fn generate(mut self) -> ProcessSpec {
        // Name routines and assign levels.
        let n = self.p.routines.max(4);
        for i in 0..n {
            let level = (i as usize * 4 / n as usize).min(3);
            let name = format!("r{level}_{i}");
            self.levels[level].push(name);
        }
        // Subroutines are emitted interleaved with the routines so BSBW
        // displacements stay within the word range; seed the first two so
        // early routines have targets.
        self.subs.push("sub0".to_string());
        self.emit_startup_subs();
        self.emit_startup();
        let levels = self.levels.clone();
        let mut flat: Vec<(usize, String)> = Vec::new();
        for (level, names) in levels.iter().enumerate() {
            for name in names {
                flat.push((level, name.clone()));
            }
        }
        for (k, (level, name)) in flat.iter().enumerate() {
            self.emit_routine(name, *level);
            if k % 3 == 2 {
                let sub_name = format!("sub{}", self.subs.len());
                self.subs.push(sub_name.clone());
                self.emit_sub(&sub_name);
            }
        }
        // The data region starts at a fixed address: pad the code up to it.
        self.asm.org(DATA_BASE);
        self.emit_data();
        let image = self.asm.assemble().unwrap_or_else(|e| match e {
            AsmError::OrgBehind { at, .. } => panic!(
                "generated code ({} bytes) overflows the data base",
                at - ORIGIN
            ),
            e => panic!("generated program must assemble: {e}"),
        });
        ProcessSpec::new(image, "entry")
            .with_bss_pages(0)
            .with_stack_pages(STACK_PAGES)
    }
}

/// Generate one user process for a profile. Deterministic per seed.
pub fn generate_process(profile: &WorkloadProfile, seed: u64) -> ProcessSpec {
    Gen::new(profile, seed).generate()
}

/// The shape of every process [`generate_process`] makes for `profile`,
/// whatever the seed: the entry opens the code at [`ORIGIN`], the code is
/// padded to the fixed data base, and the data region's size depends
/// only on the profile.
pub(crate) fn process_shape(profile: &WorkloadProfile) -> ProcessShape {
    ProcessShape {
        origin: ORIGIN,
        len: DataLayout::new(profile).wsb_end - ORIGIN,
        entry: ORIGIN,
        bss_pages: 0,
        stack_pages: STACK_PAGES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    #[test]
    fn generates_valid_program() {
        let p = WorkloadProfile::baseline();
        let spec = generate_process(&p, 42);
        assert!(spec.image.bytes.len() > DATA_BASE as usize - ORIGIN as usize);
        assert!(spec.image.labels.contains_key("entry"));
        assert!(spec.image.labels.contains_key("outer"));
    }

    #[test]
    fn deterministic_per_seed() {
        let p = WorkloadProfile::baseline();
        let a = generate_process(&p, 7);
        let b = generate_process(&p, 7);
        let c = generate_process(&p, 8);
        assert_eq!(a.image.bytes, b.image.bytes);
        assert_ne!(a.image.bytes, c.image.bytes);
    }

    #[test]
    #[should_panic(expected = "overflows the data base")]
    fn code_past_the_data_base_panics() {
        let mut p = WorkloadProfile::baseline();
        p.routines = 200;
        generate_process(&p, 1);
    }

    #[test]
    fn every_generated_process_has_its_profiles_declared_shape() {
        for w in crate::Workload::ALL {
            let p = w.profile();
            for seed in [0, 1, 1984, u64::MAX] {
                assert_eq!(
                    generate_process(&p, seed).shape(),
                    process_shape(&p),
                    "{w:?}/{seed}"
                );
            }
        }
    }

    #[test]
    fn decodes_from_entry() {
        let p = WorkloadProfile::baseline();
        let spec = generate_process(&p, 1);
        let entry = spec.image.addr_of("entry");
        let off = (entry - spec.image.origin) as usize;
        let insn = vax_arch::decode(&spec.image.bytes[off..]).unwrap();
        assert_eq!(insn.opcode, vax_arch::Opcode::Movl);
    }
}
