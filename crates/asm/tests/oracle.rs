//! An oracle for the assembler that shares none of its code.
//!
//! Seeded random programs mix forward and backward label references of
//! every kind the builder emits. Each assembled image is walked from its
//! origin with `vax_arch::decode`, item by item, so every address comes
//! from decoded lengths alone. Every label must sit where the walk puts
//! it, and every PC-relative operand, branch displacement and CASE entry
//! must reach its label's address. Each `AsmError` is checked on its
//! range boundary, and a program with several errors reports the first.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vax_arch::{decode, AccessType, AddressingMode, Opcode, OperandKind, Reg};
use vax_asm::{Asm, AsmError, Image, Operand};

const ORIGIN: u32 = 0x1000;
/// Segment `k` of a random program starts `org`ed at `ORIGIN + k * SEGMENT`.
/// A segment holds at most 30 items of at most ~50 bytes, so it always
/// ends below the next one, and a whole program (at most 6 segments)
/// stays inside a word branch's reach.
const SEGMENT: u32 = 0x1000;

#[derive(Debug, Clone)]
enum Item {
    Label(String),
    Insn(Opcode, Vec<Operand>, Option<String>),
    Bytes(Vec<u8>),
    Block(u32),
    Align(u32),
    Org(u32),
    Case(Vec<String>),
}

fn assemble(items: &[Item]) -> Result<Image, AsmError> {
    let mut asm = Asm::new(ORIGIN);
    for item in items {
        match item {
            Item::Label(name) => asm.label(name),
            Item::Insn(op, operands, target) => asm.insn(*op, operands, target.as_deref()),
            Item::Bytes(b) => asm.bytes(b),
            Item::Block(n) => asm.block(*n),
            Item::Align(to) => asm.align(*to),
            Item::Org(addr) => asm.org(*addr),
            Item::Case(targets) => {
                let targets: Vec<&str> = targets.iter().map(String::as_str).collect();
                asm.case_table(&targets)
            }
        };
    }
    asm.assemble()
}

// ---- random programs ----

struct Gen {
    rng: StdRng,
    globals: Vec<String>,
    locals: usize,
    items: Vec<Item>,
}

impl Gen {
    fn global(&mut self) -> String {
        self.globals[self.rng.gen_range(0..self.globals.len())].clone()
    }

    fn reg(&mut self) -> Reg {
        Reg::new(self.rng.gen_range(0..12))
    }

    fn disp(&mut self) -> i32 {
        match self.rng.gen_range(0..4) {
            0 => self.rng.gen_range(-128..128),
            1 => [-129, -128, 127, 128, -32769, -32768, 32767, 32768][self.rng.gen_range(0..8)],
            2 => self.rng.gen_range(-32768..32768),
            _ => self.rng.gen(),
        }
    }

    fn label_operand(&mut self) -> Operand {
        let name = self.global();
        if self.rng.gen_bool(0.5) {
            Operand::Label(name)
        } else {
            Operand::LabelDef(name)
        }
    }

    /// A random operand; literals and immediates only where `read`.
    fn operand(&mut self, read: bool) -> Operand {
        let r = self.reg();
        match self.rng.gen_range(0..15) {
            0 if read => Operand::Lit(self.rng.gen_range(0..64)),
            1 if read => Operand::Imm(self.rng.gen()),
            2 => Operand::Reg(r),
            3 => Operand::Deferred(r),
            4 => Operand::AutoInc(r),
            5 => Operand::AutoDec(r),
            6 => Operand::AutoIncDef(r),
            7 => Operand::Disp(self.disp(), r),
            8 => Operand::DispDef(self.disp(), r),
            9 => Operand::Abs(self.rng.gen()),
            10 | 11 => self.label_operand(),
            12 => {
                let base = self.label_operand();
                Operand::Indexed(Box::new(base), self.reg())
            }
            13 => Operand::Indexed(Box::new(Operand::Disp(self.disp(), r)), self.reg()),
            _ => Operand::Indexed(Box::new(Operand::Deferred(r)), self.reg()),
        }
    }

    fn operands(&mut self, op: Opcode) -> Vec<Operand> {
        op.operands()
            .iter()
            .filter_map(|k| match k {
                OperandKind::Spec(access, _) => Some(self.operand(*access == AccessType::Read)),
                OperandKind::Branch(_) => None,
            })
            .collect()
    }

    fn data_insn(&mut self) {
        const OPS: [Opcode; 9] = [
            Opcode::Movl,
            Opcode::Movb,
            Opcode::Movw,
            Opcode::Movq,
            Opcode::Moval,
            Opcode::Addl3,
            Opcode::Pushl,
            Opcode::Clrl,
            Opcode::Cmpl,
        ];
        let op = OPS[self.rng.gen_range(0..OPS.len())];
        let operands = self.operands(op);
        self.items.push(Item::Insn(op, operands, None));
    }

    /// A word branch, or a JMP/JSB through a label operand, to a global.
    fn far_branch(&mut self) {
        const OPS: [Opcode; 5] = [
            Opcode::Brw,
            Opcode::Bsbw,
            Opcode::Acbl,
            Opcode::Jmp,
            Opcode::Jsb,
        ];
        let op = OPS[self.rng.gen_range(0..OPS.len())];
        let item = if op.has_branch_disp() {
            let operands = self.operands(op);
            Item::Insn(op, operands, Some(self.global()))
        } else {
            Item::Insn(op, vec![Operand::Label(self.global())], None)
        };
        self.items.push(item);
    }

    /// A byte branch over at most four short instructions to a label
    /// defined just before or just after it.
    fn near_branch(&mut self) {
        const OPS: [Opcode; 6] = [
            Opcode::Brb,
            Opcode::Bneq,
            Opcode::Beql,
            Opcode::Blbs,
            Opcode::Sobgtr,
            Opcode::Bbs,
        ];
        self.locals += 1;
        let name = format!("l{}", self.locals);
        let op = OPS[self.rng.gen_range(0..OPS.len())];
        let operands = (0..op.specifier_count())
            .map(|_| Operand::Reg(self.reg()))
            .collect();
        let branch = Item::Insn(op, operands, Some(name.clone()));
        let body: Vec<Item> = (0..self.rng.gen_range(0..5))
            .map(|_| {
                let src = if self.rng.gen_bool(0.5) {
                    Operand::Imm(self.rng.gen())
                } else {
                    Operand::Reg(self.reg())
                };
                Item::Insn(Opcode::Movl, vec![src, Operand::Reg(self.reg())], None)
            })
            .collect();
        if self.rng.gen_bool(0.5) {
            self.items.push(Item::Label(name));
            self.items.extend(body);
            self.items.push(branch);
        } else {
            self.items.push(branch);
            self.items.extend(body);
            self.items.push(Item::Label(name));
        }
    }

    fn case(&mut self) {
        let n = self.rng.gen_range(1..8);
        let selector = Operand::Reg(self.reg());
        self.items.push(Item::Insn(
            Opcode::Casel,
            vec![selector, Operand::Lit(0), Operand::Lit(n - 1)],
            None,
        ));
        let targets = (0..n).map(|_| self.global()).collect();
        self.items.push(Item::Case(targets));
    }
}

fn random_program(seed: u64) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(seed);
    let globals = (0..rng.gen_range(3..16)).map(|i| format!("g{i}")).collect();
    let mut g = Gen {
        rng,
        globals,
        locals: 0,
        items: Vec::new(),
    };
    for segment in 0..g.rng.gen_range(1..7) {
        if segment > 0 {
            g.items.push(Item::Org(ORIGIN + segment * SEGMENT));
        }
        for _ in 0..g.rng.gen_range(1..30) {
            match g.rng.gen_range(0..12) {
                0..=3 => g.data_insn(),
                4 | 5 => g.far_branch(),
                6 | 7 => g.near_branch(),
                8 => g.case(),
                9 => g.items.push(Item::Align(1 << g.rng.gen_range(0..5))),
                10 => g.items.push(Item::Block(g.rng.gen_range(0..24))),
                _ => {
                    let data = (0..g.rng.gen_range(0..9)).map(|_| g.rng.gen()).collect();
                    g.items.push(Item::Bytes(data));
                }
            }
        }
    }
    // Define each global once, anywhere: references land on both sides.
    for name in std::mem::take(&mut g.globals) {
        let at = g.rng.gen_range(0..=g.items.len());
        g.items.insert(at, Item::Label(name));
    }
    g.items
}

// ---- the oracle walk ----

/// Where a label reference points, as read back from the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RefKind {
    PcRel,
    PcRelDeferred,
    Indexed,
    ByteBranch,
    WordBranch,
    CaseEntry,
}

struct Ref {
    kind: RefKind,
    label: String,
    /// Address of the referring field.
    at: u32,
    /// The address the image's bytes point at.
    target: u32,
}

/// The decoded specifier a non-label operand must encode as: mode, base
/// register (for register modes), value.
fn expected_spec(op: &Operand, size: u32) -> (AddressingMode, Option<Reg>, i64) {
    let width = |d: i32, byte, word, long| {
        if i8::try_from(d).is_ok() {
            byte
        } else if i16::try_from(d).is_ok() {
            word
        } else {
            long
        }
    };
    use AddressingMode as M;
    match *op {
        Operand::Lit(v) => (M::Literal, None, i64::from(v)),
        Operand::Imm(v) => {
            let mask = if size >= 8 {
                u64::MAX
            } else {
                (1u64 << (8 * size)) - 1
            };
            (M::Immediate, None, (u64::from(v) & mask) as i64)
        }
        Operand::Reg(r) => (M::Register, Some(r), 0),
        Operand::Deferred(r) => (M::RegisterDeferred, Some(r), 0),
        Operand::AutoInc(r) => (M::Autoincrement, Some(r), 0),
        Operand::AutoDec(r) => (M::Autodecrement, Some(r), 0),
        Operand::AutoIncDef(r) => (M::AutoincrementDeferred, Some(r), 0),
        Operand::Disp(d, r) => (
            width(d, M::ByteDisp, M::WordDisp, M::LongDisp),
            Some(r),
            d.into(),
        ),
        Operand::DispDef(d, r) => (
            width(
                d,
                M::ByteDispDeferred,
                M::WordDispDeferred,
                M::LongDispDeferred,
            ),
            Some(r),
            d.into(),
        ),
        Operand::Abs(a) => (M::Absolute, None, a.into()),
        ref other => panic!("label operands are checked by target, not {other:?}"),
    }
}

/// Walk `items` over `image`, checking every byte the walk can predict,
/// and return the label addresses it found and every reference's target.
fn walk(items: &[Item], image: &Image) -> (HashMap<String, u32>, Vec<Ref>) {
    let at = |pc: u32| &image.bytes[(pc - image.origin) as usize..];
    let mut pc = image.origin;
    let mut labels = HashMap::new();
    let mut refs = Vec::new();
    let zeros = |pc: u32, n: u32| assert!(at(pc)[..n as usize].iter().all(|&b| b == 0));
    for item in items {
        match item {
            Item::Label(name) => assert!(labels.insert(name.clone(), pc).is_none()),
            Item::Insn(op, operands, target) => {
                let insn = decode(at(pc)).unwrap_or_else(|e| panic!("{pc:#x}: {e}"));
                assert_eq!(insn.opcode, *op, "{pc:#x}");
                let mut spec_at = pc + 1;
                let mut specs = insn.specifiers.iter().zip(operands);
                for kind in op.operands() {
                    let OperandKind::Spec(_, dt) = kind else {
                        continue;
                    };
                    let (spec, operand) = specs.next().expect("decoded one specifier per operand");
                    let (base, index) = match operand {
                        Operand::Indexed(base, ix) => (&**base, Some(*ix)),
                        other => (other, None),
                    };
                    assert_eq!(spec.index, index, "{pc:#x}");
                    let len = spec.encoded_len(dt.size());
                    let end = spec_at + len;
                    match base {
                        Operand::Label(name) | Operand::LabelDef(name) => {
                            // Always the long form: 0xEF / 0xFF then a longword.
                            let mode_byte = at(end - 5)[0];
                            let (mode, kind, byte) = if matches!(base, Operand::Label(_)) {
                                (AddressingMode::PcRelative, RefKind::PcRel, 0xEF)
                            } else {
                                (
                                    AddressingMode::PcRelativeDeferred,
                                    RefKind::PcRelDeferred,
                                    0xFF,
                                )
                            };
                            assert_eq!((spec.mode, mode_byte), (mode, byte), "{pc:#x}");
                            refs.push(Ref {
                                kind: if index.is_some() {
                                    RefKind::Indexed
                                } else {
                                    kind
                                },
                                label: name.clone(),
                                at: end - 4,
                                target: end.wrapping_add(spec.value as u32),
                            });
                        }
                        other => {
                            let (mode, reg, value) = expected_spec(other, dt.size());
                            assert_eq!((spec.mode, spec.value), (mode, value), "{pc:#x} {other:?}");
                            if let Some(reg) = reg {
                                assert_eq!(spec.reg, reg, "{pc:#x}");
                            }
                        }
                    }
                    spec_at = end;
                }
                let end = pc + insn.len;
                match (target, insn.branch_disp) {
                    (Some(name), Some(disp)) => {
                        let width = end - spec_at;
                        refs.push(Ref {
                            kind: if width == 1 {
                                RefKind::ByteBranch
                            } else {
                                RefKind::WordBranch
                            },
                            label: name.clone(),
                            at: spec_at,
                            target: end.wrapping_add(disp as u32),
                        });
                    }
                    (None, None) => assert_eq!(spec_at, end, "{pc:#x}"),
                    other => panic!("{pc:#x}: branch target/displacement mismatch {other:?}"),
                }
                pc = end;
            }
            Item::Bytes(b) => {
                assert_eq!(&at(pc)[..b.len()], &b[..]);
                pc += b.len() as u32;
            }
            Item::Block(n) => {
                zeros(pc, *n);
                pc += n;
            }
            Item::Align(to) => {
                let next = pc.next_multiple_of(*to);
                zeros(pc, next - pc);
                pc = next;
            }
            Item::Org(addr) => {
                zeros(pc, addr - pc);
                pc = *addr;
            }
            Item::Case(targets) => {
                let table = pc;
                for name in targets {
                    let d = i16::from_le_bytes([at(pc)[0], at(pc)[1]]);
                    refs.push(Ref {
                        kind: RefKind::CaseEntry,
                        label: name.clone(),
                        at: pc,
                        target: table.wrapping_add(d as u32),
                    });
                    pc += 2;
                }
            }
        }
    }
    assert_eq!(pc, image.end(), "the walk must end where the image does");
    (labels, refs)
}

#[test]
fn random_programs_reach_every_label_they_reference() {
    let mut seen: HashMap<(RefKind, bool), usize> = HashMap::new();
    for seed in 0..300 {
        let items = random_program(seed);
        let image = assemble(&items).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let (labels, refs) = walk(&items, &image);
        assert_eq!(image.labels, labels, "seed {seed}");
        for r in refs {
            assert_eq!(
                r.target, labels[&r.label],
                "seed {seed}: {:?} at {:#x} to `{}`",
                r.kind, r.at, r.label
            );
            *seen.entry((r.kind, r.target > r.at)).or_default() += 1;
        }
    }
    // The corpus must exercise each kind of reference in both directions.
    for kind in [
        RefKind::PcRel,
        RefKind::PcRelDeferred,
        RefKind::Indexed,
        RefKind::ByteBranch,
        RefKind::WordBranch,
        RefKind::CaseEntry,
    ] {
        for forward in [false, true] {
            assert!(
                seen.get(&(kind, forward)).is_some_and(|&n| n > 0),
                "no {} {kind:?} reference in the corpus",
                if forward { "forward" } else { "backward" }
            );
        }
    }
}

// ---- errors on their boundaries ----

/// `op` branching forward over `gap` bytes, or back over the branch and
/// `gap` bytes before it.
fn branch(op: Opcode, gap: u32, forward: bool) -> Result<Image, AsmError> {
    let jump = Item::Insn(op, vec![], Some("t".into()));
    let items = if forward {
        vec![jump, Item::Block(gap), Item::Label("t".into())]
    } else {
        vec![Item::Label("t".into()), Item::Block(gap), jump]
    };
    assemble(&items)
}

fn out_of_range(opcode: &'static str, disp: i64) -> Result<Image, AsmError> {
    Err(AsmError::BranchOutOfRange { opcode, disp })
}

fn disp_of(image: Result<Image, AsmError>, at: usize) -> i32 {
    decode(&image.expect("in range").bytes[at..])
        .unwrap()
        .branch_disp
        .unwrap()
}

#[test]
fn byte_branches_reach_127_forward_and_128_back() {
    assert_eq!(disp_of(branch(Opcode::Brb, 127, true), 0), 127);
    assert_eq!(
        branch(Opcode::Brb, 128, true).unwrap_err(),
        out_of_range("BRB", 128).unwrap_err()
    );
    // Back over the two-byte branch itself.
    assert_eq!(disp_of(branch(Opcode::Brb, 126, false), 126), -128);
    assert_eq!(
        branch(Opcode::Brb, 127, false).unwrap_err(),
        out_of_range("BRB", -129).unwrap_err()
    );
}

#[test]
fn word_branches_reach_32767_forward_and_32768_back() {
    assert_eq!(disp_of(branch(Opcode::Brw, 32767, true), 0), 32767);
    assert_eq!(
        branch(Opcode::Brw, 32768, true).unwrap_err(),
        out_of_range("BRW", 32768).unwrap_err()
    );
    assert_eq!(disp_of(branch(Opcode::Brw, 32765, false), 32765), -32768);
    assert_eq!(
        branch(Opcode::Brw, 32766, false).unwrap_err(),
        out_of_range("BRW", -32769).unwrap_err()
    );
}

#[test]
fn case_entries_reach_a_word_from_the_table_start() {
    let entry = |items: &[Item], at: usize| {
        let image = assemble(items).expect("in range");
        i16::from_le_bytes([image.bytes[at], image.bytes[at + 1]])
    };
    let table = || Item::Case(vec!["t".into()]);
    let t = || Item::Label("t".into());
    // Forward: the entry counts from the table start, not from itself.
    assert_eq!(entry(&[table(), Item::Block(32765), t()], 0), 32767);
    assert_eq!(
        assemble(&[table(), Item::Block(32766), t()]).unwrap_err(),
        out_of_range("CASE table", 32768).unwrap_err()
    );
    assert_eq!(entry(&[t(), Item::Block(32768), table()], 32768), -32768);
    assert_eq!(
        assemble(&[t(), Item::Block(32769), table()]).unwrap_err(),
        out_of_range("CASE table", -32769).unwrap_err()
    );
}

#[test]
fn undefined_and_duplicate_labels() {
    let undefined = |item: Item| assemble(&[item]).unwrap_err();
    let missing = AsmError::UndefinedLabel("nowhere".into());
    let label = Operand::Label("nowhere".into());
    assert_eq!(
        undefined(Item::Insn(Opcode::Jmp, vec![label.clone()], None)),
        missing
    );
    assert_eq!(
        undefined(Item::Insn(
            Opcode::Movl,
            vec![
                Operand::Indexed(Box::new(Operand::LabelDef("nowhere".into())), Reg::new(3)),
                Operand::Reg(Reg::new(0)),
            ],
            None
        )),
        missing
    );
    assert_eq!(
        undefined(Item::Insn(Opcode::Brw, vec![], Some("nowhere".into()))),
        missing
    );
    assert_eq!(undefined(Item::Case(vec!["nowhere".into()])), missing);
    // Defined after its use, it resolves.
    assemble(&[
        Item::Insn(Opcode::Jmp, vec![label], None),
        Item::Label("nowhere".into()),
    ])
    .expect("a forward reference resolves");

    let twice = [
        Item::Label("x".into()),
        Item::Block(4),
        Item::Label("x".into()),
    ];
    assert_eq!(
        assemble(&twice).unwrap_err(),
        AsmError::DuplicateLabel("x".into())
    );
}

#[test]
fn org_moves_forward_only() {
    let image = assemble(&[
        Item::Block(3),
        Item::Org(ORIGIN + 8),
        Item::Label("here".into()),
    ])
    .expect("forward org");
    assert_eq!(image.bytes, vec![0; 8]);
    assert_eq!(image.addr_of("here"), ORIGIN + 8);
    assemble(&[Item::Block(8), Item::Org(ORIGIN + 8)]).expect("org to the current address");
    assert_eq!(
        assemble(&[Item::Block(9), Item::Org(ORIGIN + 8)]).unwrap_err(),
        AsmError::OrgBehind {
            org: ORIGIN + 8,
            at: ORIGIN + 9
        }
    );
}

#[test]
fn several_errors_report_the_first_in_program_order() {
    let undefined = || Item::Insn(Opcode::Brb, vec![], Some("nowhere".into()));
    let dup = || [Item::Label("x".into()), Item::Label("x".into())];
    let behind = || Item::Org(ORIGIN);
    let count = || Item::Insn(Opcode::Movl, vec![Operand::Lit(1)], None);
    let far = || {
        [
            Item::Label("far".into()),
            Item::Block(300),
            Item::Insn(Opcode::Brb, vec![], Some("far".into())),
        ]
    };

    let cases: Vec<(Vec<Item>, AsmError)> = vec![
        (
            [vec![undefined()], dup().to_vec()].concat(),
            AsmError::UndefinedLabel("nowhere".into()),
        ),
        (
            [dup().to_vec(), vec![undefined()]].concat(),
            AsmError::DuplicateLabel("x".into()),
        ),
        (
            vec![Item::Block(4), behind(), undefined()],
            AsmError::OrgBehind {
                org: ORIGIN,
                at: ORIGIN + 4,
            },
        ),
        (
            vec![undefined(), Item::Block(4), behind()],
            AsmError::UndefinedLabel("nowhere".into()),
        ),
        (
            vec![count(), undefined()],
            AsmError::OperandCount {
                opcode: "MOVL",
                expected: 2,
                got: 1,
            },
        ),
        (
            [far().to_vec(), vec![count()]].concat(),
            AsmError::BranchOutOfRange {
                opcode: "BRB",
                disp: -302,
            },
        ),
        (
            [vec![undefined()], far().to_vec()].concat(),
            AsmError::UndefinedLabel("nowhere".into()),
        ),
        // A label defined just before a CASE table comes first, though
        // both sit at the same address.
        (
            [dup().to_vec(), vec![Item::Case(vec!["nowhere".into()])]].concat(),
            AsmError::DuplicateLabel("x".into()),
        ),
    ];
    for (items, first) in cases {
        assert_eq!(assemble(&items).unwrap_err(), first, "{items:?}");
    }
}
