//! The programmatic assembler.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use vax_arch::encode::encode_specifier;
use vax_arch::{AddressingMode, Opcode, OperandKind, Reg, Specifier};

/// An assembler-level operand: like [`Specifier`] but may reference labels.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Short literal 0–63.
    Lit(u8),
    /// Immediate `#value` (I-stream constant).
    Imm(u32),
    /// Register mode.
    Reg(Reg),
    /// Register deferred `(Rn)`.
    Deferred(Reg),
    /// Autoincrement `(Rn)+`.
    AutoInc(Reg),
    /// Autodecrement `-(Rn)`.
    AutoDec(Reg),
    /// Autoincrement deferred `@(Rn)+`.
    AutoIncDef(Reg),
    /// Displacement `disp(Rn)`.
    Disp(i32, Reg),
    /// Displacement deferred `@disp(Rn)`.
    DispDef(i32, Reg),
    /// Absolute `@#addr`.
    Abs(u32),
    /// PC-relative reference to a label.
    Label(String),
    /// PC-relative *deferred* reference to a label: the longword at the
    /// label holds the operand's address (`@disp(PC)`). This is how the
    /// probe generator reaches mode F/PC without hand-computed
    /// displacements.
    LabelDef(String),
    /// Indexed: base operand plus `[Rx]`.
    Indexed(Box<Operand>, Reg),
}

impl Operand {
    /// The [`Specifier`] this operand encodes as. A label reference gets a
    /// zero displacement, which [`Asm`] patches with the label's address.
    fn specifier(&self) -> Specifier {
        let mode = |mode, reg| Specifier {
            mode,
            reg,
            value: 0,
            index: None,
        };
        match self {
            Operand::Lit(v) => Specifier::literal(*v),
            Operand::Imm(v) => Specifier::immediate(*v),
            Operand::Reg(r) => Specifier::register(*r),
            Operand::Deferred(r) => Specifier::deferred(*r),
            Operand::AutoInc(r) => mode(AddressingMode::Autoincrement, *r),
            Operand::AutoDec(r) => mode(AddressingMode::Autodecrement, *r),
            Operand::AutoIncDef(r) => mode(AddressingMode::AutoincrementDeferred, *r),
            Operand::Disp(d, r) => Specifier::displacement(*d, *r),
            Operand::DispDef(d, r) => {
                let mut s = Specifier::displacement(*d, *r);
                s.mode = match s.mode {
                    AddressingMode::ByteDisp => AddressingMode::ByteDispDeferred,
                    AddressingMode::WordDisp => AddressingMode::WordDispDeferred,
                    _ => AddressingMode::LongDispDeferred,
                };
                s
            }
            Operand::Abs(a) => Specifier::absolute(*a),
            Operand::Label(_) => mode(AddressingMode::PcRelative, Reg::PC),
            Operand::LabelDef(_) => mode(AddressingMode::PcRelativeDeferred, Reg::PC),
            Operand::Indexed(base, ix) => base.specifier().indexed(*ix),
        }
    }

    /// The label a PC-relative operand refers to, if any.
    fn label(&self) -> Option<&str> {
        match self {
            Operand::Label(name) | Operand::LabelDef(name) => Some(name),
            Operand::Indexed(base, _) => base.label(),
            _ => None,
        }
    }
}

/// Assembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A branch displacement did not fit the opcode's width.
    BranchOutOfRange {
        /// The opcode.
        opcode: &'static str,
        /// The displacement that did not fit.
        disp: i64,
    },
    /// Operand count does not match the opcode signature.
    OperandCount {
        /// The opcode.
        opcode: &'static str,
        /// Expected specifier count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// A branch opcode without a target, or a target on a non-branch.
    BranchTarget(&'static str),
    /// [`Asm::org`] asked for an address the image has already passed.
    OrgBehind {
        /// The requested address.
        org: u32,
        /// The address the next item would have been emitted at.
        at: u32,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::BranchOutOfRange { opcode, disp } => {
                write!(f, "{opcode}: branch displacement {disp} out of range")
            }
            AsmError::OperandCount {
                opcode,
                expected,
                got,
            } => write!(f, "{opcode}: expected {expected} operands, got {got}"),
            AsmError::BranchTarget(op) => write!(f, "{op}: branch target mismatch"),
            AsmError::OrgBehind { org, at } => {
                write!(f, "org {org:#x} is behind the current address {at:#x}")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// A displacement field that refers to a label.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// Longword PC-relative: it wraps, so every label is in range.
    Long,
    /// Byte branch displacement; range errors name the `&str`.
    Byte(&'static str),
    /// Word branch or CASE-table displacement; range errors name the `&str`.
    Word(&'static str),
}

impl Field {
    /// Write `target - base` into the field at `at`, or report that the
    /// displacement does not fit.
    fn patch(self, bytes: &mut [u8], at: usize, base: u32, target: u32) -> Result<(), AsmError> {
        let disp = i64::from(target) - i64::from(base);
        let out_of_range = |opcode| AsmError::BranchOutOfRange { opcode, disp };
        match self {
            Field::Long => {
                bytes[at..at + 4].copy_from_slice(&target.wrapping_sub(base).to_le_bytes())
            }
            Field::Byte(what) => {
                bytes[at] = i8::try_from(disp).map_err(|_| out_of_range(what))? as u8;
            }
            Field::Word(what) => {
                let d = i16::try_from(disp).map_err(|_| out_of_range(what))?;
                bytes[at..at + 2].copy_from_slice(&d.to_le_bytes());
            }
        }
        Ok(())
    }
}

/// A reference to a label that was not yet defined when it was emitted.
#[derive(Debug, Clone)]
struct Fixup {
    /// Offset of the displacement field in the output.
    at: u32,
    /// The address the displacement is taken from.
    base: u32,
    field: Field,
    /// The label's index in `Asm::addrs`.
    label: u32,
}

/// An assembled image.
#[derive(Debug, Clone)]
pub struct Image {
    /// Base virtual address.
    pub origin: u32,
    /// The machine code / data bytes.
    pub bytes: Vec<u8>,
    /// Label addresses.
    pub labels: HashMap<String, u32>,
}

impl Image {
    /// Address of a label.
    ///
    /// # Panics
    /// Panics if the label does not exist.
    pub fn addr_of(&self, label: &str) -> u32 {
        *self
            .labels
            .get(label)
            .unwrap_or_else(|| panic!("no such label `{label}`"))
    }

    /// End address (origin + length).
    pub fn end(&self) -> u32 {
        self.origin + self.bytes.len() as u32
    }
}

/// FNV-1a for the label table. Every definition and reference looks a
/// label up; with the default SipHash, generating a workload program took
/// ~10% longer. Label names are short and come from the program's own
/// generators and assembly sources, never from outside input, so no one
/// can pick names that collide.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The one-pass assembler.
///
/// Every item is encoded as it is emitted. No operand's length depends on
/// a label: label operands are always long PC-relative, branch widths are
/// fixed by the opcode, and CASE entries are words. So each item's address
/// is final when it is emitted. A reference to a label already defined is
/// encoded in place; one to a label defined later leaves a zero field and
/// a fixup, which [`Asm::assemble`] patches.
///
/// Errors are held until [`Asm::assemble`], which reports the first one in
/// program order.
#[derive(Debug, Clone)]
pub struct Asm {
    origin: u32,
    bytes: Vec<u8>,
    /// Each label named so far, defined or only referenced, to its index
    /// in `addrs`.
    names: HashMap<String, u32, BuildHasherDefault<Fnv>>,
    /// Label addresses by index; `None` until defined.
    addrs: Vec<Option<u32>>,
    /// Forward references, in program order.
    fixups: Vec<Fixup>,
    /// The first error met while emitting, with the output offset it
    /// was met at.
    error: Option<(u32, AsmError)>,
}

impl Asm {
    /// Start assembling at virtual address `origin`.
    pub fn new(origin: u32) -> Asm {
        Asm {
            origin,
            bytes: Vec::new(),
            names: HashMap::default(),
            addrs: Vec::new(),
            fixups: Vec::new(),
            error: None,
        }
    }

    /// The address the next item is emitted at.
    fn here(&self) -> u32 {
        self.origin + self.bytes.len() as u32
    }

    /// Record `err` unless an earlier one is already held.
    fn fail(&mut self, err: AsmError) {
        if self.error.is_none() {
            self.error = Some((self.bytes.len() as u32, err));
        }
    }

    /// The index of label `name`, adding it undefined if it is new.
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.names.get(name) {
            return id as usize;
        }
        self.names.insert(name.to_string(), self.addrs.len() as u32);
        self.addrs.push(None);
        self.addrs.len() - 1
    }

    /// Fill the `field` at output offset `at` with `label`'s address
    /// relative to `base`, now if the label is defined, else at assembly.
    fn refer(&mut self, label: &str, at: usize, field: Field, base: u32) {
        let id = self.intern(label);
        match self.addrs[id] {
            Some(target) => {
                if let Err(e) = field.patch(&mut self.bytes, at, base, target) {
                    self.fail(e);
                }
            }
            None => self.fixups.push(Fixup {
                at: at as u32,
                base,
                field,
                label: id as u32,
            }),
        }
    }

    /// Define a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let id = self.intern(name);
        if self.addrs[id].is_some() {
            self.fail(AsmError::DuplicateLabel(name.to_string()));
        } else {
            self.addrs[id] = Some(self.here());
        }
        self
    }

    /// Append an instruction. `target` supplies the branch-displacement
    /// label for opcodes that have one.
    pub fn insn(
        &mut self,
        opcode: Opcode,
        operands: &[Operand],
        target: Option<&str>,
    ) -> &mut Self {
        let expected = opcode.specifier_count();
        if operands.len() != expected {
            self.fail(AsmError::OperandCount {
                opcode: opcode.mnemonic(),
                expected,
                got: operands.len(),
            });
            return self;
        }
        if target.is_some() != opcode.has_branch_disp() {
            self.fail(AsmError::BranchTarget(opcode.mnemonic()));
            return self;
        }
        self.bytes.push(opcode.byte());
        let mut operands = operands.iter();
        let mut branch = None;
        for kind in opcode.operands() {
            match *kind {
                OperandKind::Spec(_, dt) => {
                    let op = operands.next().expect("operand count checked above");
                    encode_specifier(&op.specifier(), dt.size(), &mut self.bytes);
                    if let Some(label) = op.label() {
                        // PC-relative: the displacement ends the specifier
                        // and counts from the address just past it.
                        let at = self.bytes.len() - 4;
                        self.refer(label, at, Field::Long, self.here());
                    }
                }
                OperandKind::Branch(w) => {
                    let field = if w.size() == 1 {
                        Field::Byte(opcode.mnemonic())
                    } else {
                        Field::Word(opcode.mnemonic())
                    };
                    branch = Some((self.bytes.len(), field));
                    self.bytes.resize(self.bytes.len() + w.size() as usize, 0);
                }
            }
        }
        if let (Some((at, field)), Some(label)) = (branch, target) {
            // A branch displacement counts from the end of the instruction.
            self.refer(label, at, field, self.here());
        }
        self
    }

    /// Append raw data bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        self.bytes.extend_from_slice(data);
        self
    }

    /// Append a longword constant.
    pub fn long(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Append a word constant.
    pub fn word(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Reserve `n` zero bytes.
    pub fn block(&mut self, n: u32) -> &mut Self {
        self.bytes.resize(self.bytes.len() + n as usize, 0);
        self
    }

    /// Align to a power-of-two boundary.
    pub fn align(&mut self, to: u32) -> &mut Self {
        assert!(to.is_power_of_two());
        let pad = (to - self.here() % to) % to;
        self.block(pad)
    }

    /// Zero-fill up to the absolute address `addr`. An `addr` behind the
    /// current position is an [`AsmError::OrgBehind`].
    pub fn org(&mut self, addr: u32) -> &mut Self {
        let at = self.here();
        if addr < at {
            self.fail(AsmError::OrgBehind { org: addr, at });
            return self;
        }
        self.block(addr - at)
    }

    /// Emit a CASEx displacement table (place immediately after the CASEx
    /// instruction). Each entry is a word displacement from the table start
    /// to the target label.
    pub fn case_table(&mut self, targets: &[&str]) -> &mut Self {
        let base = self.here();
        for name in targets {
            let at = self.bytes.len();
            self.bytes.extend_from_slice(&[0, 0]);
            self.refer(name, at, Field::Word("CASE table"), base);
        }
        self
    }

    /// Patch the forward references and produce the image.
    ///
    /// # Errors
    /// The first [`AsmError`] in program order: undefined/duplicate labels,
    /// operand count mismatches, out-of-range branch displacements, an
    /// `org` behind the current position.
    pub fn assemble(self) -> Result<Image, AsmError> {
        let Asm {
            origin,
            mut bytes,
            names,
            addrs,
            fixups,
            error,
        } = self;
        // Fixups are in program order; an emit-time error at the same
        // offset came first (a label or `org` just before a CASE table).
        let before = error.as_ref().map_or(u32::MAX, |(at, _)| *at);
        for f in fixups.iter().take_while(|f| f.at < before) {
            let Some(target) = addrs[f.label as usize] else {
                let (name, _) = names
                    .into_iter()
                    .find(|&(_, id)| id == f.label)
                    .expect("every fixup's label was interned");
                return Err(AsmError::UndefinedLabel(name));
            };
            f.field.patch(&mut bytes, f.at as usize, f.base, target)?;
        }
        if let Some((_, e)) = error {
            return Err(e);
        }
        let mut labels = HashMap::with_capacity(names.len());
        labels.extend(
            names
                .into_iter()
                .filter_map(|(name, id)| Some((name, addrs[id as usize]?))),
        );
        Ok(Image {
            origin,
            bytes,
            labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::decode;

    #[test]
    fn simple_program() {
        let mut asm = Asm::new(0x1000);
        asm.insn(
            Opcode::Movl,
            &[Operand::Imm(10), Operand::Reg(Reg::new(2))],
            None,
        );
        asm.label("loop");
        asm.insn(
            Opcode::Addl2,
            &[Operand::Lit(1), Operand::Reg(Reg::new(3))],
            None,
        );
        asm.insn(Opcode::Sobgtr, &[Operand::Reg(Reg::new(2))], Some("loop"));
        let img = asm.assemble().unwrap();
        assert_eq!(img.addr_of("loop"), 0x1000 + 7);
        // First instruction decodes back.
        let insn = decode(&img.bytes).unwrap();
        assert_eq!(insn.opcode, Opcode::Movl);
        // The SOB branch displacement points back at `loop`.
        let sob_off = 7 + 3;
        let sob = decode(&img.bytes[sob_off..]).unwrap();
        assert_eq!(sob.opcode, Opcode::Sobgtr);
        let sob_addr = 0x1000 + sob_off as u32;
        let target = (sob_addr + sob.len).wrapping_add(sob.branch_disp.unwrap() as u32);
        assert_eq!(target, img.addr_of("loop"));
    }

    #[test]
    fn forward_label_pc_relative() {
        let mut asm = Asm::new(0x2000);
        asm.insn(
            Opcode::Movl,
            &[Operand::Label("data".into()), Operand::Reg(Reg::new(1))],
            None,
        );
        asm.insn(Opcode::Halt, &[], None);
        asm.label("data");
        asm.long(0xDEADBEEF);
        let img = asm.assemble().unwrap();
        let insn = decode(&img.bytes).unwrap();
        // PC after first specifier = origin + 1 + 5; value + that = data.
        let pc_after: u32 = 0x2000 + 6;
        assert_eq!(
            pc_after.wrapping_add(insn.specifiers[0].value as u32),
            img.addr_of("data")
        );
    }

    #[test]
    fn alignment_and_blocks() {
        let mut asm = Asm::new(0x100);
        asm.bytes(&[1, 2, 3]);
        asm.align(4);
        asm.label("here");
        asm.block(8);
        let img = asm.assemble().unwrap();
        assert_eq!(img.addr_of("here"), 0x104);
        assert_eq!(img.bytes.len(), 12);
    }

    #[test]
    fn errors() {
        let mut asm = Asm::new(0);
        asm.insn(Opcode::Brb, &[], Some("nowhere"));
        assert_eq!(
            asm.assemble().unwrap_err(),
            AsmError::UndefinedLabel("nowhere".into())
        );

        let mut asm2 = Asm::new(0);
        asm2.label("x").label("x");
        assert!(matches!(asm2.assemble(), Err(AsmError::DuplicateLabel(_))));

        let mut asm3 = Asm::new(0);
        asm3.insn(Opcode::Movl, &[Operand::Lit(1)], None);
        assert!(matches!(
            asm3.assemble(),
            Err(AsmError::OperandCount { .. })
        ));

        let mut asm4 = Asm::new(0);
        asm4.label("far");
        asm4.block(300);
        asm4.insn(Opcode::Brb, &[], Some("far"));
        assert!(matches!(
            asm4.assemble(),
            Err(AsmError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn indexed_operand() {
        let mut asm = Asm::new(0);
        asm.insn(
            Opcode::Movl,
            &[
                Operand::Indexed(Box::new(Operand::Deferred(Reg::new(1))), Reg::new(4)),
                Operand::Reg(Reg::new(0)),
            ],
            None,
        );
        let img = asm.assemble().unwrap();
        assert_eq!(img.bytes, vec![0xD0, 0x44, 0x61, 0x50]);
    }
}
