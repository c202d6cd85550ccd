//! Instruction encoder: turns [`Instruction`]s into VAX machine code bytes.

use crate::datatype::{BranchWidth, OperandKind};
use crate::insn::Instruction;
use crate::mode::AddressingMode;
use crate::specifier::Specifier;

/// Encode one instruction, appending to `out`. Returns the number of bytes
/// emitted (always equal to `insn.len`).
///
/// # Panics
/// Panics if a specifier's `value` does not fit its mode's extension width
/// (e.g. a byte displacement outside −128..=127); construct specifiers with
/// [`Specifier::displacement`] to get automatic width selection.
pub fn encode_into(insn: &Instruction, out: &mut Vec<u8>) -> u32 {
    let start = out.len();
    out.push(insn.opcode.byte());
    let mut spec_i = 0;
    for op in insn.opcode.operands() {
        match op {
            OperandKind::Spec(_, dt) => {
                encode_specifier(&insn.specifiers[spec_i], dt.size(), out);
                spec_i += 1;
            }
            OperandKind::Branch(BranchWidth::Byte) => {
                let disp = insn.branch_disp.expect("missing branch displacement");
                assert!(
                    (-128..=127).contains(&disp),
                    "byte branch displacement {disp} out of range"
                );
                out.push(disp as i8 as u8);
            }
            OperandKind::Branch(BranchWidth::Word) => {
                let disp = insn.branch_disp.expect("missing branch displacement");
                assert!(
                    (-32768..=32767).contains(&disp),
                    "word branch displacement {disp} out of range"
                );
                out.extend_from_slice(&(disp as i16).to_le_bytes());
            }
        }
    }
    let emitted = (out.len() - start) as u32;
    debug_assert_eq!(emitted, insn.len, "encoded length mismatch for {insn}");
    emitted
}

/// Encode one instruction into a fresh byte vector.
///
/// ```
/// use vax_arch::{encode, Instruction, Opcode, Specifier, Reg};
/// let insn = Instruction::new(
///     Opcode::Movl,
///     vec![Specifier::register(Reg::new(1)), Specifier::register(Reg::new(2))],
///     None,
/// );
/// assert_eq!(encode(&insn), vec![0xD0, 0x51, 0x52]);
/// ```
pub fn encode(insn: &Instruction) -> Vec<u8> {
    let mut out = Vec::with_capacity(insn.len as usize);
    encode_into(insn, &mut out);
    out
}

/// Encode one operand specifier for an operand of `operand_size` bytes,
/// appending to `out`: the index prefix, the mode byte, then the extension.
///
/// # Panics
/// As [`encode_into`], if `value` does not fit the mode's extension width.
pub fn encode_specifier(spec: &Specifier, operand_size: u32, out: &mut Vec<u8>) {
    use AddressingMode::*;
    if let Some(ix) = spec.index {
        out.push(0x40 | ix.number());
    }
    let reg = spec.reg.number();
    match spec.mode {
        Literal => {
            assert!(spec.index.is_none(), "literal cannot be indexed");
            assert!((0..64).contains(&spec.value), "literal out of range");
            out.push(spec.value as u8);
        }
        Register => out.push(0x50 | reg),
        RegisterDeferred => out.push(0x60 | reg),
        Autodecrement => out.push(0x70 | reg),
        Autoincrement => out.push(0x80 | reg),
        AutoincrementDeferred => out.push(0x90 | reg),
        ByteDisp | ByteDispDeferred => {
            let base = if spec.mode == ByteDisp { 0xA0 } else { 0xB0 };
            let disp = i8::try_from(spec.value).expect("byte displacement out of range");
            out.push(base | reg);
            out.push(disp as u8);
        }
        WordDisp | WordDispDeferred => {
            let base = if spec.mode == WordDisp { 0xC0 } else { 0xD0 };
            let disp = i16::try_from(spec.value).expect("word displacement out of range");
            out.push(base | reg);
            out.extend_from_slice(&disp.to_le_bytes());
        }
        LongDisp | LongDispDeferred => {
            let base = if spec.mode == LongDisp { 0xE0 } else { 0xF0 };
            let disp = i32::try_from(spec.value).expect("long displacement out of range");
            out.push(base | reg);
            out.extend_from_slice(&disp.to_le_bytes());
        }
        Immediate => {
            assert!(spec.index.is_none(), "immediate cannot be indexed");
            out.push(0x8F);
            let bytes = (spec.value as u64).to_le_bytes();
            out.extend_from_slice(&bytes[..operand_size as usize]);
        }
        Absolute => {
            out.push(0x9F);
            out.extend_from_slice(&(spec.value as u32).to_le_bytes());
        }
        PcRelative => {
            // Canonically encode as longword-displacement PC mode.
            out.push(0xEF);
            let disp = i32::try_from(spec.value).expect("pc-relative displacement out of range");
            out.extend_from_slice(&disp.to_le_bytes());
        }
        PcRelativeDeferred => {
            out.push(0xFF);
            let disp = i32::try_from(spec.value).expect("pc-relative displacement out of range");
            out.extend_from_slice(&disp.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;
    use crate::regs::Reg;

    #[test]
    fn movl_register_register() {
        let insn = Instruction::new(
            Opcode::Movl,
            vec![
                Specifier::register(Reg::new(1)),
                Specifier::register(Reg::new(2)),
            ],
            None,
        );
        assert_eq!(encode(&insn), vec![0xD0, 0x51, 0x52]);
    }

    #[test]
    fn movl_displacement() {
        let insn = Instruction::new(
            Opcode::Movl,
            vec![
                Specifier::displacement(8, Reg::new(2)),
                Specifier::register(Reg::new(3)),
            ],
            None,
        );
        assert_eq!(encode(&insn), vec![0xD0, 0xA2, 0x08, 0x53]);
    }

    #[test]
    fn negative_byte_displacement() {
        let insn = Instruction::new(
            Opcode::Movl,
            vec![
                Specifier::displacement(-4, Reg::FP),
                Specifier::register(Reg::new(0)),
            ],
            None,
        );
        assert_eq!(encode(&insn), vec![0xD0, 0xAD, 0xFC, 0x50]);
    }

    #[test]
    fn branch_byte() {
        let insn = Instruction::new(Opcode::Bneq, vec![], Some(-6));
        assert_eq!(encode(&insn), vec![0x12, 0xFA]);
    }

    #[test]
    fn branch_word() {
        let insn = Instruction::new(Opcode::Brw, vec![], Some(0x1234));
        assert_eq!(encode(&insn), vec![0x31, 0x34, 0x12]);
    }

    #[test]
    fn immediate_longword() {
        let insn = Instruction::new(
            Opcode::Movl,
            vec![
                Specifier::immediate(0xDEADBEEF),
                Specifier::register(Reg::new(5)),
            ],
            None,
        );
        assert_eq!(
            encode(&insn),
            vec![0xD0, 0x8F, 0xEF, 0xBE, 0xAD, 0xDE, 0x55]
        );
    }

    #[test]
    fn indexed_specifier() {
        let insn = Instruction::new(
            Opcode::Movl,
            vec![
                Specifier::deferred(Reg::new(1)).indexed(Reg::new(4)),
                Specifier::register(Reg::new(0)),
            ],
            None,
        );
        assert_eq!(encode(&insn), vec![0xD0, 0x44, 0x61, 0x50]);
    }

    #[test]
    fn short_literal() {
        let insn = Instruction::new(
            Opcode::Movl,
            vec![Specifier::literal(5), Specifier::register(Reg::new(0))],
            None,
        );
        assert_eq!(encode(&insn), vec![0xD0, 0x05, 0x50]);
    }
}
