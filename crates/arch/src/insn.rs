//! Decoded instruction representation.

use crate::datatype::OperandKind;
use crate::opcode::Opcode;
use crate::speclist::SpecList;
use std::fmt;

/// A fully decoded VAX instruction.
///
/// Specifiers live inline ([`SpecList`]), so an `Instruction` is `Copy`:
/// decoding allocates nothing and a cached decode can be handed out by
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// The opcode.
    pub opcode: Opcode,
    /// Decoded operand specifiers (branch displacements excluded).
    pub specifiers: SpecList,
    /// Embedded branch displacement, sign-extended, if the opcode has one.
    pub branch_disp: Option<i32>,
    /// Total encoded length in bytes.
    pub len: u32,
}

impl Instruction {
    /// Build an instruction with operands; the encoded length is computed.
    ///
    /// # Panics
    /// Panics if the specifier count does not match the opcode signature, or
    /// if a branch displacement is supplied for/omitted from an opcode that
    /// lacks/requires one.
    pub fn new(opcode: Opcode, specifiers: impl Into<SpecList>, branch_disp: Option<i32>) -> Self {
        let specifiers = specifiers.into();
        assert_eq!(
            specifiers.len(),
            opcode.specifier_count(),
            "{}: wrong number of specifiers",
            opcode.mnemonic()
        );
        assert_eq!(
            branch_disp.is_some(),
            opcode.has_branch_disp(),
            "{}: branch displacement mismatch",
            opcode.mnemonic()
        );
        let mut insn = Instruction {
            opcode,
            specifiers,
            branch_disp,
            len: 0,
        };
        insn.len = insn.computed_len();
        insn
    }

    fn computed_len(&self) -> u32 {
        let mut len = 1; // opcode byte
        let mut spec_i = 0;
        for op in self.opcode.operands() {
            match op {
                OperandKind::Spec(_, dt) => {
                    len += self.specifiers[spec_i].encoded_len(dt.size());
                    spec_i += 1;
                }
                OperandKind::Branch(width) => len += width.size(),
            }
        }
        len
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode.mnemonic())?;
        let mut first = true;
        for spec in &self.specifiers {
            if first {
                write!(f, " {spec}")?;
                first = false;
            } else {
                write!(f, ", {spec}")?;
            }
        }
        if let Some(disp) = self.branch_disp {
            if first {
                write!(f, " .{disp:+}")?;
            } else {
                write!(f, ", .{disp:+}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::Reg;
    use crate::specifier::Specifier;

    #[test]
    fn movl_len() {
        let insn = Instruction::new(
            Opcode::Movl,
            vec![
                Specifier::register(Reg::new(1)),
                Specifier::register(Reg::new(2)),
            ],
            None,
        );
        assert_eq!(insn.len, 3);
        assert_eq!(insn.to_string(), "MOVL R1, R2");
    }

    #[test]
    fn branch_len() {
        let insn = Instruction::new(Opcode::Beql, vec![], Some(-4));
        assert_eq!(insn.len, 2);
        assert_eq!(insn.to_string(), "BEQL .-4");
    }

    #[test]
    fn sob_len() {
        let insn = Instruction::new(
            Opcode::Sobgtr,
            vec![Specifier::register(Reg::new(3))],
            Some(-10),
        );
        assert_eq!(insn.len, 3);
    }

    #[test]
    #[should_panic(expected = "wrong number of specifiers")]
    fn wrong_spec_count_panics() {
        let _ = Instruction::new(Opcode::Movl, vec![], None);
    }

    #[test]
    #[should_panic(expected = "branch displacement mismatch")]
    fn missing_branch_disp_panics() {
        let _ = Instruction::new(Opcode::Beql, vec![], None);
    }
}
