//! Decoded operand specifiers.

use crate::mode::AddressingMode;
use crate::regs::Reg;
use std::fmt;

/// One decoded operand specifier.
///
/// `value` carries the mode's variable content: the literal value for
/// short-literal mode, the sign-extended displacement for displacement and
/// PC-relative modes, the 32-bit datum for immediate mode (the low longword
/// for quad/D-float immediates), or the absolute address for absolute mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Specifier {
    /// Decoded addressing mode.
    pub mode: AddressingMode,
    /// Base register (meaningless for literal/immediate/absolute).
    pub reg: Reg,
    /// Mode-dependent extension value (see type-level docs).
    pub value: i64,
    /// Index register, if the specifier carried a mode-4 index prefix.
    pub index: Option<Reg>,
}

impl Specifier {
    /// A register-mode specifier for `reg`.
    pub fn register(reg: Reg) -> Specifier {
        Specifier {
            mode: AddressingMode::Register,
            reg,
            value: 0,
            index: None,
        }
    }

    /// A short-literal specifier (0–63).
    ///
    /// # Panics
    /// Panics if `value > 63`.
    pub fn literal(value: u8) -> Specifier {
        assert!(value < 64, "short literal out of range");
        Specifier {
            mode: AddressingMode::Literal,
            reg: Reg::new(0),
            value: value as i64,
            index: None,
        }
    }

    /// A displacement-mode specifier `disp(reg)`, choosing the narrowest
    /// displacement width that holds `disp`.
    pub fn displacement(disp: i32, reg: Reg) -> Specifier {
        let mode = if (-128..=127).contains(&disp) {
            AddressingMode::ByteDisp
        } else if (-32768..=32767).contains(&disp) {
            AddressingMode::WordDisp
        } else {
            AddressingMode::LongDisp
        };
        Specifier {
            mode,
            reg,
            value: disp as i64,
            index: None,
        }
    }

    /// A register-deferred specifier `(reg)`.
    pub fn deferred(reg: Reg) -> Specifier {
        Specifier {
            mode: AddressingMode::RegisterDeferred,
            reg,
            value: 0,
            index: None,
        }
    }

    /// An immediate specifier `#value`.
    pub fn immediate(value: u32) -> Specifier {
        Specifier {
            mode: AddressingMode::Immediate,
            reg: Reg::PC,
            value: value as i64,
            index: None,
        }
    }

    /// An absolute specifier `@#addr`.
    pub fn absolute(addr: u32) -> Specifier {
        Specifier {
            mode: AddressingMode::Absolute,
            reg: Reg::PC,
            value: addr as i64,
            index: None,
        }
    }

    /// Attach an index register (mode-4 prefix), returning the new specifier.
    ///
    /// # Panics
    /// Panics for literal/register/immediate base modes, which cannot be
    /// indexed on the VAX.
    pub fn indexed(mut self, index: Reg) -> Specifier {
        assert!(
            !matches!(
                self.mode,
                AddressingMode::Literal | AddressingMode::Register | AddressingMode::Immediate
            ),
            "mode {:?} cannot be indexed",
            self.mode
        );
        self.index = Some(index);
        self
    }

    /// Total I-stream bytes this specifier occupies for an operand of
    /// `operand_size` bytes (specifier byte + extension + index prefix).
    pub fn encoded_len(&self, operand_size: u32) -> u32 {
        let prefix = if self.index.is_some() { 1 } else { 0 };
        prefix + 1 + self.mode.extension_size(operand_size)
    }
}

impl fmt::Display for Specifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AddressingMode::*;
        match self.mode {
            Literal => write!(f, "#{}", self.value)?,
            Register => write!(f, "{}", self.reg)?,
            RegisterDeferred => write!(f, "({})", self.reg)?,
            Autodecrement => write!(f, "-({})", self.reg)?,
            Autoincrement => write!(f, "({})+", self.reg)?,
            AutoincrementDeferred => write!(f, "@({})+", self.reg)?,
            ByteDisp | WordDisp | LongDisp => write!(f, "{}({})", self.value, self.reg)?,
            ByteDispDeferred | WordDispDeferred | LongDispDeferred => {
                write!(f, "@{}({})", self.value, self.reg)?
            }
            Immediate => write!(f, "#{}", self.value)?,
            Absolute => write!(f, "@#{:#x}", self.value)?,
            PcRelative => write!(f, "{}(PC)", self.value)?,
            PcRelativeDeferred => write!(f, "@{}(PC)", self.value)?,
        }
        if let Some(ix) = self.index {
            write!(f, "[{ix}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displacement_width_selection() {
        assert_eq!(
            Specifier::displacement(100, Reg::new(2)).mode,
            AddressingMode::ByteDisp
        );
        assert_eq!(
            Specifier::displacement(1000, Reg::new(2)).mode,
            AddressingMode::WordDisp
        );
        assert_eq!(
            Specifier::displacement(100_000, Reg::new(2)).mode,
            AddressingMode::LongDisp
        );
        assert_eq!(
            Specifier::displacement(-128, Reg::new(2)).mode,
            AddressingMode::ByteDisp
        );
    }

    #[test]
    fn encoded_len() {
        assert_eq!(Specifier::register(Reg::new(1)).encoded_len(4), 1);
        assert_eq!(Specifier::literal(5).encoded_len(4), 1);
        assert_eq!(Specifier::displacement(4, Reg::new(1)).encoded_len(4), 2);
        assert_eq!(Specifier::displacement(400, Reg::new(1)).encoded_len(4), 3);
        assert_eq!(Specifier::immediate(7).encoded_len(4), 5);
        assert_eq!(Specifier::absolute(0x1000).encoded_len(4), 5);
        assert_eq!(
            Specifier::displacement(4, Reg::new(1))
                .indexed(Reg::new(2))
                .encoded_len(4),
            3
        );
    }

    #[test]
    #[should_panic(expected = "cannot be indexed")]
    fn register_mode_cannot_index() {
        let _ = Specifier::register(Reg::new(1)).indexed(Reg::new(2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Specifier::register(Reg::new(3)).to_string(), "R3");
        assert_eq!(Specifier::displacement(8, Reg::FP).to_string(), "8(FP)");
        assert_eq!(
            Specifier::deferred(Reg::new(1))
                .indexed(Reg::new(4))
                .to_string(),
            "(R1)[R4]"
        );
    }
}
