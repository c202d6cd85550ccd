//! VAX operand-specifier addressing modes.
//!
//! A specifier's first byte holds a 4-bit mode and a 4-bit register number.
//! Modes 0–3 encode a 6-bit short literal; mode 4 is an index prefix; modes
//! 8, 9, A–F with register 15 (PC) become the program-counter modes
//! (immediate, absolute, and PC-relative displacements).
//!
//! [`AddressingMode`] is the *decoded* mode, with PC specializations already
//! applied — it corresponds one-to-one with the rows of the paper's Table 4.

use std::fmt;

/// Decoded addressing mode of one operand specifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressingMode {
    /// 6-bit short literal (modes 0–3).
    Literal,
    /// Register mode `Rn` (mode 5).
    Register,
    /// Register deferred `(Rn)` (mode 6).
    RegisterDeferred,
    /// Autodecrement `-(Rn)` (mode 7).
    Autodecrement,
    /// Autoincrement `(Rn)+` (mode 8, Rn != PC).
    Autoincrement,
    /// Autoincrement deferred `@(Rn)+` (mode 9, Rn != PC).
    AutoincrementDeferred,
    /// Byte displacement `d8(Rn)` (mode A).
    ByteDisp,
    /// Byte displacement deferred `@d8(Rn)` (mode B).
    ByteDispDeferred,
    /// Word displacement `d16(Rn)` (mode C).
    WordDisp,
    /// Word displacement deferred `@d16(Rn)` (mode D).
    WordDispDeferred,
    /// Longword displacement `d32(Rn)` (mode E).
    LongDisp,
    /// Longword displacement deferred `@d32(Rn)` (mode F).
    LongDispDeferred,
    /// Immediate `(PC)+` — I-stream constant (mode 8 with PC).
    Immediate,
    /// Absolute `@(PC)+` — I-stream 32-bit address (mode 9 with PC).
    Absolute,
    /// PC-relative `d(PC)` (modes A/C/E with PC).
    PcRelative,
    /// PC-relative deferred `@d(PC)` (modes B/D/F with PC).
    PcRelativeDeferred,
}

impl AddressingMode {
    /// All modes, in a stable order for statistics tables.
    pub const ALL: [AddressingMode; 16] = [
        AddressingMode::Literal,
        AddressingMode::Register,
        AddressingMode::RegisterDeferred,
        AddressingMode::Autodecrement,
        AddressingMode::Autoincrement,
        AddressingMode::AutoincrementDeferred,
        AddressingMode::ByteDisp,
        AddressingMode::ByteDispDeferred,
        AddressingMode::WordDisp,
        AddressingMode::WordDispDeferred,
        AddressingMode::LongDisp,
        AddressingMode::LongDispDeferred,
        AddressingMode::Immediate,
        AddressingMode::Absolute,
        AddressingMode::PcRelative,
        AddressingMode::PcRelativeDeferred,
    ];

    /// Dense index of this mode, equal to its position in
    /// [`AddressingMode::ALL`] (the enum declares modes in `ALL` order, which
    /// `mode_index_matches_all` pins down). Lets per-mode tables be indexed
    /// directly instead of searched.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// True if evaluating this specifier references memory for the operand
    /// datum itself (given a Read/Write/Modify access).
    pub const fn is_memory(self) -> bool {
        !matches!(self, AddressingMode::Literal | AddressingMode::Register)
    }

    /// True if the mode has an extra indirection through a memory-resident
    /// pointer (the "deferred" modes).
    pub const fn is_deferred(self) -> bool {
        matches!(
            self,
            AddressingMode::AutoincrementDeferred
                | AddressingMode::ByteDispDeferred
                | AddressingMode::WordDispDeferred
                | AddressingMode::LongDispDeferred
                | AddressingMode::PcRelativeDeferred
        )
    }

    /// Byte size of the I-stream extension for this mode, for an operand of
    /// `operand_size` bytes (immediate mode consumes the operand's size).
    pub const fn extension_size(self, operand_size: u32) -> u32 {
        match self {
            AddressingMode::ByteDisp | AddressingMode::ByteDispDeferred => 1,
            AddressingMode::WordDisp | AddressingMode::WordDispDeferred => 2,
            AddressingMode::LongDisp
            | AddressingMode::LongDispDeferred
            | AddressingMode::Absolute => 4,
            AddressingMode::PcRelative | AddressingMode::PcRelativeDeferred => 4,
            AddressingMode::Immediate => operand_size,
            _ => 0,
        }
    }

    /// Paper Table-4 row label.
    pub const fn name(self) -> &'static str {
        match self {
            AddressingMode::Literal => "Short literal",
            AddressingMode::Register => "Register",
            AddressingMode::RegisterDeferred => "Register deferred",
            AddressingMode::Autodecrement => "Autodecrement",
            AddressingMode::Autoincrement => "Autoincrement",
            AddressingMode::AutoincrementDeferred => "Autoincrement deferred",
            AddressingMode::ByteDisp => "Byte displacement",
            AddressingMode::ByteDispDeferred => "Byte disp. deferred",
            AddressingMode::WordDisp => "Word displacement",
            AddressingMode::WordDispDeferred => "Word disp. deferred",
            AddressingMode::LongDisp => "Long displacement",
            AddressingMode::LongDispDeferred => "Long disp. deferred",
            AddressingMode::Immediate => "Immediate (PC)+",
            AddressingMode::Absolute => "Absolute @(PC)+",
            AddressingMode::PcRelative => "PC-relative",
            AddressingMode::PcRelativeDeferred => "PC-relative deferred",
        }
    }
}

impl fmt::Display for AddressingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Decode the mode nibble + register nibble of a specifier byte into an
/// [`AddressingMode`] (PC specializations applied). Returns `None` for the
/// index prefix (mode 4), which is not itself an addressing mode, and for
/// illegal combinations (e.g. literal with index, mode 5/6/7 with PC).
pub fn mode_of_byte(byte: u8) -> Option<AddressingMode> {
    let mode = byte >> 4;
    let reg = byte & 0x0F;
    let pc = reg == 15;
    Some(match mode {
        0..=3 => AddressingMode::Literal,
        4 => return None, // index prefix
        5 => {
            if pc {
                return None;
            }
            AddressingMode::Register
        }
        6 => {
            if pc {
                return None;
            }
            AddressingMode::RegisterDeferred
        }
        7 => {
            if pc {
                return None;
            }
            AddressingMode::Autodecrement
        }
        8 => {
            if pc {
                AddressingMode::Immediate
            } else {
                AddressingMode::Autoincrement
            }
        }
        9 => {
            if pc {
                AddressingMode::Absolute
            } else {
                AddressingMode::AutoincrementDeferred
            }
        }
        0xA => {
            if pc {
                AddressingMode::PcRelative
            } else {
                AddressingMode::ByteDisp
            }
        }
        0xB => {
            if pc {
                AddressingMode::PcRelativeDeferred
            } else {
                AddressingMode::ByteDispDeferred
            }
        }
        0xC => {
            if pc {
                AddressingMode::PcRelative
            } else {
                AddressingMode::WordDisp
            }
        }
        0xD => {
            if pc {
                AddressingMode::PcRelativeDeferred
            } else {
                AddressingMode::WordDispDeferred
            }
        }
        0xE => {
            if pc {
                AddressingMode::PcRelative
            } else {
                AddressingMode::LongDisp
            }
        }
        0xF => {
            if pc {
                AddressingMode::PcRelativeDeferred
            } else {
                AddressingMode::LongDispDeferred
            }
        }
        _ => unreachable!(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_range() {
        for b in 0x00..=0x3F {
            assert_eq!(mode_of_byte(b), Some(AddressingMode::Literal));
        }
    }

    #[test]
    fn index_prefix_is_not_a_mode() {
        for b in 0x40..=0x4F {
            assert_eq!(mode_of_byte(b), None);
        }
    }

    #[test]
    fn register_modes() {
        assert_eq!(mode_of_byte(0x51), Some(AddressingMode::Register));
        assert_eq!(mode_of_byte(0x63), Some(AddressingMode::RegisterDeferred));
        assert_eq!(mode_of_byte(0x7E), Some(AddressingMode::Autodecrement));
        // PC is illegal for modes 5..7
        assert_eq!(mode_of_byte(0x5F), None);
        assert_eq!(mode_of_byte(0x6F), None);
        assert_eq!(mode_of_byte(0x7F), None);
    }

    #[test]
    fn pc_specializations() {
        assert_eq!(mode_of_byte(0x8F), Some(AddressingMode::Immediate));
        assert_eq!(mode_of_byte(0x9F), Some(AddressingMode::Absolute));
        assert_eq!(mode_of_byte(0xAF), Some(AddressingMode::PcRelative));
        assert_eq!(mode_of_byte(0xBF), Some(AddressingMode::PcRelativeDeferred));
        assert_eq!(mode_of_byte(0xCF), Some(AddressingMode::PcRelative));
        assert_eq!(mode_of_byte(0xEF), Some(AddressingMode::PcRelative));
    }

    #[test]
    fn displacement_modes() {
        assert_eq!(mode_of_byte(0xA3), Some(AddressingMode::ByteDisp));
        assert_eq!(mode_of_byte(0xB3), Some(AddressingMode::ByteDispDeferred));
        assert_eq!(mode_of_byte(0xC3), Some(AddressingMode::WordDisp));
        assert_eq!(mode_of_byte(0xE3), Some(AddressingMode::LongDisp));
        assert_eq!(mode_of_byte(0xF3), Some(AddressingMode::LongDispDeferred));
    }

    #[test]
    fn memory_classification() {
        assert!(!AddressingMode::Register.is_memory());
        assert!(!AddressingMode::Literal.is_memory());
        assert!(AddressingMode::ByteDisp.is_memory());
        assert!(AddressingMode::Immediate.is_memory()); // I-stream datum
    }

    #[test]
    fn extension_sizes() {
        assert_eq!(AddressingMode::ByteDisp.extension_size(4), 1);
        assert_eq!(AddressingMode::WordDisp.extension_size(4), 2);
        assert_eq!(AddressingMode::LongDisp.extension_size(4), 4);
        assert_eq!(AddressingMode::Immediate.extension_size(4), 4);
        assert_eq!(AddressingMode::Immediate.extension_size(8), 8);
        assert_eq!(AddressingMode::Register.extension_size(4), 0);
    }

    #[test]
    fn deferred_classification() {
        assert!(AddressingMode::ByteDispDeferred.is_deferred());
        // `@#addr` names its operand's address in the I-stream: no pointer
        // is fetched.
        assert!(!AddressingMode::Absolute.is_deferred());
        assert!(!AddressingMode::ByteDisp.is_deferred());
    }

    #[test]
    fn mode_index_matches_all() {
        for (i, &mode) in AddressingMode::ALL.iter().enumerate() {
            assert_eq!(mode.index(), i, "{mode:?} out of ALL order");
        }
    }
}
