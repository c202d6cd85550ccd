//! Evaluated operand values and write-back destinations.

use upc_monitor::MicroPc;
use vax_arch::Reg;
use vax_mem::VirtAddr;

/// Where an operand's datum lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A general register (and `Rn+1` for quad data).
    Reg(Reg),
    /// A memory address.
    Mem(VirtAddr),
    /// No location (literal/immediate operands).
    None,
}

/// One evaluated operand.
#[derive(Debug, Clone, Copy)]
pub struct EvaldOperand {
    /// The operand's value (reads/modifies), or the computed address for
    /// address-access operands.
    pub value: u64,
    /// Where the datum lives (write-back destination for write/modify).
    pub loc: Loc,
    /// Operand size in bytes.
    pub size: u32,
}

impl EvaldOperand {
    /// The value as a signed 32-bit integer (low longword).
    pub fn as_i32(&self) -> i32 {
        self.value as u32 as i32
    }

    /// The value as an unsigned 32-bit integer (low longword).
    pub fn as_u32(&self) -> u32 {
        self.value as u32
    }

    /// The value as a virtual address (for address-access operands).
    pub fn as_va(&self) -> VirtAddr {
        VirtAddr(self.value as u32)
    }
}

/// A deferred write-back: performed after the execute phase.
#[derive(Debug, Clone, Copy)]
pub struct PendingWb {
    /// Index of the operand in the instruction's operand list.
    pub operand_index: usize,
    /// Destination, and the µop the write-back is charged to.
    pub dest: WbDest,
    /// Size in bytes.
    pub size: u32,
}

/// Where a write-back lands, and the specifier µop that pays for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbDest {
    /// A memory write, charged to its routine's final `Write` µop.
    Mem(VirtAddr, MicroPc),
    /// A register move, charged to the register-write routine's one µop,
    /// or free (`None`) for a register modify, whose write-back folds into
    /// the execute cycle.
    Reg(Reg, Option<MicroPc>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let op = EvaldOperand {
            value: 0xFFFF_FFFF,
            loc: Loc::None,
            size: 4,
        };
        assert_eq!(op.as_i32(), -1);
        assert_eq!(op.as_u32(), u32::MAX);
        assert_eq!(op.as_va(), VirtAddr(u32::MAX));
    }
}
