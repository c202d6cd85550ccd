//! # vax-asm
//!
//! A small one-pass VAX assembler with two front ends:
//!
//! * a **builder API** ([`Asm`]) used programmatically by the kernel
//!   builder and the workload generators — items are opcodes with symbolic
//!   operands and labels;
//! * a **text front end** ([`parse`]) accepting a VAX MACRO-ish subset for
//!   examples and tests.
//!
//! Label-referencing operands assemble to PC-relative (longword
//! displacement) form; branch displacements use the width fixed by the
//! opcode and error out of range. No encoding's length depends on a label,
//! so each item is encoded as it is emitted: a reference to a label defined
//! later leaves a fixup that [`Asm::assemble`] patches, and
//! [`Asm::org`] pads up to an absolute address.
//!
//! ```
//! use vax_asm::{Asm, Operand};
//! use vax_arch::{Opcode, Reg};
//!
//! let mut asm = Asm::new(0x1000);
//! asm.label("loop");
//! asm.insn(Opcode::Sobgtr, &[Operand::Reg(Reg::new(2))], Some("loop"));
//! let image = asm.assemble().unwrap();
//! assert_eq!(image.origin, 0x1000);
//! assert!(!image.bytes.is_empty());
//! ```

pub mod builder;
pub mod probe;
pub mod text;

pub use builder::{Asm, AsmError, Image, Operand};
pub use probe::{
    mode_from_key, mode_key, probe_grid, probe_loop, probe_target, GridCell, ProbeLoop,
    ProbeTarget, SkipReason,
};
pub use text::{parse, ParseError};
