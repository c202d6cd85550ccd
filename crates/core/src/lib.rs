//! # vax780
//!
//! The full simulated VAX-11/780 system: CPU + memory subsystem + µPC
//! histogram monitor, plus a "VMS-lite" kernel written in generated VAX
//! machine code (timer interrupts, software interrupts, round-robin
//! scheduling via SVPCTX/LDPCTX, and CHMK system services), and an
//! experiment runner that mirrors the paper's measurement procedure
//! (warm up, clear counters, start the board, run, stop, read).
//!
//! ```no_run
//! use vax780::{ProcessSpec, SystemBuilder, SystemConfig};
//! use vax_asm::{Asm, Operand};
//! use vax_arch::{Opcode, Reg};
//!
//! // A process that spins decrementing R2.
//! let mut asm = Asm::new(0x200);
//! asm.label("entry");
//! asm.insn(Opcode::Movl, &[Operand::Imm(1_000_000), Operand::Reg(Reg::new(2))], None);
//! asm.label("loop");
//! asm.insn(Opcode::Sobgtr, &[Operand::Reg(Reg::new(2))], Some("loop"));
//! asm.insn(Opcode::Brb, &[], Some("loop"));
//! let image = asm.assemble().unwrap();
//!
//! let mut builder = SystemBuilder::new(SystemConfig::default());
//! builder.add_process(ProcessSpec::new(image, "entry"));
//! let mut system = builder.build();
//! system.run_instructions(10_000);
//! ```

pub mod cancel;
pub mod faults;
pub mod kernel;
pub mod measurement;
pub mod merge;
pub mod sampler;
pub mod system;

pub use cancel::{CancelKind, CancelToken, Stop};
pub use faults::{parse_classes, FaultClass, FaultEvent, FaultKind, FaultPlan};
pub use kernel::KernelConfig;
pub use measurement::Measurement;
pub use merge::{merge_ordered, Mergeable};
pub use sampler::{IntervalSample, TimeSeries};
pub use system::{
    BootImage, DeferredProcess, ProcessShape, ProcessSpec, System, SystemBuilder, SystemConfig,
};
pub use vax_cpu::CpuConfig;
