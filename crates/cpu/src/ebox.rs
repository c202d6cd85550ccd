//! The EBOX: the microcoded execution engine.
//!
//! [`Cpu::step`] runs one VAX instruction (or one interrupt dispatch),
//! emitting every microcycle to the attached µPC histogram with the
//! address/plane semantics of the real monitor:
//!
//! * a normally executing microinstruction counts once in the normal plane
//!   at its µPC;
//! * read/write stall cycles count in the stalled plane at the stalled
//!   microinstruction's µPC;
//! * IB starvation counts in the normal plane at the "insufficient bytes"
//!   dispatch address of the starving decode stage;
//! * a TB miss charges one abort cycle plus the MemMgmt service routine;
//! * microcode patches charge periodic abort cycles.

use upc_monitor::{Histogram, MicroOp, MicroPc, Plane, Region};
use vax_arch::psl::AccessMode;
use vax_arch::{
    AccessType, AddressingMode, BranchKind, DataType, Instruction, Opcode, OperandKind, Psl, Reg,
    Specifier,
};
use vax_mem::addr::PAGE_SIZE;
use vax_mem::trace::{StallClass, TraceEvent};
use vax_mem::{MemorySystem, PhysAddr, RefClass, VirtAddr};

use crate::config::CpuConfig;
use crate::exec::{self, Flow};
use crate::flight::SharedFlightRecorder;
use crate::ib::Ib;
use crate::icache::{DecodeCache, DecodeCacheStats};
use crate::ipr::Ipr;
use crate::operand::{EvaldOperand, Loc, PendingWb};
use crate::stats::CpuStats;
use crate::store::{ControlStore, SpecFlavor, SpecRegions};

/// SCB slot (longword index from `scb_base`) of the CHMK service vector.
pub const VEC_CHMK: u32 = 0;
/// SCB slot of the interval-timer interrupt vector.
pub const VEC_TIMER: u32 = 1;
/// SCB slot of the software-interrupt vector.
pub const VEC_SOFT: u32 = 2;
/// SCB slot of the machine-check vector (latched parity faults).
pub const VEC_MCHK: u32 = 3;
/// SCB slot of the external-device interrupt vector (fault-injection
/// hardware-interrupt bursts).
pub const VEC_DEVICE: u32 = 4;

/// IPL at which machine checks are delivered (above every device level).
pub const MCHK_IPL: u8 = 30;
/// IPL of injected device-burst interrupts: below the interval timer
/// (`CpuConfig::timer_ipl`, 22) and above every software level.
pub const DEVICE_IPL: u8 = 21;

/// What one [`Cpu::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired.
    Retired(Opcode),
    /// An interrupt was dispatched instead of an instruction.
    Interrupt,
    /// A HALT instruction was executed.
    Halted,
}

/// The simulated CPU.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General registers R0–R15 (R15 is PC between instructions).
    pub regs: [u32; 16],
    /// Processor status longword.
    pub psl: Psl,
    /// Current cycle number (200 ns units).
    pub cycle: u64,
    /// The memory subsystem.
    pub mem: MemorySystem,
    /// The attached µPC histogram monitor.
    pub hist: Histogram,
    /// The control store layout (reduction key).
    pub cs: ControlStore,
    /// Configuration.
    pub config: CpuConfig,
    /// Internal processor registers.
    pub iprs: Ipr,
    /// CPU-side statistics.
    pub stats: CpuStats,
    /// Ring of recently retired instructions, dumped on fatal errors.
    /// Disabled by default; see [`SharedFlightRecorder::with_capacity`].
    pub flight: SharedFlightRecorder,
    ib: Ib,
    pending_hw: Option<(u8, u32)>,
    next_timer: u64,
    next_patch: u64,
    decode_buf: Vec<u8>,
    icache: DecodeCache,
    /// Scratch for evaluated operands, reused across steps so the hot loop
    /// allocates nothing. Taken/returned around each step.
    operands_buf: Vec<EvaldOperand>,
    /// Scratch for pending operand write-backs, reused across steps.
    writebacks_buf: Vec<PendingWb>,
}

impl Cpu {
    /// Build a CPU over a memory system. The histogram starts *stopped*;
    /// call `cpu.hist.start()` to begin measurement (warm-up runs can thus
    /// be excluded, as the paper excluded the Null process).
    pub fn new(config: CpuConfig, mem: MemorySystem) -> Cpu {
        let cs = ControlStore::new(&config);
        Cpu {
            regs: [0; 16],
            psl: Psl::new_kernel(31),
            cycle: 0,
            mem,
            hist: Histogram::new_16k(),
            cs,
            config,
            iprs: Ipr::default(),
            stats: CpuStats::new(),
            flight: SharedFlightRecorder::disabled(),
            ib: Ib::new(),
            pending_hw: None,
            next_timer: config.timer_interval.unwrap_or(u64::MAX),
            next_patch: config.patch_interval.unwrap_or(u64::MAX),
            decode_buf: Vec::with_capacity(64),
            icache: DecodeCache::new(),
            operands_buf: Vec::with_capacity(8),
            writebacks_buf: Vec::with_capacity(8),
        }
    }

    /// The program counter.
    pub fn pc(&self) -> u32 {
        self.regs[15]
    }

    /// Set the PC and redirect the I-Fetch unit.
    pub fn set_pc(&mut self, pc: u32) {
        self.regs[15] = pc;
        self.ib.flush(pc);
    }

    /// Post an external hardware interrupt (device model hook).
    pub fn post_interrupt(&mut self, ipl: u8, scb_slot: u32) {
        self.pending_hw = Some((ipl, scb_slot));
    }

    /// Request a software interrupt exactly as a guest MTPR to SIRR would
    /// (fault-injection hook): the request is latched in the IPR file and
    /// counted in `sw_interrupt_requests`, so the Table 7 request/delivery
    /// reconciliation holds under injected bursts too.
    pub fn request_soft_interrupt(&mut self, level: u8) {
        self.iprs.request_soft(level);
        self.stats.sw_interrupt_requests += 1;
    }

    // ---- cycle plumbing ----

    #[inline]
    fn tick(&mut self) {
        self.cycle += 1;
        self.ib.sync(self.cycle, &mut self.mem);
    }

    #[inline]
    fn advance(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Emit one compute cycle at `upc`.
    #[inline]
    pub(crate) fn c(&mut self, upc: MicroPc) {
        self.hist.record(upc, Plane::Normal);
        self.tick();
    }

    /// Emit `n` compute cycles over a region's offsets `[from, from+n)`.
    pub(crate) fn c_span(&mut self, region: Region, from: u16, n: u16) {
        for i in 0..n {
            self.c(region.at(from + i));
        }
    }

    // ---- fatal-error reporting ----

    /// Abort the simulation: dump the flight recorder to stderr, emit an
    /// [`TraceEvent::Exception`] for attached sinks, then panic with `msg`.
    pub(crate) fn fatal(&self, kind: &'static str, msg: String) -> ! {
        let (pc, cycle) = (self.regs[15], self.cycle);
        self.mem
            .trace
            .emit_with(|| TraceEvent::Exception { pc, kind, cycle });
        self.flight.dump_stderr();
        panic!("{msg}");
    }

    // ---- translation & memory reference emission ----

    fn translate_d(&mut self, va: VirtAddr) -> PhysAddr {
        loop {
            if let Some(pa) = self.mem.probe_tb_at(va, RefClass::DStream, self.cycle) {
                return pa;
            }
            self.run_tb_miss(va);
        }
    }

    /// TB-miss microtrap + service routine (MemMgmt row; abort cycle in the
    /// Abort row; PTE read stalls in the stalled plane).
    fn run_tb_miss(&mut self, va: VirtAddr) {
        self.c(self.cs.abort.entry());
        let r = self.cs.tb_miss;
        for i in 0..self.config.tb_miss_overhead {
            self.c(r.at(i as u16));
        }
        let fill = self.mem.tb_fill(va, self.cycle).unwrap_or_else(|e| {
            self.fatal(
                "page-fault",
                format!(
                    "unhandled page fault: {e} ({va}) at PC {:#010x}, regs {:x?}, psl {:?}",
                    self.regs[15], self.regs, self.psl
                ),
            )
        });
        let read_upc = r.at(self.cs.tb_miss_read_off);
        for _ in 0..fill.pte_reads {
            self.hist.record(read_upc, Plane::Normal);
            self.tick();
        }
        if fill.stall > 0 {
            self.hist.record_n(read_upc, Plane::Stalled, fill.stall);
            self.advance(fill.stall);
        }
        self.c(r.at(self.cs.tb_miss_read_off + 1));
    }

    /// Extra microcode for a reference that crossed an aligned-longword
    /// boundary: two compute cycles plus the second physical reference.
    fn run_unaligned(&mut self, pa_second: PhysAddr, write: bool) {
        self.mem.note_unaligned();
        let r = self.cs.unaligned;
        self.c(r.at(0));
        self.c(r.at(1));
        if write {
            let upc = r.at(3);
            self.hist.record(upc, Plane::Normal);
            let stall = self.mem.write_cycle(pa_second, self.cycle);
            if stall > 0 {
                self.hist.record_n(upc, Plane::Stalled, stall);
            }
            self.advance(1 + stall);
        } else {
            let upc = r.at(2);
            self.hist.record(upc, Plane::Normal);
            let out = self.mem.read_cycle(pa_second, self.cycle);
            if out.stall > 0 {
                self.hist.record_n(upc, Plane::Stalled, out.stall);
            }
            self.advance(1 + out.stall);
        }
    }

    /// One D-stream read of `size` ≤ 8 bytes at `va`, charged to `upc`.
    /// Handles TB misses, quadword doubling, and unaligned references.
    pub(crate) fn read_data(&mut self, upc: MicroPc, va: VirtAddr, size: u32) -> u64 {
        if size > 4 {
            let lo = self.read_data_lw(upc, va, 4);
            let hi = self.read_data_lw(upc, va.add(4), 4);
            return lo | (hi << 32);
        }
        self.read_data_lw(upc, va, size)
    }

    fn read_data_lw(&mut self, upc: MicroPc, va: VirtAddr, size: u32) -> u64 {
        let pa = self.translate_d(va);
        self.hist.record(upc, Plane::Normal);
        let out = self.mem.read_cycle(pa, self.cycle);
        if out.stall > 0 {
            self.hist.record_n(upc, Plane::Stalled, out.stall);
        }
        self.advance(1 + out.stall);
        let value = self.read_value(va, size);
        if va.is_unaligned(size) {
            // Second physical reference to the next longword.
            let next_lw = VirtAddr((va.0 & !3) + 4);
            let pa2 = self.translate_d(next_lw);
            self.run_unaligned(pa2, false);
        }
        value
    }

    /// One D-stream write of `size` ≤ 8 bytes, charged to `upc`.
    pub(crate) fn write_data(&mut self, upc: MicroPc, va: VirtAddr, size: u32, value: u64) {
        if size > 4 {
            self.write_data_lw(upc, va, 4, value & 0xFFFF_FFFF);
            self.write_data_lw(upc, va.add(4), 4, value >> 32);
            return;
        }
        self.write_data_lw(upc, va, size, value);
    }

    fn write_data_lw(&mut self, upc: MicroPc, va: VirtAddr, size: u32, value: u64) {
        let pa = self.translate_d(va);
        self.hist.record(upc, Plane::Normal);
        let stall = self.mem.write_cycle(pa, self.cycle);
        if stall > 0 {
            self.hist.record_n(upc, Plane::Stalled, stall);
        }
        self.advance(1 + stall);
        self.write_value(va, size, value);
        if va.is_unaligned(size) {
            let next_lw = VirtAddr((va.0 & !3) + 4);
            let pa2 = self.translate_d(next_lw);
            self.run_unaligned(pa2, true);
        }
    }

    /// Untimed virtual-memory read (semantics only; page-crossing safe).
    pub(crate) fn read_value(&self, va: VirtAddr, size: u32) -> u64 {
        let in_page = va.remaining_in(PAGE_SIZE);
        if size <= in_page {
            let pa = self.raw(va);
            self.mem.value_read(pa, size)
        } else {
            let lo = self.mem.value_read(self.raw(va), in_page);
            let hi = self
                .mem
                .value_read(self.raw(va.add(in_page)), size - in_page);
            lo | (hi << (8 * in_page))
        }
    }

    /// Untimed virtual-memory write.
    pub(crate) fn write_value(&mut self, va: VirtAddr, size: u32, value: u64) {
        let in_page = va.remaining_in(PAGE_SIZE);
        if size <= in_page {
            let pa = self.raw(va);
            self.mem.value_write(pa, size, value);
        } else {
            let pa1 = self.raw(va);
            let pa2 = self.raw(va.add(in_page));
            self.mem
                .value_write(pa1, in_page, value & ((1 << (8 * in_page)) - 1));
            self.mem
                .value_write(pa2, size - in_page, value >> (8 * in_page));
        }
    }

    fn raw(&self, va: VirtAddr) -> PhysAddr {
        self.mem
            .raw_translate(va)
            .unwrap_or_else(|e| self.fatal("unmapped", format!("unmapped address {va}: {e}")))
    }

    // ---- I-stream consumption ----

    /// Consume `n` instruction bytes, recording IB-stall cycles at
    /// `wait_upc` while starving, and servicing I-stream TB misses when the
    /// decoder actually needs the bytes (paper §2.1). Consumption proceeds
    /// in longword-sized gulps — a quad immediate (9 bytes with its
    /// specifier byte) is wider than the 8-byte IB.
    fn consume_istream(&mut self, n: u32, wait_upc: MicroPc) {
        let mut remaining = n;
        while remaining > 0 {
            let chunk = remaining.min(4);
            let mut stall_start: Option<u64> = None;
            loop {
                self.ib.sync(self.cycle, &mut self.mem);
                if self.ib.valid_bytes() >= chunk {
                    break;
                }
                if let Some(va) = self.ib.itb_miss() {
                    self.ib.clear_itb_miss();
                    self.end_ib_stall(&mut stall_start);
                    self.run_tb_miss(va);
                    continue;
                }
                if stall_start.is_none() {
                    stall_start = Some(self.cycle);
                    let cycle = self.cycle;
                    self.mem.trace.emit_with(|| TraceEvent::StallBegin {
                        class: StallClass::IbEmpty,
                        cycle,
                    });
                }
                self.hist.record(wait_upc, Plane::Normal);
                self.tick();
            }
            self.end_ib_stall(&mut stall_start);
            self.ib.consume(chunk);
            remaining -= chunk;
        }
    }

    /// Close an open IB-starvation window on the trace bus.
    fn end_ib_stall(&mut self, start: &mut Option<u64>) {
        if let Some(from) = start.take() {
            let now = self.cycle;
            self.mem.trace.emit_with(|| TraceEvent::StallEnd {
                class: StallClass::IbEmpty,
                cycle: now,
                cycles: now - from,
            });
        }
    }

    // ---- instruction fetch/decode ----

    fn peek_code(&mut self, va: u32, want: usize) {
        while self.decode_buf.len() < want {
            let a = va.wrapping_add(self.decode_buf.len() as u32);
            let pa = self.raw(VirtAddr(a));
            let in_page = VirtAddr(a).remaining_in(PAGE_SIZE) as usize;
            let take = in_page.min(want - self.decode_buf.len());
            self.mem.phys().append_to(pa, take, &mut self.decode_buf);
        }
    }

    /// Decode the instruction at `pc` (untimed; I-stream timing is the IB's
    /// job), consulting the decode cache when enabled.
    ///
    /// Cache validity: a hit is served only when (a) the memory system's
    /// code epoch matches the epoch the cache was filled under — any store
    /// overlapping watched code bytes, page remap, or direct physical
    /// access bumps the epoch and empties the cache — and (b) the entry was
    /// cached under the current page-table tuple (mapping context). TB
    /// invalidates flush via [`Cpu::flush_decode_cache`]; LDPCTX needs no
    /// cache action at all — the incoming context resolves to its own tag
    /// space, and PTE rewrites are caught by the watched translation walk.
    fn fetch_decode(&mut self) -> Instruction {
        let pc = self.pc();
        if !self.config.decode_cache {
            return self.decode_at(pc);
        }
        let epoch = self.mem.code_epoch();
        let tables = self.mem.tables;
        if let Some(insn) = self.icache.lookup(pc, epoch, &tables) {
            return insn;
        }
        let insn = self.decode_at(pc);
        self.watch_code_range(pc, insn.len);
        self.icache.insert(pc, insn);
        insn
    }

    fn decode_at(&mut self, pc: u32) -> Instruction {
        self.decode_buf.clear();
        let mut want = 8;
        loop {
            self.peek_code(pc, want);
            match vax_arch::decode(&self.decode_buf) {
                Ok(insn) => return insn,
                Err(vax_arch::DecodeError::Truncated) if want < 64 => want += 8,
                Err(e) => self.fatal(
                    "illegal-insn",
                    format!("illegal instruction at {pc:#x}: {e}"),
                ),
            }
        }
    }

    /// Register the physical memory backing `[pc, pc + len)` with the
    /// memory system's code watch, page by page (the range may cross pages
    /// with non-contiguous frames). Translation goes through the *watched*
    /// walk, so the PTEs mapping this code are watched too: remapping the
    /// code by rewriting its PTEs invalidates just like rewriting its
    /// bytes.
    fn watch_code_range(&mut self, pc: u32, len: u32) {
        let mut off = 0;
        while off < len {
            let va = VirtAddr(pc.wrapping_add(off));
            let pa = self
                .mem
                .raw_translate_watched(va)
                .unwrap_or_else(|e| self.fatal("unmapped", format!("unmapped address {va}: {e}")));
            let chunk = va.remaining_in(PAGE_SIZE).min(len - off);
            self.mem.watch_code(pa, chunk);
            off += chunk;
        }
    }

    /// Drop every cached decode, for every mapping context. Called on TB
    /// invalidates (TBIA/TBIS): the guest announces PTE rewrites for the
    /// running context this way, and the watch-epoch mechanism cannot see
    /// stores to page-table memory.
    pub fn flush_decode_cache(&mut self) {
        self.icache.flush();
    }

    /// Host-side decode-cache counters (never part of simulated results).
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.icache.stats()
    }

    // ---- interrupt dispatch ----

    fn dispatch_interrupt(&mut self, ipl: u8, scb_slot: u32, hardware: bool) {
        let cycle = self.cycle;
        self.mem.trace.emit_with(|| TraceEvent::Interrupt {
            ipl,
            hardware,
            cycle,
        });
        let r = self.cs.interrupt;
        // State sequencing.
        self.c_span(r, 0, self.cs.interrupt_read_off);
        // Vector read.
        let vec_va = self.config.scb_base.add(scb_slot * 4);
        let target = self.read_data(r.at(self.cs.interrupt_read_off), vec_va, 4) as u32;
        // Push PSL then PC (PC ends on top, as REI expects).
        let sp = self.regs[14].wrapping_sub(4);
        self.write_data(
            r.at(self.cs.interrupt_push_off),
            VirtAddr(sp),
            4,
            self.psl.to_u32() as u64,
        );
        let sp2 = sp.wrapping_sub(4);
        self.write_data(
            r.at(self.cs.interrupt_push_off + 1),
            VirtAddr(sp2),
            4,
            self.pc() as u64,
        );
        self.regs[14] = sp2;
        // Cleanup cycles.
        let fin = self.cs.interrupt_push_off + 2;
        self.c_span(r, fin, r.len - fin);
        self.psl.ipl = ipl;
        self.psl.cur_mode = AccessMode::Kernel;
        self.set_pc(target);
        if hardware {
            self.stats.hw_interrupts += 1;
        } else {
            self.stats.sw_interrupts += 1;
        }
    }

    // ---- the step ----

    /// Execute one instruction or dispatch one pending interrupt.
    pub fn step(&mut self) -> StepOutcome {
        // Microcode patch aborts accrue with time.
        if self.config.patch_interval.is_some() {
            while self.cycle >= self.next_patch {
                self.c(self.cs.abort.entry());
                self.next_patch += self.config.patch_interval.unwrap();
            }
        }
        // Interval timer.
        if let Some(ti) = self.config.timer_interval {
            if self.cycle >= self.next_timer {
                self.next_timer = self.cycle + ti;
                self.pending_hw = Some((self.config.timer_ipl, VEC_TIMER));
            }
        }
        // Machine check: a latched parity fault becomes the highest-priority
        // hardware interrupt. The pending slot holds a single interrupt, so
        // a machine check supersedes a not-yet-delivered timer or device
        // interrupt — a deterministic lost-interrupt, mirroring how a real
        // 780 error condition preempts lower-priority requests.
        if self.mem.take_parity_fault() {
            self.stats.machine_checks += 1;
            self.pending_hw = Some((MCHK_IPL, VEC_MCHK));
        }
        // Interrupt delivery.
        if let Some((ipl, slot)) = self.pending_hw {
            if ipl > self.psl.ipl {
                self.pending_hw = None;
                self.dispatch_interrupt(ipl, slot, true);
                return StepOutcome::Interrupt;
            }
        }
        if let Some(level) = self.iprs.pending_soft() {
            if level > self.psl.ipl {
                self.iprs.clear_soft(level);
                self.dispatch_interrupt(level, VEC_SOFT, false);
                return StepOutcome::Interrupt;
            }
        }

        let insn = self.fetch_decode();
        let insn_pc = self.pc();
        let insn_end = insn_pc.wrapping_add(insn.len);

        // IRD: wait for the opcode byte, then the one decode cycle.
        self.consume_istream(1, self.cs.ird.at(1));
        self.c(self.cs.ird.at(0));

        // Operand specifier processing. The scratch vectors live on the Cpu
        // and are taken/returned so steady-state steps never allocate
        // (`exec::execute` needs `&mut self` alongside them).
        let mut operands = std::mem::take(&mut self.operands_buf);
        operands.clear();
        let mut writebacks = std::mem::take(&mut self.writebacks_buf);
        writebacks.clear();
        let mut spec_i = 0usize;
        let mut cursor = self.pc().wrapping_add(1);
        let mut first_spec_mode = None;
        for (op_i, kind) in insn.opcode.operands().iter().enumerate() {
            match kind {
                OperandKind::Spec(access, dt) => {
                    let spec = insn.specifiers[spec_i];
                    let sr: &SpecRegions = if spec_i == 0 {
                        &self.cs.spec1
                    } else {
                        &self.cs.spec26
                    };
                    let (ib_wait, index_prefix) = (sr.ib_wait, sr.index_prefix);
                    if spec_i == 0 {
                        first_spec_mode = Some(spec.mode);
                        self.stats.spec1_count += 1;
                    } else {
                        self.stats.spec26_count += 1;
                    }
                    let enc_len = spec.encoded_len(dt.size());
                    cursor = cursor.wrapping_add(enc_len);
                    self.consume_istream(enc_len, ib_wait);
                    let first = spec_i == 0;
                    let (val, wb) =
                        self.eval_spec(&spec, *access, *dt, first, cursor, index_prefix, op_i);
                    operands.push(val);
                    if let Some(wb) = wb {
                        writebacks.push(wb);
                    }
                    spec_i += 1;
                }
                OperandKind::Branch(w) => {
                    cursor = cursor.wrapping_add(w.size());
                    self.consume_istream(w.size(), self.cs.bdisp.at(1));
                }
            }
        }

        // Bookkeeping.
        self.stats.instructions += 1;
        self.stats.istream_bytes += insn.len as u64;
        self.stats.opcode_counts[insn.opcode as usize] += 1;
        if insn.branch_disp.is_some() {
            self.stats.branch_disps += 1;
        }
        if insn.opcode == Opcode::Ldpctx {
            self.stats.context_switches += 1;
            let cycle = self.cycle;
            self.mem
                .trace
                .emit_with(|| TraceEvent::ContextSwitch { cycle });
        }

        // PC now names the next sequential instruction (pushed by calls).
        self.regs[15] = insn_end;

        // Execute.
        let fused = self.config.fusion
            && insn.opcode.group() == vax_arch::OpcodeGroup::Simple
            && insn.opcode.branch_kind() == BranchKind::None
            && first_spec_mode == Some(AddressingMode::Literal);
        let flow = exec::execute(self, &insn, &mut operands, fused);

        // Write-backs (charged to the specifier routines' final µops).
        for wb in &writebacks {
            let value = operands[wb.operand_index].value;
            match (wb.loc, wb.upc) {
                (Loc::Mem(va), Some(upc)) => self.write_data(upc, va, wb.size, value),
                (Loc::Reg(r), Some(upc)) => {
                    self.c(upc);
                    self.set_reg(r, wb.size, value);
                }
                (Loc::Reg(r), None) => self.set_reg(r, wb.size, value),
                (Loc::Mem(va), None) => {
                    let upc = self.cs.spec26.ib_wait; // unreachable in practice
                    self.write_data(upc, va, wb.size, value)
                }
                (Loc::None, _) => {}
            }
        }

        // Return the scratch vectors for the next step.
        self.operands_buf = operands;
        self.writebacks_buf = writebacks;

        // Control flow resolution.
        let kind = insn.opcode.branch_kind();
        let outcome = match flow {
            Flow::Normal => {
                if kind != BranchKind::None {
                    self.stats.record_branch(kind, false);
                }
                StepOutcome::Retired(insn.opcode)
            }
            Flow::TakenDisp => {
                // Branch displacement target computation (only when taken).
                self.c(self.cs.bdisp.at(0));
                let target = insn_end.wrapping_add(insn.branch_disp.unwrap() as u32);
                self.stats.record_branch(kind, true);
                self.set_pc(target);
                StepOutcome::Retired(insn.opcode)
            }
            Flow::Jump(target) => {
                if kind != BranchKind::None {
                    self.stats.record_branch(kind, true);
                }
                self.set_pc(target);
                StepOutcome::Retired(insn.opcode)
            }
            Flow::Halt => StepOutcome::Halted,
        };
        if matches!(outcome, StepOutcome::Retired(_)) {
            self.flight.record(insn_pc, self.cycle, &insn);
            let cycle = self.cycle;
            self.mem.trace.emit_with(|| TraceEvent::Retire {
                pc: insn_pc,
                opcode: insn.opcode.byte() as u16,
                mnemonic: insn.opcode.mnemonic(),
                size: insn.len,
                cycle,
            });
        }
        outcome
    }

    // ---- specifier evaluation ----

    #[allow(clippy::too_many_arguments)]
    fn eval_spec(
        &mut self,
        spec: &Specifier,
        access: AccessType,
        dt: DataType,
        first: bool,
        pc_after: u32,
        index_prefix: Region,
        operand_index: usize,
    ) -> (EvaldOperand, Option<PendingWb>) {
        use AddressingMode::*;
        let size = dt.size();
        let flavor = match access {
            AccessType::Read => SpecFlavor::Read,
            AccessType::Write => SpecFlavor::Write,
            AccessType::Modify => SpecFlavor::Modify,
            AccessType::Address | AccessType::Field => SpecFlavor::Address,
        };
        let sr = if first {
            &self.cs.spec1
        } else {
            &self.cs.spec26
        };
        let r = sr.routine(spec.mode, flavor);
        let rn = spec.reg;

        // Quad-width data repeats its data-reference µop at the same µPC;
        // when that µop is the routine's entry (and references the operand,
        // not a deferred pointer), the histogram's entry count runs one
        // ahead of the evaluation count. Record the repeat so validation
        // can reconcile the instruments exactly.
        if size > 4
            && spec.mode != AutoincrementDeferred
            && matches!(self.cs.map.op(r.entry()), MicroOp::Read | MicroOp::Write)
        {
            if first {
                self.stats.spec1_quad_repeats += 1;
            } else {
                self.stats.spec26_quad_repeats += 1;
            }
        }

        // Compute the effective address (with cycle emission for the
        // address-formation µops), or the value for non-memory modes.
        let addr: Option<VirtAddr> = match spec.mode {
            Literal | Immediate => None,
            Register => None,
            RegisterDeferred => Some(VirtAddr(self.get_reg32(rn))),
            Autoincrement => {
                let a = self.get_reg32(rn);
                self.bump_reg(rn, size as i32);
                Some(VirtAddr(a))
            }
            Autodecrement => {
                self.bump_reg(rn, -(size as i32));
                Some(VirtAddr(self.get_reg32(rn)))
            }
            AutoincrementDeferred => {
                let ptr = VirtAddr(self.get_reg32(rn));
                self.bump_reg(rn, 4);
                // Pointer read is the first R of the routine.
                let a = self.read_data(r.at(0), ptr, 4) as u32;
                self.c(r.at(1));
                Some(VirtAddr(a))
            }
            ByteDisp | WordDisp | LongDisp => {
                Some(VirtAddr(self.get_reg32(rn).wrapping_add(spec.value as u32)))
            }
            ByteDispDeferred | WordDispDeferred | LongDispDeferred => {
                let ptr = VirtAddr(self.get_reg32(rn).wrapping_add(spec.value as u32));
                self.c(r.at(0));
                let a = self.read_data(r.at(1), ptr, 4) as u32;
                Some(VirtAddr(a))
            }
            Absolute => Some(VirtAddr(spec.value as u32)),
            PcRelative => Some(VirtAddr(pc_after.wrapping_add(spec.value as u32))),
            PcRelativeDeferred => {
                let ptr = VirtAddr(pc_after.wrapping_add(spec.value as u32));
                self.c(r.at(0));
                let a = self.read_data(r.at(1), ptr, 4) as u32;
                Some(VirtAddr(a))
            }
        };

        // Index prefix: one more address-computation cycle.
        let addr = match (spec.index, addr) {
            (Some(ix), Some(a)) => {
                self.c(index_prefix.entry());
                Some(VirtAddr(
                    a.0.wrapping_add(self.get_reg32(ix).wrapping_mul(size)),
                ))
            }
            (_, a) => a,
        };

        // Deferred modes already emitted their pointer cycles above; the
        // remaining µops of the routine are interpreted here.
        match (spec.mode, flavor) {
            // -- literal / immediate --
            (Literal, _) | (Immediate, _) => {
                self.c(r.at(0));
                (
                    EvaldOperand {
                        value: spec.value as u64,
                        loc: Loc::None,
                        size,
                    },
                    None,
                )
            }
            // -- register --
            (Register, SpecFlavor::Read) => {
                self.c(r.at(0));
                (
                    EvaldOperand {
                        value: self.get_reg(rn, size),
                        loc: Loc::Reg(rn),
                        size,
                    },
                    None,
                )
            }
            (Register, SpecFlavor::Write) => (
                EvaldOperand {
                    value: 0,
                    loc: Loc::Reg(rn),
                    size,
                },
                Some(PendingWb {
                    operand_index,
                    upc: Some(r.at(0)),
                    loc: Loc::Reg(rn),
                    size,
                }),
            ),
            (Register, SpecFlavor::Modify) => {
                self.c(r.at(0));
                (
                    EvaldOperand {
                        value: self.get_reg(rn, size),
                        loc: Loc::Reg(rn),
                        size,
                    },
                    Some(PendingWb {
                        operand_index,
                        upc: None,
                        loc: Loc::Reg(rn),
                        size,
                    }),
                )
            }
            (Register, SpecFlavor::Address) => {
                self.c(r.at(0));
                (
                    EvaldOperand {
                        value: self.get_reg(rn, size),
                        loc: Loc::Reg(rn),
                        size,
                    },
                    None,
                )
            }
            // -- memory modes --
            (mode, SpecFlavor::Read) => {
                let a = addr.expect("memory mode has address");
                let data_off = match mode {
                    RegisterDeferred => 0,
                    Autoincrement => {
                        // read then increment-bookkeeping cycle
                        let v = self.read_data(r.at(0), a, size);
                        self.c(r.at(1));
                        return (
                            EvaldOperand {
                                value: v,
                                loc: Loc::Mem(a),
                                size,
                            },
                            None,
                        );
                    }
                    Autodecrement => {
                        self.c(r.at(0));
                        1
                    }
                    AutoincrementDeferred => 2,
                    ByteDisp | WordDisp | LongDisp | Absolute | PcRelative => {
                        self.c(r.at(0));
                        1
                    }
                    ByteDispDeferred | WordDispDeferred | LongDispDeferred | PcRelativeDeferred => {
                        2
                    }
                    _ => unreachable!(),
                };
                let v = self.read_data(r.at(data_off), a, size);
                (
                    EvaldOperand {
                        value: v,
                        loc: Loc::Mem(a),
                        size,
                    },
                    None,
                )
            }
            (mode, SpecFlavor::Write) => {
                let a = addr.expect("memory mode has address");
                let wb_off = r.len - 1;
                // Address-formation compute cycles not yet emitted.
                match mode {
                    RegisterDeferred => {}
                    Autoincrement | Autodecrement | ByteDisp | WordDisp | LongDisp | Absolute
                    | PcRelative => self.c(r.at(0)),
                    AutoincrementDeferred
                    | ByteDispDeferred
                    | WordDispDeferred
                    | LongDispDeferred
                    | PcRelativeDeferred => {}
                    _ => unreachable!(),
                }
                (
                    EvaldOperand {
                        value: 0,
                        loc: Loc::Mem(a),
                        size,
                    },
                    Some(PendingWb {
                        operand_index,
                        upc: Some(r.at(wb_off)),
                        loc: Loc::Mem(a),
                        size,
                    }),
                )
            }
            (mode, SpecFlavor::Modify) => {
                let a = addr.expect("memory mode has address");
                let wb_off = r.len - 1;
                let data_off = match mode {
                    RegisterDeferred => 0,
                    Autoincrement => {
                        let v = self.read_data(r.at(0), a, size);
                        self.c(r.at(1));
                        return (
                            EvaldOperand {
                                value: v,
                                loc: Loc::Mem(a),
                                size,
                            },
                            Some(PendingWb {
                                operand_index,
                                upc: Some(r.at(wb_off)),
                                loc: Loc::Mem(a),
                                size,
                            }),
                        );
                    }
                    Autodecrement | ByteDisp | WordDisp | LongDisp | Absolute | PcRelative => {
                        self.c(r.at(0));
                        1
                    }
                    AutoincrementDeferred
                    | ByteDispDeferred
                    | WordDispDeferred
                    | LongDispDeferred
                    | PcRelativeDeferred => 2,
                    _ => unreachable!(),
                };
                let v = self.read_data(r.at(data_off), a, size);
                (
                    EvaldOperand {
                        value: v,
                        loc: Loc::Mem(a),
                        size,
                    },
                    Some(PendingWb {
                        operand_index,
                        upc: Some(r.at(wb_off)),
                        loc: Loc::Mem(a),
                        size,
                    }),
                )
            }
            (mode, SpecFlavor::Address) => {
                let a = addr.expect("memory mode has address");
                match mode {
                    Autoincrement | Autodecrement => {
                        self.c(r.at(0));
                        self.c(r.at(1));
                    }
                    AutoincrementDeferred => self.c(r.at(1)),
                    ByteDispDeferred | WordDispDeferred | LongDispDeferred | PcRelativeDeferred => {
                    }
                    _ => self.c(r.at(0)),
                }
                (
                    EvaldOperand {
                        value: a.0 as u64,
                        loc: Loc::Mem(a),
                        size,
                    },
                    None,
                )
            }
        }
    }

    // ---- register helpers ----

    /// Read register `r` (pair for quad data).
    pub(crate) fn get_reg(&self, r: Reg, size: u32) -> u64 {
        let n = r.number() as usize;
        let lo = self.regs[n] as u64;
        if size > 4 {
            let hi = self.regs[(n + 1) & 15] as u64;
            lo | (hi << 32)
        } else {
            lo & mask(size)
        }
    }

    fn get_reg32(&self, r: Reg) -> u32 {
        self.regs[r.number() as usize]
    }

    /// Write register `r` (pair for quad data). Byte/word writes merge into
    /// the low bits, as on the VAX.
    pub(crate) fn set_reg(&mut self, r: Reg, size: u32, value: u64) {
        let n = r.number() as usize;
        if size > 4 {
            self.regs[n] = value as u32;
            self.regs[(n + 1) & 15] = (value >> 32) as u32;
        } else if size == 4 {
            self.regs[n] = value as u32;
        } else {
            let m = mask(size) as u32;
            self.regs[n] = (self.regs[n] & !m) | (value as u32 & m);
        }
    }

    fn bump_reg(&mut self, r: Reg, delta: i32) {
        let n = r.number() as usize;
        self.regs[n] = self.regs[n].wrapping_add(delta as u32);
    }
}

/// Low-`size`-bytes mask.
pub(crate) fn mask(size: u32) -> u64 {
    if size >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * size)) - 1
    }
}
