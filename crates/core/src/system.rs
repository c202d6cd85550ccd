//! System construction: physical memory layout, address spaces, kernel
//! installation, and the run loop.

use vax_arch::Psl;
use vax_asm::Image;
use vax_cpu::ebox::{DEVICE_IPL, VEC_CHMK, VEC_DEVICE, VEC_MCHK, VEC_SOFT, VEC_TIMER};
use vax_cpu::{Cpu, CpuConfig, StepOutcome};
use vax_mem::addr::PAGE_SIZE;
use vax_mem::{MemConfig, MemorySystem, PageTables, PhysAddr, Pte, VirtAddr};

use crate::faults::{FaultKind, FaultPlan, WatchdogExpired};
use crate::kernel::{self, KernelConfig, KernelEntries};
use crate::measurement::Measurement;
use crate::sampler::{IntervalSample, TimeSeries};

/// Whole-system configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemConfig {
    /// Memory subsystem geometry.
    pub mem: MemConfig,
    /// CPU timing/behaviour.
    pub cpu: CpuConfig,
    /// Kernel scheduling behaviour.
    pub kernel: KernelConfig,
}

/// One user process to load.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// P0 image (code + initialized data). The origin must be page-aligned
    /// or at least leave page 0 free (0x200 is conventional).
    pub image: Image,
    /// Entry-point label within the image.
    pub entry: String,
    /// Zero-filled data pages mapped after the image.
    pub bss_pages: u32,
    /// Stack pages mapped at the top of the P0 region.
    pub stack_pages: u32,
}

impl ProcessSpec {
    /// A process with default bss (16 pages) and stack (8 pages).
    pub fn new(image: Image, entry: &str) -> ProcessSpec {
        ProcessSpec {
            image,
            entry: entry.to_string(),
            bss_pages: 16,
            stack_pages: 8,
        }
    }

    /// Override the number of zero-filled data pages.
    pub fn with_bss_pages(mut self, n: u32) -> ProcessSpec {
        self.bss_pages = n;
        self
    }

    /// Override the number of stack pages.
    pub fn with_stack_pages(mut self, n: u32) -> ProcessSpec {
        self.stack_pages = n;
        self
    }
}

/// System-space base of the SCB (must match [`CpuConfig::scb_base`]).
const S0_BASE: u32 = 0x8000_0000;
/// Number of system page-table entries (covers 4 MB of S0 space).
const SYS_PT_ENTRIES: u32 = 8192;

/// Builds a complete simulated machine.
#[derive(Debug)]
pub struct SystemBuilder {
    config: SystemConfig,
    mem: MemorySystem,
    next_pfn: u32,
    next_sys_page: u32,
    processes: Vec<ProcessSpec>,
}

impl SystemBuilder {
    /// Start building a machine.
    pub fn new(config: SystemConfig) -> SystemBuilder {
        let mut mem = MemorySystem::new(config.mem);
        // The system page table occupies the bottom of physical memory.
        let pt_bytes = SYS_PT_ENTRIES * 4;
        mem.tables = PageTables {
            sbr: PhysAddr(0),
            slr: SYS_PT_ENTRIES,
            p0br: VirtAddr(0),
            p0lr: 0,
            p1br: VirtAddr(0),
            p1lr: 0,
        };
        let mut builder = SystemBuilder {
            config,
            mem,
            next_pfn: pt_bytes.div_ceil(PAGE_SIZE),
            next_sys_page: 0,
            processes: Vec::new(),
        };
        // Page 0 of system space is the SCB.
        let scb = builder.alloc_sys_pages(1);
        assert_eq!(scb.0, S0_BASE);
        assert_eq!(
            scb.0, config.cpu.scb_base.0,
            "SCB base must match the CPU configuration"
        );
        builder
    }

    fn alloc_frame(&mut self) -> u32 {
        let pfn = self.next_pfn;
        self.next_pfn += 1;
        let limit = (self.config.mem.mem_bytes as u32) / PAGE_SIZE;
        assert!(pfn < limit, "out of physical memory frames");
        pfn
    }

    /// Allocate `n` contiguous system-space pages, returning the first VA.
    fn alloc_sys_pages(&mut self, n: u32) -> VirtAddr {
        let first = self.next_sys_page;
        assert!(first + n <= SYS_PT_ENTRIES, "out of system address space");
        for i in 0..n {
            let pfn = self.alloc_frame();
            let pte_pa = PhysAddr((first + i) * 4);
            self.mem
                .phys_mut()
                .write(pte_pa, 4, Pte::valid(pfn).0 as u64);
        }
        self.next_sys_page += n;
        VirtAddr(S0_BASE + first * PAGE_SIZE)
    }

    /// Write bytes into mapped memory by virtual address (untimed).
    fn poke(&mut self, va: VirtAddr, bytes: &[u8]) {
        let mut off = 0usize;
        while off < bytes.len() {
            let a = va.add(off as u32);
            let pa = self.mem.raw_translate(a).expect("poke target not mapped");
            let in_page = (PAGE_SIZE - a.offset()) as usize;
            let take = in_page.min(bytes.len() - off);
            self.mem.phys_mut().load(pa, &bytes[off..off + take]);
            off += take;
        }
    }

    /// Add a user process. Returns its index.
    pub fn add_process(&mut self, spec: ProcessSpec) -> usize {
        self.processes.push(spec);
        self.processes.len() - 1
    }

    /// Finish construction: lay out processes, install the kernel, and boot
    /// the CPU to the kernel's entry point.
    ///
    /// Implemented as [`SystemBuilder::build_image`] followed by
    /// [`System::from_boot_image`], so a machine restored from a cached
    /// image is *the same code path* as a freshly built one — warm-cache
    /// hits cannot diverge from cold builds by construction.
    ///
    /// # Panics
    /// Panics if no process was added, or resources are exhausted.
    pub fn build(self) -> System {
        System::from_boot_image(&self.build_image())
    }

    /// Run the full layout (process address spaces, kernel, SCB, stacks)
    /// and capture the result as a plain-data [`BootImage`] instead of a
    /// live machine. The image is `Send`, cheap to clone, and can be
    /// rehydrated any number of times with [`System::from_boot_image`].
    ///
    /// # Panics
    /// Panics if no process was added, or resources are exhausted.
    pub fn build_image(mut self) -> BootImage {
        self.lay_out()
    }

    /// [`SystemBuilder::build_image`]'s body; it leaves the laid-out memory
    /// in the builder, where tests can compare the image against it.
    fn lay_out(&mut self) -> BootImage {
        assert!(
            !self.processes.is_empty(),
            "a system needs at least one process"
        );
        let processes = std::mem::take(&mut self.processes);
        let mut pcb_vas = Vec::with_capacity(processes.len());

        for spec in &processes {
            let pcb = self.build_process(spec);
            pcb_vas.push(pcb.0);
        }

        // Kernel image in system space.
        let kcfg = self.config.kernel;
        // Assemble at the next free system page, then allocate the pages
        // the image needs, which start at that same page.
        let (kimage, entries) =
            kernel::build(S0_BASE + self.next_sys_page * PAGE_SIZE, &pcb_vas, kcfg);
        let kbase = self.alloc_sys_pages((kimage.bytes.len() as u32).div_ceil(PAGE_SIZE));
        assert_eq!(kimage.origin, kbase.0);
        self.poke(kbase, &kimage.bytes);

        // Kernel boot stack.
        let kstack = self.alloc_sys_pages(4);
        let kstack_top = kstack.0 + 4 * PAGE_SIZE;

        // SCB vectors.
        let scb = VirtAddr(S0_BASE);
        self.poke(scb.add(VEC_CHMK * 4), &entries.chmk_handler.to_le_bytes());
        self.poke(scb.add(VEC_TIMER * 4), &entries.timer_isr.to_le_bytes());
        self.poke(scb.add(VEC_SOFT * 4), &entries.softint_isr.to_le_bytes());
        self.poke(scb.add(VEC_MCHK * 4), &entries.mchk_isr.to_le_bytes());
        self.poke(scb.add(VEC_DEVICE * 4), &entries.device_isr.to_le_bytes());

        // The builder only ever touched physical memory and the table
        // registers (pokes are untimed raw stores); cache, TB, and write
        // buffer are still in their reset state, so phys + tables + the
        // boot register file capture the whole machine.
        let mut regs = [0u32; 16];
        regs[14] = kstack_top;
        regs[15] = entries.boot;
        let written = self.mem.phys().written();
        let used = written.len() - written.iter().rev().take_while(|&&b| b == 0).count();
        BootImage {
            config: self.config,
            phys: written[..used].to_vec(),
            tables: self.mem.tables,
            regs,
            psl: Psl::new_kernel(31),
            nproc: processes.len(),
            entries,
        }
    }

    /// Lay out one process: P0 pages (guard/code/bss/stack), page table in
    /// system space, and its PCB. Returns the PCB system VA.
    fn build_process(&mut self, spec: &ProcessSpec) -> VirtAddr {
        let image = &spec.image;
        assert!(
            image.origin >= PAGE_SIZE,
            "process images must leave page 0 for the guard/null page"
        );
        let code_end = image.origin + image.bytes.len() as u32;
        let code_pages = code_end.div_ceil(PAGE_SIZE);
        let total_pages = code_pages + spec.bss_pages + spec.stack_pages;

        // P0 page table: contiguous system pages.
        let pt_bytes = total_pages * 4;
        let pt_pages = pt_bytes.div_ceil(PAGE_SIZE);
        let p0br = self.alloc_sys_pages(pt_pages);
        // Map every P0 page to a fresh frame.
        for vpn in 0..total_pages {
            let pfn = self.alloc_frame();
            let pte_va = p0br.add(vpn * 4);
            let pte_pa = self
                .mem
                .raw_translate(pte_va)
                .expect("page-table page not mapped");
            self.mem
                .phys_mut()
                .write(pte_pa, 4, Pte::valid(pfn).0 as u64);
        }
        // Install temporary tables to poke the image in.
        let saved = self.mem.tables;
        self.mem.tables.p0br = p0br;
        self.mem.tables.p0lr = total_pages;
        self.poke(VirtAddr(image.origin), &image.bytes);
        self.mem.tables = saved;

        let sp_top = total_pages * PAGE_SIZE;
        let entry = image.addr_of(&spec.entry);

        // PCB.
        let pcb = self.alloc_sys_pages(1);
        let mut pcb_bytes = [0u8; 84];
        pcb_bytes[56..60].copy_from_slice(&sp_top.to_le_bytes());
        pcb_bytes[60..64].copy_from_slice(&entry.to_le_bytes());
        pcb_bytes[64..68].copy_from_slice(&Psl::new_user().to_u32().to_le_bytes());
        pcb_bytes[68..72].copy_from_slice(&p0br.0.to_le_bytes());
        pcb_bytes[72..76].copy_from_slice(&total_pages.to_le_bytes());
        // P1 unused (stack lives at the top of P0 — see DESIGN.md).
        pcb_bytes[76..80].copy_from_slice(&0u32.to_le_bytes());
        pcb_bytes[80..84].copy_from_slice(&0u32.to_le_bytes());
        self.poke(pcb, &pcb_bytes);
        pcb
    }
}

/// A booted machine captured as plain data: the physical-memory contents
/// after layout (trimmed of trailing zero bytes), the page-table registers,
/// and the boot register file. Unlike a [`System`] it never runs, so a warm
/// cache can hand one image to any worker thread and every rehydration
/// starts from the same state; rehydration via [`System::from_boot_image`]
/// costs a memcpy of the retained bytes instead of a full layout.
#[derive(Debug, Clone)]
pub struct BootImage {
    config: SystemConfig,
    /// Physical memory up to the last nonzero byte; the rest is zero.
    phys: Vec<u8>,
    tables: PageTables,
    regs: [u32; 16],
    psl: Psl,
    nproc: usize,
    entries: KernelEntries,
}

impl BootImage {
    /// The configuration the image was built for.
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Size in bytes of the retained (nonzero) physical-memory prefix.
    pub fn retained_bytes(&self) -> usize {
        self.phys.len()
    }
}

/// How many steps pass between watchdog deadline checks. `Instant::now()`
/// is far too expensive per step; at ~3M simulated instructions/s this
/// stride still bounds overrun detection to well under a millisecond.
const WATCHDOG_STRIDE: u32 = 2048;

/// A booted machine.
#[derive(Debug)]
pub struct System {
    /// The CPU (with memory, monitor, and statistics attached).
    pub cpu: Cpu,
    /// Number of user processes.
    pub nproc: usize,
    /// Kernel entry points.
    pub entries: KernelEntries,
    /// Scheduled fault injections for the measured interval.
    faults: FaultPlan,
    /// Cooperative watchdog deadline; the run loops panic with
    /// [`WatchdogExpired`] when it passes.
    deadline: Option<std::time::Instant>,
    watchdog_countdown: u32,
}

impl System {
    /// Rehydrate a machine from a captured [`BootImage`]: fresh memory
    /// system (cold cache, TB, and write buffer — exactly the reset state a
    /// cold build leaves them in), image bytes loaded, table registers and
    /// boot register file restored. [`SystemBuilder::build`] routes through
    /// this, so restored and freshly built machines are indistinguishable.
    pub fn from_boot_image(img: &BootImage) -> System {
        let mut mem = MemorySystem::new(img.config.mem);
        mem.tables = img.tables;
        mem.phys_mut().load(PhysAddr(0), &img.phys);
        let mut cpu = Cpu::new(img.config.cpu, mem);
        cpu.regs = img.regs;
        cpu.psl = img.psl;
        cpu.set_pc(img.regs[15]);
        System {
            cpu,
            nproc: img.nproc,
            entries: img.entries.clone(),
            faults: FaultPlan::none(),
            deadline: None,
            watchdog_countdown: WATCHDOG_STRIDE,
        }
    }

    /// Install a fault plan. Events fire between instructions of the next
    /// *measured* interval, keyed by the measured-instruction count (the
    /// warm-up is never perturbed).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Arm (or disarm, with `None`) the cooperative watchdog. When the
    /// deadline passes, the run loops panic with [`WatchdogExpired`];
    /// the pool supervisor catches it and classifies the shard as timed
    /// out. Checked every [`WATCHDOG_STRIDE`] steps.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
        self.watchdog_countdown = WATCHDOG_STRIDE;
    }

    #[inline]
    fn check_watchdog(&mut self) {
        self.watchdog_countdown -= 1;
        if self.watchdog_countdown == 0 {
            self.watchdog_countdown = WATCHDOG_STRIDE;
            if let Some(d) = self.deadline {
                if std::time::Instant::now() >= d {
                    std::panic::panic_any(WatchdogExpired);
                }
            }
        }
    }

    /// Fire every fault due at the current measured-instruction count.
    #[inline]
    fn poll_faults(&mut self) {
        while let Some(ev) = self.faults.peek() {
            if ev.at_instruction > self.cpu.stats.instructions {
                break;
            }
            self.faults.advance();
            self.apply_fault(ev.kind);
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Parity => self.cpu.mem.inject_parity_fault(),
            FaultKind::TbInvalidate => {
                // What a guest TBIA does (see `exec`'s MTPR handling): the
                // refills are serviced by the ordinary TB-miss microcode,
                // counted by both instruments.
                self.cpu.mem.tb_mut().invalidate_all();
                self.cpu.flush_decode_cache();
            }
            FaultKind::DeviceInterrupt => self.cpu.post_interrupt(DEVICE_IPL, VEC_DEVICE),
            FaultKind::SoftRequest(level) => self.cpu.request_soft_interrupt(level),
            FaultKind::SmcWrite => {
                // DMA-style store of a code byte's own value at the current
                // PC: bumps the code-watch epoch (cached decodes for the
                // line are discarded and re-decoded identically) without
                // touching timing or counters.
                let pc = VirtAddr(self.cpu.pc());
                if let Ok(pa) = self.cpu.mem.raw_translate(pc) {
                    let v = self.cpu.mem.value_read(pa, 1);
                    self.cpu.mem.value_write(pa, 1, v);
                }
            }
        }
    }

    /// Run `n` instructions (interrupt dispatches count as one step).
    /// Returns `false` if the machine halted.
    pub fn run_instructions(&mut self, n: u64) -> bool {
        for _ in 0..n {
            if let StepOutcome::Halted = self.cpu.step() {
                return false;
            }
            self.check_watchdog();
        }
        true
    }

    /// Warm up (monitor stopped), then clear all counters and measure `n`
    /// instructions with the monitor running — the paper's experimental
    /// procedure. Returns the measurement.
    pub fn measure(&mut self, warmup: u64, n: u64) -> Measurement {
        let base = self.begin_measurement(warmup);
        for _ in 0..n {
            if let StepOutcome::Halted = self.cpu.step() {
                break;
            }
            self.check_watchdog();
            self.poll_faults();
        }
        self.cpu.hist.stop();
        self.snapshot(base)
    }

    /// [`System::measure`] plus interval sampling: at the first step
    /// boundary past each multiple of `interval_cycles` the live CPU and
    /// memory counters are read in place, and each sample holds the
    /// exported counters' growth since the previous reading. The board is
    /// never copied. Returns the whole-run measurement and the time
    /// series; summing the series reproduces the measurement's exported
    /// counters exactly.
    ///
    /// # Panics
    /// Panics if `interval_cycles` is zero.
    pub fn measure_sampled(
        &mut self,
        warmup: u64,
        n: u64,
        interval_cycles: u64,
    ) -> (Measurement, TimeSeries) {
        assert!(interval_cycles > 0, "interval_cycles must be positive");
        let base = self.begin_measurement(warmup);
        let mut series = TimeSeries::default();
        let mut prev = IntervalSample::default();
        let mut next_boundary = interval_cycles;
        for _ in 0..n {
            if let StepOutcome::Halted = self.cpu.step() {
                break;
            }
            self.check_watchdog();
            self.poll_faults();
            // Instructions are not preemptible: the boundary is the first
            // step boundary at or past the interval mark.
            let rel = self.cpu.cycle - base;
            if rel >= next_boundary {
                let cum = IntervalSample::read(rel, &self.cpu.stats, &self.cpu.mem.stats);
                series.samples.push(cum.since(&prev));
                prev = cum;
                while next_boundary <= rel {
                    next_boundary += interval_cycles;
                }
            }
        }
        self.cpu.hist.stop();
        let rel = self.cpu.cycle - base;
        if rel > prev.end_cycle {
            // Final partial interval.
            let cum = IntervalSample::read(rel, &self.cpu.stats, &self.cpu.mem.stats);
            series.samples.push(cum.since(&prev));
        }
        (self.snapshot(base), series)
    }

    /// Warm up and reset every counter; returns the base cycle number.
    fn begin_measurement(&mut self, warmup: u64) -> u64 {
        self.cpu.hist.stop();
        self.run_instructions(warmup);
        self.cpu.hist.clear();
        self.cpu.stats = vax_cpu::CpuStats::new();
        self.cpu.mem.stats.clear();
        let base = self.cpu.cycle;
        self.cpu.hist.start();
        base
    }

    /// The cumulative measurement since `base` (histogram cloned).
    fn snapshot(&self, base: u64) -> Measurement {
        Measurement {
            hist: self.cpu.hist.clone(),
            cpu_stats: self.cpu.stats.clone(),
            mem_stats: self.cpu.mem.stats,
            cycles: self.cpu.cycle - base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vax_arch::{Opcode, Reg};
    use vax_asm::{Asm, Operand};

    fn spin_process() -> ProcessSpec {
        let mut asm = Asm::new(0x200);
        asm.label("entry");
        asm.insn(
            Opcode::Movl,
            &[Operand::Imm(100), Operand::Reg(Reg::new(2))],
            None,
        );
        asm.label("loop");
        asm.insn(
            Opcode::Addl2,
            &[Operand::Lit(1), Operand::Reg(Reg::new(3))],
            None,
        );
        asm.insn(Opcode::Sobgtr, &[Operand::Reg(Reg::new(2))], Some("loop"));
        asm.insn(
            Opcode::Movl,
            &[Operand::Imm(100), Operand::Reg(Reg::new(2))],
            None,
        );
        asm.insn(Opcode::Brb, &[], Some("loop"));
        ProcessSpec::new(asm.assemble().unwrap(), "entry")
    }

    #[test]
    fn boots_and_runs_user_code() {
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(spin_process());
        let mut sys = b.build();
        assert!(sys.run_instructions(5_000));
        // Interrupt dispatches are steps but not instructions.
        assert!(sys.cpu.stats.instructions >= 4_900);
        // The loop retired many SOBGTRs.
        let sob = sys.cpu.stats.opcode_counts[Opcode::Sobgtr as usize];
        assert!(sob > 1_000, "SOBGTR count {sob}");
        assert!(sys.cpu.stats.hw_interrupts > 0, "timer must fire");
    }

    #[test]
    fn round_robin_switches_processes() {
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(spin_process());
        b.add_process(spin_process());
        b.add_process(spin_process());
        let mut sys = b.build();
        assert!(sys.run_instructions(300_000));
        assert!(
            sys.cpu.stats.context_switches >= 2,
            "expected switches, got {}",
            sys.cpu.stats.context_switches
        );
        assert!(sys.cpu.stats.sw_interrupts > 0, "softints must deliver");
    }

    #[test]
    fn boot_image_rehydrates_identically() {
        let image = {
            let mut b = SystemBuilder::new(SystemConfig::default());
            b.add_process(spin_process());
            b.add_process(spin_process());
            b.build_image()
        };
        assert!(image.retained_bytes() > 0);
        assert!(image.retained_bytes() < 8 << 20, "image must be trimmed");
        let measure = |sys: &mut System| sys.measure(2_000, 10_000);
        let a = measure(&mut System::from_boot_image(&image));
        let b = measure(&mut System::from_boot_image(&image));
        assert_eq!(a, b, "two rehydrations must measure identically");
    }

    /// A process whose image is a spin loop followed by random data that
    /// often ends in a run of zeros.
    fn random_process(rng: &mut StdRng) -> ProcessSpec {
        let mut asm = Asm::new(0x200);
        asm.label("entry");
        asm.insn(Opcode::Brb, &[], Some("entry"));
        let mut data: Vec<u8> = (0..rng.gen_range(0..2_000)).map(|_| rng.gen()).collect();
        data.resize(data.len() + rng.gen_range(0..1_500), 0);
        asm.bytes(&data);
        ProcessSpec::new(asm.assemble().unwrap(), "entry")
            .with_bss_pages(rng.gen_range(0..24))
            .with_stack_pages(rng.gen_range(1..12))
    }

    #[test]
    fn retained_bytes_match_a_flat_trim_over_random_write_sets() {
        let mut rng = StdRng::seed_from_u64(0x0B00_7113);
        for case in 0..16 {
            let mut b = SystemBuilder::new(SystemConfig::default());
            for _ in 0..rng.gen_range(1..=3) {
                b.add_process(random_process(&mut rng));
            }
            // Raw stores far above the frames the layout allocates; about
            // half write zeros, so the written prefix often ends past the
            // last nonzero byte.
            for _ in 0..rng.gen_range(0..6) {
                let pa = rng.gen_range((4u32 << 20)..(8u32 << 20) - 8);
                let v = if rng.gen_bool(0.5) {
                    0
                } else {
                    rng.gen::<u64>()
                };
                b.mem
                    .phys_mut()
                    .write(PhysAddr(pa), rng.gen_range(1..=8), v);
            }
            let image = b.lay_out();

            // Reference: the whole memory as one flat copy, trimmed from the
            // top byte by byte.
            let phys = b.mem.phys();
            let mut flat = Vec::new();
            phys.append_to(PhysAddr(0), phys.size(), &mut flat);
            assert_eq!(flat.len(), 8 << 20);
            let used = flat.len() - flat.iter().rev().take_while(|&&x| x == 0).count();
            assert_eq!(image.retained_bytes(), used, "case {case}");
            assert_eq!(image.phys, flat[..used], "case {case}");
        }
    }

    #[test]
    fn the_board_backs_exactly_the_control_store() {
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(spin_process());
        let mut sys = b.build();
        let locations = sys.cpu.cs.map.len();
        assert!(locations < upc_monitor::BOARD_BUCKETS);
        assert_eq!(sys.cpu.hist.backed_buckets(), locations);
        let m = sys.measure(2_000, 10_000);
        assert_eq!(m.hist.backed_buckets(), locations, "the snapshot too");
        let past = upc_monitor::MicroPc(locations as u16);
        for plane in [upc_monitor::Plane::Normal, upc_monitor::Plane::Stalled] {
            assert_eq!(m.hist.read(past, plane), 0);
            assert_eq!(m.hist.read(upc_monitor::MicroPc(16_383), plane), 0);
        }
    }

    #[test]
    fn measurement_procedure() {
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(spin_process());
        let mut sys = b.build();
        let m = sys.measure(2_000, 10_000);
        assert!(m.cpu_stats.instructions >= 9_900 && m.cpu_stats.instructions <= 10_000);
        assert!(m.cycles > 10_000, "CPI must exceed 1");
        // Histogram cycle conservation: every cycle was recorded.
        assert_eq!(m.hist.total_cycles(), m.cycles);
    }
}
