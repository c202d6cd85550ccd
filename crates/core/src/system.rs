//! System construction: physical memory layout, address spaces, kernel
//! installation, and the run loop.
//!
//! A process is added either ready, as a [`ProcessSpec`] whose bytes the
//! layout copies into its frames, or deferred, as a [`DeferredProcess`]
//! whose frames, page table and PCB the layout builds from its declared
//! [`ProcessShape`] alone. A machine generates a deferred process and
//! loads its bytes the first time its kernel selects it: the step that
//! executes the `MTPR` to PCBB naming the process's PCB. Nothing reads a
//! process's frames before then. The process's page table and PCB live in
//! system pages, which the layout writes; an IB fill probes only the TB
//! and cache tags; and the bytes are read only by decode and execute,
//! after `LDPCTX` and `REI` have run. So a deferred machine runs exactly
//! as the ready one does, and a cell that never switches generates one
//! program instead of all of them.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use vax_arch::Psl;
use vax_asm::Image;
use vax_cpu::ebox::{DEVICE_IPL, SCB_BASE, VEC_CHMK, VEC_DEVICE, VEC_MCHK, VEC_SOFT, VEC_TIMER};
use vax_cpu::{Cpu, CpuConfig, StepOutcome};
use vax_mem::addr::PAGE_SIZE;
use vax_mem::{MemConfig, MemorySystem, PageTables, PhysAddr, Pte, VirtAddr};

use crate::cancel::{CancelToken, Stop};
use crate::faults::{FaultKind, FaultPlan};
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

    /// What the layout reads of the spec besides its bytes.
    pub fn shape(&self) -> ProcessShape {
        ProcessShape {
            origin: self.image.origin,
            len: self.image.bytes.len() as u32,
            entry: self.image.addr_of(&self.entry),
            bss_pages: self.bss_pages,
            stack_pages: self.stack_pages,
        }
    }
}

/// A process's P0 image without its bytes: all the layout needs to map
/// its frames and write its page table and PCB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessShape {
    /// Virtual address of the image's first byte.
    pub origin: u32,
    /// Image length in bytes.
    pub len: u32,
    /// Virtual address of the entry point.
    pub entry: u32,
    /// Zero-filled data pages mapped after the image.
    pub bss_pages: u32,
    /// Stack pages mapped at the top of the P0 region.
    pub stack_pages: u32,
}

/// A process laid out from its declared shape and generated the first
/// time the kernel selects it (see the module docs).
pub trait DeferredProcess: fmt::Debug + Send + Sync {
    /// The shape every call of [`DeferredProcess::generate`] returns.
    fn shape(&self) -> ProcessShape;

    /// Generate the process. Every call returns the same bytes.
    fn generate(&self) -> ProcessSpec;
}

/// A process as the builder holds it until the layout.
#[derive(Debug)]
enum Process {
    Ready(ProcessSpec),
    Deferred(Box<dyn DeferredProcess>),
}

/// A deferred process after the layout: where its bytes go, and the bytes
/// once a machine sharing the slot has generated them.
#[derive(Debug)]
struct Deferred {
    process: Box<dyn DeferredProcess>,
    /// System VA of the PCB; an `MTPR` to PCBB naming it selects the
    /// process.
    pcb: u32,
    /// Physical address of the image's first byte.
    at: PhysAddr,
    bytes: OnceLock<Vec<u8>>,
}

impl Deferred {
    fn generate(&self) -> Vec<u8> {
        let spec = self.process.generate();
        assert_eq!(
            spec.shape(),
            self.process.shape(),
            "a deferred process must generate in its declared shape"
        );
        spec.image.bytes
    }
}

/// System-space base; its first page is the SCB, at the CPU's [`SCB_BASE`].
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
    processes: Vec<Process>,
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
        assert_eq!(
            scb, SCB_BASE,
            "the SCB page must land at the CPU's SCB base"
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

    /// Add a user process whose bytes the layout loads. Returns its index.
    pub fn add_process(&mut self, spec: ProcessSpec) -> usize {
        self.processes.push(Process::Ready(spec));
        self.processes.len() - 1
    }

    /// Add a user process that each machine built from this layout
    /// generates the first time its kernel selects it. Returns its index.
    pub fn add_deferred(&mut self, process: impl DeferredProcess + 'static) -> usize {
        self.processes.push(Process::Deferred(Box::new(process)));
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
        let nproc = processes.len();
        let mut pcb_vas = Vec::with_capacity(nproc);
        let mut deferred = Vec::new();
        // The frames of deferred processes, ascending: all zero.
        let mut holes = Vec::new();
        for process in processes {
            match process {
                Process::Ready(spec) => {
                    let (pcb, _) = self.build_process(spec.shape(), Some(&spec.image.bytes));
                    pcb_vas.push(pcb.0);
                }
                Process::Deferred(process) => {
                    let shape = process.shape();
                    let (pcb, frames) = self.build_process(shape, None);
                    pcb_vas.push(pcb.0);
                    deferred.push(Deferred {
                        process,
                        pcb: pcb.0,
                        at: PhysAddr(frames.start + shape.origin),
                        bytes: OnceLock::new(),
                    });
                    holes.push(frames);
                }
            }
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
        let scb = SCB_BASE;
        self.poke(scb.add(VEC_CHMK * 4), &entries.chmk_handler.to_le_bytes());
        self.poke(scb.add(VEC_TIMER * 4), &entries.timer_isr.to_le_bytes());
        self.poke(scb.add(VEC_SOFT * 4), &entries.softint_isr.to_le_bytes());
        self.poke(scb.add(VEC_MCHK * 4), &entries.mchk_isr.to_le_bytes());
        self.poke(scb.add(VEC_DEVICE * 4), &entries.device_isr.to_le_bytes());

        // The builder only ever touched physical memory and the table
        // registers (pokes are untimed raw stores); cache, TB, and write
        // buffer are still in their reset state, so phys + tables + the
        // boot register file capture the whole machine. The image keeps
        // what was written up to the last nonzero byte, less the deferred
        // processes' frames.
        let mut regs = [0u32; 16];
        regs[14] = kstack_top;
        regs[15] = entries.boot;
        let written = self.mem.phys().written();
        let used = written.len() - written.iter().rev().take_while(|&&b| b == 0).count();
        let mut phys = Vec::with_capacity(holes.len() + 1);
        let mut start = 0;
        let end_of_memory = std::iter::once(used as u32..used as u32);
        for hole in holes.into_iter().chain(end_of_memory) {
            let end = (hole.start as usize).min(used);
            if end > start {
                phys.push((start as u32, written[start..end].to_vec()));
            }
            start = start.max(hole.end as usize);
        }
        BootImage {
            config: self.config,
            phys,
            tables: self.mem.tables,
            regs,
            psl: Psl::new_kernel(31),
            nproc,
            entries,
            deferred: deferred.into(),
        }
    }

    /// Lay out one process: P0 pages (guard/code/bss/stack), page table in
    /// system space, and its PCB, then copy `bytes`, when given, into the
    /// image's pages. Returns the PCB system VA and the physical range of
    /// the P0 frames, which are contiguous: VA `v` lives at `start + v`.
    fn build_process(
        &mut self,
        shape: ProcessShape,
        bytes: Option<&[u8]>,
    ) -> (VirtAddr, std::ops::Range<u32>) {
        assert!(
            shape.origin >= PAGE_SIZE,
            "process images must leave page 0 for the guard/null page"
        );
        let code_end = shape.origin + shape.len;
        let code_pages = code_end.div_ceil(PAGE_SIZE);
        let total_pages = code_pages + shape.bss_pages + shape.stack_pages;

        // P0 page table: contiguous system pages.
        let pt_bytes = total_pages * 4;
        let pt_pages = pt_bytes.div_ceil(PAGE_SIZE);
        let p0br = self.alloc_sys_pages(pt_pages);
        // Map every P0 page to a fresh frame; nothing else allocates
        // frames meanwhile, so they are consecutive.
        let first_pfn = self.next_pfn;
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
        if let Some(bytes) = bytes {
            // Install temporary tables to poke the image in.
            let saved = self.mem.tables;
            self.mem.tables.p0br = p0br;
            self.mem.tables.p0lr = total_pages;
            self.poke(VirtAddr(shape.origin), bytes);
            self.mem.tables = saved;
        }

        let sp_top = total_pages * PAGE_SIZE;

        // PCB.
        let pcb = self.alloc_sys_pages(1);
        let mut pcb_bytes = [0u8; 84];
        pcb_bytes[56..60].copy_from_slice(&sp_top.to_le_bytes());
        pcb_bytes[60..64].copy_from_slice(&shape.entry.to_le_bytes());
        pcb_bytes[64..68].copy_from_slice(&Psl::new_user().to_u32().to_le_bytes());
        pcb_bytes[68..72].copy_from_slice(&p0br.0.to_le_bytes());
        pcb_bytes[72..76].copy_from_slice(&total_pages.to_le_bytes());
        // P1 unused (stack lives at the top of P0 — see DESIGN.md).
        pcb_bytes[76..80].copy_from_slice(&0u32.to_le_bytes());
        pcb_bytes[80..84].copy_from_slice(&0u32.to_le_bytes());
        self.poke(pcb, &pcb_bytes);
        let frames = first_pfn * PAGE_SIZE..(first_pfn + total_pages) * PAGE_SIZE;
        (pcb, frames)
    }
}

/// A booted machine captured as plain data: the system layout (the
/// physical memory the layout wrote, up to its last nonzero byte, less the
/// frames of deferred processes), the page-table registers, the boot
/// register file, and the deferred processes generated so far. Unlike a
/// [`System`] it never runs, so a warm cache can hand one image to any
/// worker thread and every rehydration starts from the same state;
/// rehydration via [`System::from_boot_image`] costs a copy of the layout
/// instead of a full layout. The deferred processes are shared by the image
/// and every machine rehydrated from it while the image lives: a process is
/// generated at most once across all of them.
#[derive(Debug, Clone)]
pub struct BootImage {
    config: SystemConfig,
    /// `(physical address, bytes)` runs in ascending order; every byte
    /// outside them is zero.
    phys: Vec<(u32, Vec<u8>)>,
    tables: PageTables,
    regs: [u32; 16],
    psl: Psl,
    nproc: usize,
    entries: KernelEntries,
    deferred: Arc<[Deferred]>,
}

impl BootImage {
    /// The configuration the image was built for.
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// Bytes the image holds: the layout's runs plus the deferred
    /// processes generated so far.
    pub fn retained_bytes(&self) -> usize {
        let layout: usize = self.phys.iter().map(|(_, run)| run.len()).sum();
        let generated: usize = self
            .deferred
            .iter()
            .filter_map(|d| d.bytes.get())
            .map(Vec::len)
            .sum();
        layout + generated
    }
}

/// How many steps pass between reads of the stop token and the watchdog
/// deadline. `Instant::now()` is far too expensive per step; at ~3M
/// simulated instructions/s this stride still lands a stop well under a
/// millisecond after it fires.
const STOP_STRIDE: u32 = 2048;

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
    /// The job's token and the attempt's watchdog deadline, read every
    /// [`STOP_STRIDE`] steps.
    stop_token: CancelToken,
    watchdog: Option<Instant>,
    stop_countdown: u32,
    /// Why the run loops last ended early, if they did.
    stopped: Option<Stop>,
    /// The deferred processes, shared with the image this machine came
    /// from while it lives.
    deferred: Arc<[Deferred]>,
    /// Which deferred processes this machine has loaded.
    loaded: Vec<bool>,
    /// PCBB at the last selection check.
    pcbb: u32,
    /// Deferred processes this machine generated.
    generated: u64,
}

impl System {
    /// Rehydrate a machine from a captured [`BootImage`]: fresh memory
    /// system (cold cache, TB, and write buffer — exactly the reset state a
    /// cold build leaves them in), the layout loaded, table registers and
    /// boot register file restored. [`SystemBuilder::build`] routes through
    /// this, so restored and freshly built machines are indistinguishable.
    /// The machine loads each deferred process when its kernel first
    /// selects it, from the image's copy if a machine sharing the image
    /// generated it already.
    pub fn from_boot_image(img: &BootImage) -> System {
        let mut mem = MemorySystem::new(img.config.mem);
        mem.tables = img.tables;
        let phys = mem.phys_mut();
        for (at, run) in &img.phys {
            phys.load(PhysAddr(*at), run);
        }
        let mut cpu = Cpu::new(img.config.cpu, mem);
        cpu.regs = img.regs;
        cpu.psl = img.psl;
        cpu.set_pc(img.regs[15]);
        let pcbb = cpu.iprs.pcbb;
        System {
            cpu,
            nproc: img.nproc,
            entries: img.entries.clone(),
            faults: FaultPlan::none(),
            stop_token: CancelToken::default(),
            watchdog: None,
            stop_countdown: STOP_STRIDE,
            stopped: None,
            deferred: Arc::clone(&img.deferred),
            loaded: vec![false; img.deferred.len()],
            pcbb,
            generated: 0,
        }
    }

    /// How many deferred processes this machine has generated. A process
    /// another machine sharing the image generated first is loaded from
    /// the image's copy and not counted.
    pub fn processes_generated(&self) -> u64 {
        self.generated
    }

    /// Load the deferred process the kernel has just selected, if this
    /// machine has not loaded it yet. Checked after every step, so the
    /// bytes land in the step that executes the `MTPR` to PCBB, before
    /// the `LDPCTX` and `REI` that follow it.
    #[inline]
    fn check_selection(&mut self) {
        if self.cpu.iprs.pcbb != self.pcbb {
            self.pcbb = self.cpu.iprs.pcbb;
            self.load_selected();
        }
    }

    #[cold]
    fn load_selected(&mut self) {
        let Some(i) = self.deferred.iter().position(|d| d.pcb == self.pcbb) else {
            return;
        };
        if std::mem::replace(&mut self.loaded[i], true) {
            return;
        }
        let d = &self.deferred[i];
        // A machine that alone holds the slots keeps no copy: no other
        // machine can ever load it.
        let alone = Arc::strong_count(&self.deferred) == 1;
        let mut generated = false;
        let owned;
        let bytes: &[u8] = match d.bytes.get() {
            Some(bytes) => bytes,
            None if alone => {
                generated = true;
                owned = d.generate();
                &owned
            }
            None => d.bytes.get_or_init(|| {
                generated = true;
                d.generate()
            }),
        };
        // Nothing has run from these frames, so no decode watches them:
        // the load leaves the decode cache alone.
        self.cpu.mem.value_load(d.at, bytes);
        self.generated += u64::from(generated);
    }

    /// Install a fault plan. Events fire between instructions of the next
    /// *measured* interval, keyed by the measured-instruction count (the
    /// warm-up is never perturbed).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Arm the stop: the run loops read `token`, then the `watchdog`
    /// deadline, every 2,048 steps, and on the first that has fired end
    /// as they do on a halt, with [`System::stopped`] naming it. A
    /// stopped machine runs no further step until it is armed again.
    pub fn set_stop(&mut self, token: CancelToken, watchdog: Option<Instant>) {
        self.stop_token = token;
        self.watchdog = watchdog;
        self.stop_countdown = STOP_STRIDE;
        self.stopped = None;
    }

    /// Why the run loops ended early, if a stop landed.
    pub fn stopped(&self) -> Option<Stop> {
        self.stopped
    }

    /// One step, then the stop and selection checks. False when the
    /// machine halted or a stop landed.
    #[inline]
    fn advance(&mut self) -> bool {
        if let StepOutcome::Halted = self.cpu.step() {
            return false;
        }
        self.stop_countdown -= 1;
        if self.stop_countdown == 0 && self.read_stop() {
            return false;
        }
        self.check_selection();
        true
    }

    #[cold]
    fn read_stop(&mut self) -> bool {
        self.stop_countdown = STOP_STRIDE;
        self.stopped = match self.stop_token.fired() {
            Some(kind) => Some(Stop::Canceled(kind)),
            None => self
                .watchdog
                .filter(|&d| Instant::now() >= d)
                .map(|_| Stop::Watchdog),
        };
        self.stopped.is_some()
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
    /// Returns `false` if the machine halted or a stop landed.
    pub fn run_instructions(&mut self, n: u64) -> bool {
        self.stopped.is_none() && (0..n).all(|_| self.advance())
    }

    /// Warm up (monitor stopped), then clear all counters and measure `n`
    /// instructions with the monitor running — the paper's experimental
    /// procedure. Returns the measurement.
    pub fn measure(&mut self, warmup: u64, n: u64) -> Measurement {
        // A period no run reaches: the one measured loop, unsampled.
        self.measure_sampled(warmup, n, u64::MAX).0
    }

    /// [`System::measure`] plus interval sampling: at the first step
    /// boundary past each multiple of `interval_cycles` the live CPU and
    /// memory counters are read in place, and each sample holds the
    /// exported counters' growth since the previous reading. The board is
    /// never copied. Returns the whole-run measurement and the time
    /// series; summing the series reproduces the measurement's exported
    /// counters exactly. A stop that lands in the warm-up leaves the
    /// measured interval empty.
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
        let steps = if self.stopped.is_some() { 0 } else { n };
        for _ in 0..steps {
            if !self.advance() {
                break;
            }
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
    use crate::cancel::CancelKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;
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
            assert_eq!(image.phys, [(0, flat[..used].to_vec())], "case {case}");
        }
    }

    /// A spin process generated on demand, counting its generations.
    #[derive(Debug, Default)]
    struct DeferredSpin {
        calls: Arc<AtomicUsize>,
        /// Declare one byte more than the generated image has.
        misdeclared: bool,
    }

    impl DeferredProcess for DeferredSpin {
        fn shape(&self) -> ProcessShape {
            let mut shape = spin_process().shape();
            shape.len += u32::from(self.misdeclared);
            shape
        }

        fn generate(&self) -> ProcessSpec {
            self.calls.fetch_add(1, Ordering::Relaxed);
            spin_process()
        }
    }

    /// Three spin processes, the first `deferred` of them deferred, and
    /// the deferred ones' generation counts.
    fn spin_image(deferred: usize) -> (BootImage, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let mut b = SystemBuilder::new(SystemConfig::default());
        for i in 0..3 {
            if i < deferred {
                b.add_deferred(DeferredSpin {
                    calls: Arc::clone(&calls),
                    misdeclared: false,
                });
            } else {
                b.add_process(spin_process());
            }
        }
        (b.build_image(), calls)
    }

    #[test]
    fn deferred_processes_run_as_ready_ones_and_load_at_first_selection() {
        let (ready, _) = spin_image(0);
        let mut want = System::from_boot_image(&ready);
        want.run_instructions(2);
        let want_m = want.measure(20_000, 300_000);
        assert!(want_m.cpu_stats.context_switches >= 2, "every process runs");
        for deferred in 1..=3 {
            let (image, calls) = spin_image(deferred);
            assert!(image.retained_bytes() < ready.retained_bytes());
            let mut sys = System::from_boot_image(&image);
            // The kernel boots with MOVL pcbtab, R0; MTPR R0, #PCBB.
            sys.run_instructions(1);
            assert_eq!(sys.processes_generated(), 0, "before the MTPR");
            sys.run_instructions(1);
            assert_eq!(sys.processes_generated(), 1, "in the MTPR's step");
            let m = sys.measure(20_000, 300_000);
            assert_eq!(m, want_m, "{deferred} deferred");
            assert_eq!(
                sys.cpu.decode_cache_stats(),
                want.cpu.decode_cache_stats(),
                "{deferred} deferred: a load flushes no decode"
            );
            assert_eq!(sys.processes_generated(), deferred as u64);
            assert_eq!(calls.load(Ordering::Relaxed), deferred);
        }
    }

    #[test]
    fn machines_sharing_an_image_generate_each_process_once() {
        let (image, calls) = spin_image(3);
        let layout = image.retained_bytes();
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut sys = System::from_boot_image(&image);
                let m = sys.measure(20_000, 300_000);
                (m, sys.processes_generated())
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0);
        assert_eq!((runs[0].1, runs[1].1), (3, 0));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        let program = spin_process().image.bytes.len();
        assert_eq!(image.retained_bytes(), layout + 3 * program);
    }

    #[test]
    fn a_machine_alone_with_its_processes_keeps_no_copy() {
        let (image, calls) = spin_image(3);
        let mut sys = System::from_boot_image(&image);
        drop(image);
        sys.measure(20_000, 300_000);
        assert_eq!(sys.processes_generated(), 3);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert!(sys.deferred.iter().all(|d| d.bytes.get().is_none()));
    }

    #[test]
    #[should_panic(expected = "must generate in its declared shape")]
    fn a_process_generated_off_its_declared_shape_panics() {
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_deferred(DeferredSpin {
            misdeclared: true,
            ..DeferredSpin::default()
        });
        b.build().run_instructions(10);
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

    /// A one-process spin machine armed with `token` and `watchdog`.
    fn armed(token: CancelToken, watchdog: Option<Instant>) -> System {
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(spin_process());
        let mut sys = b.build();
        sys.set_stop(token, watchdog);
        sys
    }

    #[test]
    fn a_fired_token_ends_the_measured_interval_within_a_stride() {
        for kind in [CancelKind::Canceled, CancelKind::DeadlineExceeded] {
            let token = CancelToken::new();
            match kind {
                CancelKind::Canceled => token.cancel(),
                CancelKind::DeadlineExceeded => token.arm_deadline(Duration::ZERO),
            }
            // The token wins over a watchdog that has passed as well.
            let mut sys = armed(token, Some(Instant::now()));
            let m = sys.measure(0, 1_000_000);
            assert!(m.cpu_stats.instructions > 0, "{kind:?}");
            assert!(
                m.cpu_stats.instructions <= u64::from(STOP_STRIDE),
                "{kind:?}"
            );
            assert_eq!(m.hist.total_cycles(), m.cycles, "{kind:?}");
            assert_eq!(sys.stopped(), Some(Stop::Canceled(kind)));
            let cycle = sys.cpu.cycle;
            assert!(!sys.run_instructions(10), "a stopped machine stays stopped");
            assert_eq!(sys.cpu.cycle, cycle, "{kind:?}");
        }
    }

    #[test]
    fn a_past_watchdog_reports_watchdog() {
        let mut sys = armed(CancelToken::default(), Some(Instant::now()));
        assert!(!sys.run_instructions(1_000_000));
        assert_eq!(sys.stopped(), Some(Stop::Watchdog));
    }

    #[test]
    fn a_token_fired_before_a_long_warmup_leaves_the_interval_empty() {
        let token = CancelToken::new();
        token.cancel();
        let mut sys = armed(token, None);
        let (m, series) = sys.measure_sampled(3 * u64::from(STOP_STRIDE), 10_000, 500);
        assert_eq!((m.cycles, m.cpu_stats.instructions), (0, 0));
        assert_eq!(series, TimeSeries::default());
        assert_eq!(sys.stopped(), Some(Stop::Canceled(CancelKind::Canceled)));
    }

    #[test]
    fn an_unfired_stop_measures_as_an_unarmed_machine() {
        let (image, _) = spin_image(2);
        let unarmed = System::from_boot_image(&image).measure_sampled(5_000, 50_000, 3_000);
        let far = Instant::now() + Duration::from_secs(3_600);
        for (token, watchdog) in [
            (CancelToken::default(), None),
            (CancelToken::new(), Some(far)),
        ] {
            let mut sys = System::from_boot_image(&image);
            sys.set_stop(token, watchdog);
            assert_eq!(sys.measure_sampled(5_000, 50_000, 3_000), unarmed);
            assert_eq!(sys.stopped(), None);
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
