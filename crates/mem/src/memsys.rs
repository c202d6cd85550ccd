//! The assembled memory system: TB + cache + write buffer + SBI + memory.
//!
//! This type exposes *small orthogonal operations* (TB probe, TB fill,
//! timed cache read/write, untimed value access) rather than one monolithic
//! `access` call, because on the 780 the orchestration lives in microcode:
//! the EBOX probes the TB, takes a microtrap to fill it, retries the
//! reference, and so on. The CPU crate drives these steps and charges each
//! cycle to the proper µPC bucket.
//!
//! The I-Fetch unit's reference is the one exception: [`MemorySystem::ifetch`]
//! probes the TB and the cache in one call, because the IB refills from the
//! same page, and often the same cache block, several times per instruction.
//! It remembers the last fill's translation while the TB's
//! [`Tb::epoch`] is unchanged, and the last fill's cache block while the
//! cache's [`Cache::epoch`] is unchanged, and serves a repeat from that
//! memo with exactly the counts the probe would make. Debug builds check
//! every memo hit against the probe it replaces.

use crate::addr::{PhysAddr, VirtAddr};
use crate::cache::{Cache, CacheConfig};
use crate::codewatch::CodeWatch;
use crate::pagetable::{PageTables, Pte, PteLocation, TranslateError};
use crate::phys::PhysicalMemory;
use crate::sbi::{Sbi, SbiConfig};
use crate::stats::MemStats;
use crate::tb::{Tb, TbConfig};
use crate::writebuf::WriteBuffer;

/// Full memory-system configuration.
#[derive(Debug, Clone, Copy)]
pub struct MemConfig {
    /// Cache geometry.
    pub cache: CacheConfig,
    /// TB geometry.
    pub tb: TbConfig,
    /// SBI latencies.
    pub sbi: SbiConfig,
    /// Physical memory size in bytes.
    pub mem_bytes: usize,
}

impl MemConfig {
    /// The measured machines: 8 KB cache, 128-entry TB, 8 MB memory.
    pub const VAX_780: MemConfig = MemConfig {
        cache: CacheConfig::VAX_780,
        tb: TbConfig::VAX_780,
        sbi: SbiConfig::VAX_780,
        mem_bytes: 8 << 20,
    };
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::VAX_780
    }
}

/// Outcome of a timed data read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Read-stall cycles suffered by the EBOX (0 on a cache hit).
    pub stall: u64,
    /// Whether the reference missed the cache.
    pub miss: bool,
}

/// Outcome of an IB fill request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Cycle at which the longword is available to the IB.
    pub avail_at: u64,
    /// Whether the reference missed the cache.
    pub miss: bool,
}

/// Outcome of a TB-miss service walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbFill {
    /// Number of PTE reads performed (1, or 2 if the process PTE's system
    /// page also missed the TB).
    pub pte_reads: u32,
    /// Read-stall cycles incurred fetching PTEs through the cache.
    pub stall: u64,
    /// The translation now installed.
    pub pfn: u32,
}

/// The last IB fill's translation and cache block (see
/// [`MemorySystem::ifetch`]). Each half is valid while the structure it
/// came from is unchanged: its epoch equals that structure's
/// [`Tb::epoch`] or [`Cache::epoch`]. `u64::MAX` marks a half as empty,
/// since the epochs count up from 0.
#[derive(Debug, Clone, Copy)]
struct FillMemo {
    tb_epoch: u64,
    vpn: u32,
    pfn: u32,
    cache_epoch: u64,
    block: u32,
}

impl FillMemo {
    const EMPTY: FillMemo = FillMemo {
        tb_epoch: u64::MAX,
        vpn: 0,
        pfn: 0,
        cache_epoch: u64::MAX,
        block: 0,
    };
}

/// The complete memory subsystem of one simulated 11/780.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    phys: PhysicalMemory,
    cache: Cache,
    tb: Tb,
    sbi: Sbi,
    wb: WriteBuffer,
    /// Current page-table base registers (swapped on context switch).
    pub tables: PageTables,
    /// Event counters.
    pub stats: MemStats,
    /// Write-path watchpoints backing the CPU's decoded-instruction cache.
    code_watch: CodeWatch,
    /// Latched SBI/memory parity fault awaiting machine-check delivery.
    /// Set by fault injection; consumed (and cleared) by the CPU between
    /// instructions, which turns it into a machine-check interrupt.
    parity_latch: bool,
    /// The last IB fill's page and cache block.
    fill_memo: FillMemo,
}

impl MemorySystem {
    /// Build from a configuration.
    pub fn new(config: MemConfig) -> MemorySystem {
        MemorySystem {
            phys: PhysicalMemory::new(config.mem_bytes),
            cache: Cache::new(config.cache),
            tb: Tb::new(config.tb),
            sbi: Sbi::new(config.sbi),
            wb: WriteBuffer::new(),
            tables: PageTables::empty(),
            stats: MemStats::new(),
            code_watch: CodeWatch::new(config.mem_bytes),
            parity_latch: false,
            fill_memo: FillMemo::EMPTY,
        }
    }

    // ---- parity-fault injection ----

    /// Latch a simulated SBI/memory parity fault. The latch stays set until
    /// the CPU consumes it via [`MemorySystem::take_parity_fault`] and
    /// delivers a machine check; injecting while one is already latched is
    /// idempotent (the 780's error-summary registers behave the same way:
    /// a second error before service only sets a lost-error bit).
    pub fn inject_parity_fault(&mut self) {
        if !self.parity_latch {
            self.stats.parity_faults += 1;
        }
        self.parity_latch = true;
    }

    /// Consume a latched parity fault, if any. Returns whether one was
    /// pending; the latch is cleared either way.
    pub fn take_parity_fault(&mut self) -> bool {
        std::mem::take(&mut self.parity_latch)
    }

    /// The paper's machine.
    pub fn new_780() -> MemorySystem {
        MemorySystem::new(MemConfig::VAX_780)
    }

    /// Direct access to physical memory (loaders, kernel builders).
    pub fn phys(&self) -> &PhysicalMemory {
        &self.phys
    }

    /// Mutable access to physical memory.
    ///
    /// This is an untracked escape hatch (loaders, kernel builders), so it
    /// conservatively invalidates every code watchpoint: the caller may
    /// write anything anywhere.
    pub fn phys_mut(&mut self) -> &mut PhysicalMemory {
        self.code_watch.invalidate_all();
        &mut self.phys
    }

    // ---- decoded-instruction-cache invalidation hooks ----

    /// Watch the physical memory holding `[pa, pa + len)`: a later store
    /// overlapping it advances [`MemorySystem::code_epoch`]. The CPU
    /// registers each instruction's bytes here when it caches a decode.
    pub fn watch_code(&mut self, pa: PhysAddr, len: u32) {
        self.code_watch.watch(pa, len);
    }

    /// Epoch of the code watchpoints. While this value is unchanged, no
    /// watched instruction byte has been stored to, no page has been
    /// remapped via [`MemorySystem::install_pte`], and no untracked
    /// [`MemorySystem::phys_mut`] access has occurred.
    #[inline]
    pub fn code_epoch(&self) -> u64 {
        self.code_watch.epoch()
    }

    /// The translation buffer (e.g. for LDPCTX to flush the process half).
    pub fn tb_mut(&mut self) -> &mut Tb {
        &mut self.tb
    }

    /// The cache (diagnostics and sweep experiments).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    // ---- Translation ----

    /// Probe the TB for an EBOX data reference. `None` means TB miss
    /// (counted in `tb_miss_d`).
    pub fn probe_tb(&mut self, va: VirtAddr) -> Option<PhysAddr> {
        match self.tb.probe(va) {
            Some(pfn) => Some(PhysAddr::from_pfn(pfn, va.offset())),
            None => {
                self.stats.tb_miss_d += 1;
                None
            }
        }
    }

    /// Service a TB miss at cycle `now`: walk the page tables, reading PTEs
    /// through the cache (with read stalls), and insert the translation.
    ///
    /// # Errors
    /// Propagates [`TranslateError`] for length violations or invalid PTEs
    /// (the workloads map all their pages up front, so an error here is a
    /// simulation bug, not a page fault to handle).
    pub fn tb_fill(&mut self, va: VirtAddr, now: u64) -> Result<TbFill, TranslateError> {
        let mut pte_reads = 0;
        let mut stall = 0;
        let pte_pa = match self.tables.pte_location(va)? {
            PteLocation::Phys(pa) => pa,
            PteLocation::Virt(sys_va) => {
                // The process PTE lives in system space; translate that.
                let pfn = match self.tb.probe(sys_va) {
                    Some(pfn) => pfn,
                    None => {
                        // Double miss: fetch the system PTE from the
                        // SBR-based table (physical).
                        let sys_pte_pa = match self.tables.pte_location(sys_va)? {
                            PteLocation::Phys(pa) => pa,
                            PteLocation::Virt(_) => unreachable!("system PTEs are physical"),
                        };
                        let (pte, s) = self.read_pte(sys_pte_pa, now + stall);
                        pte_reads += 1;
                        stall += s;
                        if !pte.is_valid() {
                            return Err(TranslateError::LengthViolation(sys_va));
                        }
                        self.tb.insert(sys_va, pte.pfn());
                        pte.pfn()
                    }
                };
                PhysAddr::from_pfn(pfn, sys_va.offset())
            }
        };
        let (pte, s) = self.read_pte(pte_pa, now + stall);
        pte_reads += 1;
        stall += s;
        if !pte.is_valid() {
            return Err(TranslateError::LengthViolation(va));
        }
        self.tb.insert(va, pte.pfn());
        Ok(TbFill {
            pte_reads,
            stall,
            pfn: pte.pfn(),
        })
    }

    fn read_pte(&mut self, pa: PhysAddr, now: u64) -> (Pte, u64) {
        self.stats.pte_reads += 1;
        let hit = self.cache.access_read(pa);
        let stall = if hit {
            0
        } else {
            self.stats.pte_read_misses += 1;
            let done = self.sbi.read_miss(now);
            done - now
        };
        self.stats.read_stall_cycles += stall;
        (Pte(self.phys.read(pa, 4) as u32), stall)
    }

    /// [`MemorySystem::raw_translate`], additionally registering the PTE
    /// bytes consulted along the walk as code watchpoints. The decode-cache
    /// fill path translates through this so that a later guest store into
    /// page-table memory — remapping cached code without touching its
    /// bytes — advances [`MemorySystem::code_epoch`] like any other write
    /// under cached code.
    ///
    /// # Errors
    /// [`TranslateError`] as for [`MemorySystem::raw_translate`].
    pub fn raw_translate_watched(&mut self, va: VirtAddr) -> Result<PhysAddr, TranslateError> {
        let pte_pa = match self.tables.pte_location(va)? {
            PteLocation::Phys(pa) => pa,
            PteLocation::Virt(sys_va) => {
                let sys_pte_pa = match self.tables.pte_location(sys_va)? {
                    PteLocation::Phys(pa) => pa,
                    PteLocation::Virt(_) => unreachable!("system PTEs are physical"),
                };
                self.code_watch.watch(sys_pte_pa, 4);
                let sys_pte = Pte(self.phys.read(sys_pte_pa, 4) as u32);
                if !sys_pte.is_valid() {
                    return Err(TranslateError::LengthViolation(sys_va));
                }
                PhysAddr::from_pfn(sys_pte.pfn(), sys_va.offset())
            }
        };
        self.code_watch.watch(pte_pa, 4);
        let pte = Pte(self.phys.read(pte_pa, 4) as u32);
        if !pte.is_valid() {
            return Err(TranslateError::LengthViolation(va));
        }
        Ok(PhysAddr::from_pfn(pte.pfn(), va.offset()))
    }

    /// Untimed full walk (loaders and diagnostics; touches nothing).
    ///
    /// # Errors
    /// [`TranslateError`] on a length violation, reserved region, or invalid
    /// PTE along the walk.
    pub fn raw_translate(&self, va: VirtAddr) -> Result<PhysAddr, TranslateError> {
        let pte_pa = match self.tables.pte_location(va)? {
            PteLocation::Phys(pa) => pa,
            PteLocation::Virt(sys_va) => {
                let sys_pte_pa = match self.tables.pte_location(sys_va)? {
                    PteLocation::Phys(pa) => pa,
                    PteLocation::Virt(_) => unreachable!("system PTEs are physical"),
                };
                let sys_pte = Pte(self.phys.read(sys_pte_pa, 4) as u32);
                if !sys_pte.is_valid() {
                    return Err(TranslateError::LengthViolation(sys_va));
                }
                PhysAddr::from_pfn(sys_pte.pfn(), sys_va.offset())
            }
        };
        let pte = Pte(self.phys.read(pte_pa, 4) as u32);
        if !pte.is_valid() {
            return Err(TranslateError::LengthViolation(va));
        }
        Ok(PhysAddr::from_pfn(pte.pfn(), va.offset()))
    }

    // ---- Timed data access (EBOX) ----

    /// One D-stream read reference of up to 4 bytes that does not cross an
    /// aligned-longword boundary. Returns stall cycles and hit/miss.
    pub fn read_cycle(&mut self, pa: PhysAddr, now: u64) -> ReadOutcome {
        self.stats.d_reads += 1;
        let hit = self.cache.access_read(pa);
        let stall = if hit {
            0
        } else {
            self.stats.d_read_misses += 1;
            let done = self.sbi.read_miss(now);
            done - now
        };
        self.stats.read_stall_cycles += stall;
        ReadOutcome { stall, miss: !hit }
    }

    /// One D-stream write reference. Write-through: data goes to memory via
    /// the write buffer; the cache is updated only on a hit. Returns
    /// write-stall cycles.
    pub fn write_cycle(&mut self, pa: PhysAddr, now: u64) -> u64 {
        self.stats.d_writes += 1;
        if self.cache.access_write(pa) {
            self.stats.d_write_hits += 1;
        }
        // The buffered write drains over the SBI.
        let drain = self.sbi.config().write_cycles;
        let stall = self.wb.issue(now, drain);
        // Reserve the SBI for the drain window so concurrent read misses
        // queue behind it.
        self.sbi.write(now + stall);
        self.stats.write_stall_cycles += stall;
        stall
    }

    /// An IB fill request at cycle `now` for the aligned longword holding
    /// `va`: a TB probe, then a cache read of the longword. `None` is an
    /// I-stream TB miss (counted in `tb_miss_i`; the IB latches it and the
    /// EBOX services it). Otherwise returns when the data arrives; a fill
    /// never stalls the EBOX.
    ///
    /// A fill in the previous fill's page, with the TB unchanged since,
    /// reuses its translation; one in the previous fill's cache block, with
    /// the cache unchanged since, is a hit without a probe. Either way the
    /// counters move exactly as the probe would move them.
    pub fn ifetch(&mut self, va: VirtAddr, now: u64) -> Option<FillOutcome> {
        let memo = &mut self.fill_memo;
        let pfn = if memo.tb_epoch == self.tb.epoch() && memo.vpn == va.vpn() {
            debug_assert_eq!(
                self.tb.probe(va),
                Some(memo.pfn),
                "IB fill page memo disagrees with the TB at {va}"
            );
            memo.pfn
        } else {
            let Some(pfn) = self.tb.probe(va) else {
                self.stats.tb_miss_i += 1;
                return None;
            };
            memo.tb_epoch = self.tb.epoch();
            memo.vpn = va.vpn();
            memo.pfn = pfn;
            pfn
        };
        let pa = PhysAddr::from_pfn(pfn, va.offset() & !3);
        self.stats.i_reads += 1;
        let block = self.cache.block_of(pa);
        let hit = if memo.cache_epoch == self.cache.epoch() && memo.block == block {
            debug_assert!(
                self.cache.probe(pa),
                "IB fill block memo names a block the cache lacks at {pa}"
            );
            true
        } else {
            let hit = self.cache.access_read(pa);
            memo.cache_epoch = self.cache.epoch();
            memo.block = block;
            hit
        };
        Some(if hit {
            FillOutcome {
                avail_at: now + 1,
                miss: false,
            }
        } else {
            self.stats.i_read_misses += 1;
            let done = self.sbi.read_miss(now);
            FillOutcome {
                avail_at: done,
                miss: true,
            }
        })
    }

    // ---- Untimed value plumbing ----

    /// Read a value from physical memory without touching timing state.
    pub fn value_read(&self, pa: PhysAddr, size: u32) -> u64 {
        self.phys.read(pa, size)
    }

    /// Write a value to physical memory without touching timing state.
    /// Stores overlapping a watched code page advance the code epoch
    /// (self-modifying code detection).
    pub fn value_write(&mut self, pa: PhysAddr, size: u32, v: u64) {
        self.code_watch.note_write(pa, size);
        self.phys.write(pa, size, v);
    }

    /// Copy `data` into physical memory at `pa` without touching timing
    /// state: a loader's store into a running machine. Like
    /// [`MemorySystem::value_write`], and unlike
    /// [`MemorySystem::phys_mut`], it advances the code epoch only if it
    /// overlaps watched code.
    pub fn value_load(&mut self, pa: PhysAddr, data: &[u8]) {
        self.code_watch.note_write(pa, data.len() as u32);
        self.phys.load(pa, data);
    }

    /// Record an unaligned reference (the extra physical access is charged
    /// by the CPU's alignment microcode).
    pub fn note_unaligned(&mut self) {
        self.stats.unaligned_refs += 1;
    }

    /// Write a PTE for `va` into the page tables (used by system builders
    /// while constructing address spaces; untimed). Drops the TB's entry
    /// for `va`, as the TBIS a guest issues after such a rewrite would.
    ///
    /// # Panics
    /// Panics if the page tables do not cover `va`.
    pub fn install_pte(&mut self, va: VirtAddr, pte: Pte) {
        let loc = self
            .tables
            .pte_location(va)
            .expect("install_pte: page tables do not cover address");
        let pa = match loc {
            PteLocation::Phys(pa) => pa,
            PteLocation::Virt(sys_va) => self
                .raw_translate(sys_va)
                .expect("install_pte: page-table page not mapped"),
        };
        self.phys.write(pa, 4, pte.0 as u64);
        self.tb.invalidate_page(va);
        // A remap changes what any virtual PC names; cached decodes of
        // affected addresses must not survive it.
        self.code_watch.invalidate_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    /// Build a system with a simple address space: system pages 0..64 map
    /// to physical 0x40000+, P0 pages 0..16 mapped via a table in system
    /// page 0.
    fn system() -> MemorySystem {
        let mut ms = MemorySystem::new_780();
        ms.tables = PageTables {
            sbr: PhysAddr(0x10000),
            slr: 64,
            p0br: VirtAddr(0x8000_0000), // system page 0 holds P0 page table
            p0lr: 16,
            p1br: VirtAddr(0x8000_0200),
            p1lr: 16,
        };
        // System pages are mapped 1:1 to 0x40000+.
        for vpn in 0..64u32 {
            let pfn = (0x40000 >> 9) + vpn;
            ms.phys
                .write(PhysAddr(0x10000 + vpn * 4), 4, Pte::valid(pfn).0 as u64);
        }
        // P0 pages map to physical 0x80000+.
        for vpn in 0..16u32 {
            let pfn = (0x80000 >> 9) + vpn;
            // P0 table lives at system VA 0x8000_0000 == phys 0x40000.
            ms.phys
                .write(PhysAddr(0x40000 + vpn * 4), 4, Pte::valid(pfn).0 as u64);
        }
        ms
    }

    #[test]
    fn raw_translate_system_and_process() {
        let ms = system();
        assert_eq!(
            ms.raw_translate(VirtAddr(0x8000_0004)).unwrap(),
            PhysAddr(0x40004)
        );
        assert_eq!(
            ms.raw_translate(VirtAddr(0x0000_0204)).unwrap(),
            PhysAddr(0x80204)
        );
    }

    #[test]
    fn tb_miss_then_hit() {
        let mut ms = system();
        let va = VirtAddr(0x200);
        assert!(ms.probe_tb(va).is_none());
        assert_eq!(ms.stats.tb_miss_d, 1);
        let fill = ms.tb_fill(va, 0).unwrap();
        assert!(fill.pte_reads >= 1);
        let pa = ms.probe_tb(va).unwrap();
        assert_eq!(pa, PhysAddr(0x80200));
    }

    #[test]
    fn process_fill_may_double_miss() {
        let mut ms = system();
        // First process-page fill also misses on the system page holding
        // the P0 table: two PTE reads.
        let fill = ms.tb_fill(VirtAddr(0x200), 0).unwrap();
        assert_eq!(fill.pte_reads, 2);
        // Second fill to a different P0 page reuses the system translation.
        let fill2 = ms.tb_fill(VirtAddr(0x400), 100).unwrap();
        assert_eq!(fill2.pte_reads, 1);
    }

    #[test]
    fn read_cycle_miss_then_hit() {
        let mut ms = system();
        let pa = PhysAddr(0x80200);
        let r1 = ms.read_cycle(pa, 10);
        assert!(r1.miss);
        assert_eq!(r1.stall, 6);
        let r2 = ms.read_cycle(pa, 20);
        assert!(!r2.miss);
        assert_eq!(r2.stall, 0);
        assert_eq!(ms.stats.d_reads, 2);
        assert_eq!(ms.stats.d_read_misses, 1);
    }

    #[test]
    fn write_cycle_stalls_when_buffer_busy() {
        let mut ms = system();
        assert_eq!(ms.write_cycle(PhysAddr(0x80200), 10), 0);
        let stall = ms.write_cycle(PhysAddr(0x80204), 12);
        assert!(stall > 0, "back-to-back write must stall");
        assert_eq!(ms.stats.d_writes, 2);
        assert_eq!(ms.stats.write_stall_cycles, stall);
    }

    #[test]
    fn write_through_updates_memory_not_cache() {
        let mut ms = system();
        let pa = PhysAddr(0x80300);
        ms.write_cycle(pa, 0);
        ms.value_write(pa, 4, 77);
        assert!(!ms.cache().probe(pa), "write miss does not allocate");
        assert_eq!(ms.value_read(pa, 4), 77);
    }

    #[test]
    fn ifetch_timing() {
        let mut ms = system();
        let va = VirtAddr(0x2);
        assert_eq!(ms.ifetch(va, 0), None, "an I-stream TB miss");
        assert_eq!(ms.stats.tb_miss_i, 1);
        // The fill's PTE reads hold the SBI until cycle `t`.
        let t = ms.tb_fill(va, 0).unwrap().stall;
        let f1 = ms.ifetch(va, t).unwrap();
        assert!(f1.miss);
        assert_eq!(f1.avail_at, t + 6);
        let f2 = ms.ifetch(va, 20).unwrap();
        assert!(!f2.miss);
        assert_eq!(f2.avail_at, 21);
        assert_eq!((ms.stats.i_reads, ms.stats.i_read_misses), (2, 1));
        assert_eq!(ms.stats.tb_miss_d, 0);
    }

    #[test]
    fn install_pte_and_translate() {
        let mut ms = system();
        ms.install_pte(VirtAddr(10 * PAGE_SIZE), Pte::valid(0x700));
        assert_eq!(
            ms.raw_translate(VirtAddr(10 * PAGE_SIZE + 4)).unwrap(),
            PhysAddr::from_pfn(0x700, 4)
        );
    }

    #[test]
    fn install_pte_drops_the_stale_tb_entry() {
        let mut ms = system();
        let va = VirtAddr(3 * PAGE_SIZE + 8);
        assert_eq!(ms.tb_fill(va, 0).unwrap().pfn, (0x80000 >> 9) + 3);
        ms.install_pte(va, Pte::valid(0x700));
        assert_eq!(ms.probe_tb(va), None, "the old translation is gone");
        assert_eq!(ms.tb_fill(va, 100).unwrap().pfn, 0x700);
        assert_eq!(ms.probe_tb(va), Some(PhysAddr::from_pfn(0x700, 8)));
    }

    /// The I-stream counters `(i_reads, i_read_misses, tb_miss_i)`.
    fn istream(ms: &MemorySystem) -> (u64, u64, u64) {
        (ms.stats.i_reads, ms.stats.i_read_misses, ms.stats.tb_miss_i)
    }

    /// A memory system whose TB maps P0 page 0 and whose IB has just
    /// filled from `va` in it, so both halves of the fill memo are set.
    fn after_fill(va: VirtAddr) -> MemorySystem {
        let mut ms = system();
        ms.tb_fill(va, 0).unwrap();
        assert!(ms.ifetch(va, 20).unwrap().miss);
        assert!(!ms.ifetch(va, 40).unwrap().miss);
        assert_eq!(istream(&ms), (2, 1, 0));
        ms
    }

    #[test]
    fn ifetch_memo_counts_what_the_probe_counts() {
        let mut ms = after_fill(VirtAddr(0x10));
        // The same block, the next block and a page's worth of longwords.
        for lw in 0..128u32 {
            ms.ifetch(VirtAddr(lw * 4), 50 + u64::from(lw)).unwrap();
        }
        // 64 blocks of 8 bytes, the first one already cached.
        assert_eq!(istream(&ms), (130, 64, 0));
        assert_eq!(ms.stats.tb_miss_d, 0);
    }

    #[test]
    fn ifetch_memo_dies_when_d_reads_evict_its_block() {
        let va = VirtAddr(0x10);
        let mut ms = after_fill(va);
        // Two other blocks of the IB block's set (2-way, 512 sets of 8
        // bytes) evict it.
        let stride = 512 * 8;
        ms.read_cycle(PhysAddr(0x80010 + stride), 60);
        ms.read_cycle(PhysAddr(0x80010 + 2 * stride), 80);
        assert!(!ms.cache().probe(PhysAddr(0x80010)));
        let f = ms.ifetch(va, 100).unwrap();
        assert!(f.miss, "the evicted block is fetched again");
        assert_eq!(istream(&ms), (3, 2, 0));
    }

    #[test]
    fn ifetch_memo_dies_when_the_tb_changes() {
        let va = VirtAddr(0x10);
        // Process-half set 0 holds P0 pages 0 and 32; a fill of page 64
        // replaces page 0 (round robin) and the next fill must miss.
        let mut ms = system();
        ms.tables.p0lr = 128;
        for vpn in 16..128u32 {
            ms.phys.write(
                PhysAddr(0x40000 + vpn * 4),
                4,
                Pte::valid(0x500 + vpn).0 as u64,
            );
        }
        ms.tb_fill(va, 0).unwrap();
        ms.tb_fill(VirtAddr(32 * PAGE_SIZE), 20).unwrap();
        ms.ifetch(va, 40).unwrap();
        ms.tb_fill(VirtAddr(64 * PAGE_SIZE), 60).unwrap();
        assert_eq!(ms.ifetch(va, 80), None, "tb_fill evicted the memo page");
        assert_eq!(istream(&ms), (1, 1, 1));

        for name in ["TBIS", "TBIA", "invalidate_process"] {
            let mut ms = after_fill(va);
            let tb = ms.tb_mut();
            match name {
                "TBIS" => tb.invalidate_page(VirtAddr(0x1F0)),
                "TBIA" => tb.invalidate_all(),
                _ => tb.invalidate_process(),
            }
            assert_eq!(ms.ifetch(va, 60), None, "{name}");
            assert_eq!(istream(&ms), (2, 1, 1), "{name}");
        }
    }

    #[test]
    fn ifetch_memo_dies_when_a_pte_read_fills_the_cache() {
        // P0 page 0 fetches from 0x80000, cache set 0. Its PTE (0x40000)
        // and the P0 table's system PTE (0x10000) share set 0 as well.
        let va = VirtAddr(0x4);
        let mut ms = system();
        ms.tb_fill(va, 0).unwrap();
        assert!(ms.ifetch(va, 20).unwrap().miss, "evicts the system PTE");
        // Two TB fills whose PTE reads miss in set 0: the first evicts the
        // P0 PTE's block, the second the IB's.
        ms.tb_fill(VirtAddr(0x8000_0200), 40).unwrap();
        ms.tb_fill(VirtAddr(0x200), 60).unwrap();
        assert_eq!(ms.stats.pte_read_misses, 4);
        assert!(!ms.cache().probe(PhysAddr(0x80004)));
        assert!(ms.ifetch(va, 80).unwrap().miss);
        assert_eq!(istream(&ms), (2, 2, 0));
    }

    #[test]
    fn hits_and_writes_leave_both_epochs_alone() {
        let mut ms = after_fill(VirtAddr(0x10));
        let (tb, cache) = (ms.tb.epoch(), ms.cache.epoch());
        assert!(!ms.read_cycle(PhysAddr(0x80010), 60).miss);
        ms.write_cycle(PhysAddr(0x80010), 70);
        ms.write_cycle(PhysAddr(0x90000), 80);
        assert!(ms.probe_tb(VirtAddr(0x10)).is_some());
        assert!(ms.probe_tb(VirtAddr(0x400)).is_none());
        assert!(!ms.ifetch(VirtAddr(0x14), 90).unwrap().miss);
        assert_eq!((ms.tb.epoch(), ms.cache.epoch()), (tb, cache));
        ms.read_cycle(PhysAddr(0x90000), 100);
        assert_eq!(ms.cache.epoch(), cache + 1, "a read miss fills");
    }

    #[test]
    fn value_load_advances_the_code_epoch_only_over_watched_code() {
        let mut ms = system();
        ms.watch_code(PhysAddr(0x80200), 8);
        let epoch = ms.code_epoch();
        ms.value_load(PhysAddr(0x90000), &[0xAB; 4096]);
        assert_eq!(ms.code_epoch(), epoch, "unwatched frames");
        assert_eq!(ms.value_read(PhysAddr(0x90FFF), 1), 0xAB);
        ms.value_load(PhysAddr(0x80000), &[1; 0x208]);
        assert_eq!(ms.code_epoch(), epoch + 1, "the load covers watched code");
        assert_eq!(ms.value_read(PhysAddr(0x80204), 4), 0x0101_0101);
    }
}
