//! The translation buffer (TB).
//!
//! The 780's TB holds 128 entries, two-way set-associative, partitioned into
//! a *system* half and a *process* half so that a context switch need only
//! flush the process half (the paper's Table 7 context-switch headway is
//! what makes this partition worthwhile; see also Clark & Emer's companion
//! TB study).

use crate::addr::VirtAddr;

/// Geometry of the translation buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbConfig {
    /// Total entries (both halves).
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Partition into system/process halves.
    pub split: bool,
}

impl TbConfig {
    /// The VAX-11/780 configuration: 128 entries, 2-way, split halves.
    pub const VAX_780: TbConfig = TbConfig {
        entries: 128,
        ways: 2,
        split: true,
    };

    fn sets_per_half(&self) -> usize {
        let halves = if self.split { 2 } else { 1 };
        self.entries / self.ways / halves
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TbEntry {
    valid: bool,
    tag: u32, // full VPN
    pfn: u32,
}

/// The translation buffer.
#[derive(Debug, Clone)]
pub struct Tb {
    config: TbConfig,
    sets_per_half: usize,
    /// `sets_per_half - 1` when it is a power of two (the 780's geometry):
    /// lets the per-probe set index be a mask instead of a hardware
    /// divide, which matters at several probes per simulated instruction.
    set_mask: Option<u32>,
    /// `[half][set][way]`, flattened.
    entries: Vec<TbEntry>,
    /// Round-robin victim pointer per (half, set).
    victim: Vec<u8>,
    /// Advances on every insert and invalidate; see [`Tb::epoch`].
    epoch: u64,
}

impl Tb {
    /// Build a TB with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (entries not divisible by
    /// ways × halves, or zero-sized).
    pub fn new(config: TbConfig) -> Tb {
        let halves = if config.split { 2 } else { 1 };
        assert!(config.entries > 0 && config.ways > 0);
        assert_eq!(
            config.entries % (config.ways * halves),
            0,
            "TB geometry must divide evenly"
        );
        let sets_per_half = config.sets_per_half();
        Tb {
            config,
            sets_per_half,
            set_mask: sets_per_half
                .is_power_of_two()
                .then(|| sets_per_half as u32 - 1),
            entries: vec![TbEntry::default(); config.entries],
            victim: vec![0; sets_per_half * halves],
            epoch: 0,
        }
    }

    /// The 780's TB.
    pub fn new_780() -> Tb {
        Tb::new(TbConfig::VAX_780)
    }

    /// The configured geometry.
    pub fn config(&self) -> TbConfig {
        self.config
    }

    /// Mutation counter: advances on every [`Tb::insert`] and every
    /// invalidate. While it is unchanged, [`Tb::probe`] of any address
    /// returns what it returned last time.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    #[inline]
    fn half(&self, va: VirtAddr) -> usize {
        if self.config.split && va.is_system() {
            1
        } else {
            0
        }
    }

    #[inline]
    fn set_index(&self, va: VirtAddr) -> usize {
        match self.set_mask {
            Some(mask) => (va.vpn() & mask) as usize,
            None => (va.vpn() as usize) % self.sets_per_half,
        }
    }

    #[inline]
    fn base(&self, half: usize, set: usize) -> usize {
        (half * self.sets_per_half + set) * self.config.ways
    }

    /// Look up a translation. Returns the PFN on a hit.
    pub fn probe(&self, va: VirtAddr) -> Option<u32> {
        let half = self.half(va);
        let set = self.set_index(va);
        let base = self.base(half, set);
        let tag = va.vpn();
        self.entries[base..base + self.config.ways]
            .iter()
            .find(|e| e.valid && e.tag == tag)
            .map(|e| e.pfn)
    }

    /// Insert a translation (called by the CPU's TB-miss microroutine).
    pub fn insert(&mut self, va: VirtAddr, pfn: u32) {
        let half = self.half(va);
        let set = self.set_index(va);
        let base = self.base(half, set);
        let tag = va.vpn();
        self.epoch += 1;
        // Replace an existing entry for the same tag, else an invalid way,
        // else the round-robin victim.
        let ways = &mut self.entries[base..base + self.config.ways];
        let slot = ways
            .iter()
            .position(|e| e.valid && e.tag == tag)
            .or_else(|| ways.iter().position(|e| !e.valid))
            .unwrap_or_else(|| {
                let v = &mut self.victim[half * self.sets_per_half + set];
                let w = *v as usize % self.config.ways;
                *v = v.wrapping_add(1);
                w
            });
        ways[slot] = TbEntry {
            valid: true,
            tag,
            pfn,
        };
    }

    /// Invalidate a single page's translation (TBIS).
    pub fn invalidate_page(&mut self, va: VirtAddr) {
        self.epoch += 1;
        let half = self.half(va);
        let set = self.set_index(va);
        let base = self.base(half, set);
        let tag = va.vpn();
        for e in &mut self.entries[base..base + self.config.ways] {
            if e.valid && e.tag == tag {
                e.valid = false;
            }
        }
    }

    /// Flush the process half (done by LDPCTX on a context switch).
    pub fn invalidate_process(&mut self) {
        self.epoch += 1;
        let end = if self.config.split {
            self.sets_per_half * self.config.ways
        } else {
            self.entries.len()
        };
        for e in &mut self.entries[..end] {
            e.valid = false;
        }
    }

    /// Flush everything (TBIA).
    pub fn invalidate_all(&mut self) {
        self.epoch += 1;
        for e in &mut self.entries {
            e.valid = false;
        }
    }

    /// Number of currently valid entries (diagnostics).
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_insert() {
        let mut tb = Tb::new_780();
        let va = VirtAddr(0x1000);
        assert_eq!(tb.probe(va), None);
        tb.insert(va, 0x42);
        assert_eq!(tb.probe(va), Some(0x42));
        // Same page different offset still hits.
        assert_eq!(tb.probe(VirtAddr(0x11FF)), Some(0x42));
        // Next page misses.
        assert_eq!(tb.probe(VirtAddr(0x1200)), None);
    }

    #[test]
    fn process_flush_spares_system() {
        let mut tb = Tb::new_780();
        tb.insert(VirtAddr(0x1000), 1);
        tb.insert(VirtAddr(0x8000_1000), 2);
        tb.invalidate_process();
        assert_eq!(tb.probe(VirtAddr(0x1000)), None);
        assert_eq!(tb.probe(VirtAddr(0x8000_1000)), Some(2));
    }

    #[test]
    fn full_flush() {
        let mut tb = Tb::new_780();
        tb.insert(VirtAddr(0x1000), 1);
        tb.insert(VirtAddr(0x8000_1000), 2);
        tb.invalidate_all();
        assert_eq!(tb.valid_count(), 0);
    }

    #[test]
    fn conflict_eviction() {
        let mut tb = Tb::new_780();
        let sets = tb.sets_per_half;
        // Three pages mapping to the same set in a 2-way TB: one must go.
        let conflicting: Vec<VirtAddr> = (0..3).map(|i| VirtAddr((i * sets as u32) << 9)).collect();
        for (i, &va) in conflicting.iter().enumerate() {
            tb.insert(va, i as u32);
        }
        let hits = conflicting
            .iter()
            .filter(|&&va| tb.probe(va).is_some())
            .count();
        assert_eq!(hits, 2, "two-way set keeps exactly two of three");
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tb = Tb::new_780();
        tb.insert(VirtAddr(0x1000), 1);
        tb.insert(VirtAddr(0x1000), 9);
        assert_eq!(tb.probe(VirtAddr(0x1000)), Some(9));
        assert_eq!(tb.valid_count(), 1);
    }

    #[test]
    fn invalidate_single_page() {
        let mut tb = Tb::new_780();
        tb.insert(VirtAddr(0x1000), 1);
        tb.insert(VirtAddr(0x3000), 3);
        tb.invalidate_page(VirtAddr(0x1000));
        assert_eq!(tb.probe(VirtAddr(0x1000)), None);
        assert_eq!(tb.probe(VirtAddr(0x3000)), Some(3));
    }

    #[test]
    fn unsplit_geometry() {
        let mut tb = Tb::new(TbConfig {
            entries: 64,
            ways: 2,
            split: false,
        });
        tb.insert(VirtAddr(0x8000_1000), 5);
        tb.invalidate_process(); // flushes everything when unsplit
        assert_eq!(tb.probe(VirtAddr(0x8000_1000)), None);
    }
}
