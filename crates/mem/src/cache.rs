//! The data/instruction cache of the VAX-11/780.
//!
//! One unified 8 KB cache serves both the I-Fetch unit and the EBOX: two-way
//! set-associative, 8-byte blocks, write-through with **no write-allocate**
//! (a write miss does not install the block — the paper notes "if the write
//! access misses, the cache is not updated").
//!
//! The cache here is a *tag store only*: data always lives in (and is
//! fetched from) physical memory, because writes are write-through and thus
//! memory is always current. The cache's job in this model is purely timing:
//! deciding hit or miss.

use crate::addr::PhysAddr;

/// Geometry of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Block (line) size in bytes.
    pub block_bytes: usize,
}

impl CacheConfig {
    /// The VAX-11/780 cache: 8 KB, 2-way, 8-byte blocks.
    pub const VAX_780: CacheConfig = CacheConfig {
        size_bytes: 8 * 1024,
        ways: 2,
        block_bytes: 8,
    };

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.block_bytes)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u32,
}

/// The cache tag store.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    block_shift: u32,
    /// `Some((mask, shift))` when `sets` is a power of two: the set index
    /// is `block & mask` and the tag `block >> shift`. Probes run several
    /// times per simulated instruction, and a hardware divide per probe
    /// (the general `%`/`÷` path) is measurable at that rate.
    pow2: Option<(u32, u32)>,
    lines: Vec<Line>,
    victim: Vec<u8>,
    /// Advances on every fill and invalidate; see [`Cache::epoch`].
    epoch: u64,
}

impl Cache {
    /// Build a cache with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (non-power-of-two block size or
    /// sizes that do not divide evenly).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(config.ways > 0);
        assert_eq!(config.size_bytes % (config.ways * config.block_bytes), 0);
        let sets = config.sets();
        assert!(sets > 0);
        Cache {
            config,
            sets,
            block_shift: config.block_bytes.trailing_zeros(),
            pow2: sets
                .is_power_of_two()
                .then(|| (sets as u32 - 1, sets.trailing_zeros())),
            lines: vec![Line::default(); sets * config.ways],
            victim: vec![0; sets],
            epoch: 0,
        }
    }

    /// The 780's cache.
    pub fn new_780() -> Cache {
        Cache::new(CacheConfig::VAX_780)
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Mutation counter: advances on every fill (a read miss) and on
    /// [`Cache::invalidate_all`]. Hits and writes leave it alone. While it
    /// is unchanged, a block that [`Cache::probe`] found is still present.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The block number of `pa`: addresses in one block share it.
    #[inline]
    pub fn block_of(&self, pa: PhysAddr) -> u32 {
        pa.0 >> self.block_shift
    }

    #[inline]
    fn set_and_tag(&self, pa: PhysAddr) -> (usize, u32) {
        let block = self.block_of(pa);
        match self.pow2 {
            Some((mask, shift)) => ((block & mask) as usize, block >> shift),
            None => ((block as usize) % self.sets, block / self.sets as u32),
        }
    }

    /// Probe for a block. Does not change state.
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(pa);
        let base = set * self.config.ways;
        self.lines[base..base + self.config.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Read access: returns `true` on hit; on miss, installs the block
    /// (read allocate) and returns `false`.
    pub fn access_read(&mut self, pa: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(pa);
        let base = set * self.config.ways;
        let ways = &mut self.lines[base..base + self.config.ways];
        if ways.iter().any(|l| l.valid && l.tag == tag) {
            return true;
        }
        // Fill: invalid way first, else round-robin victim.
        self.epoch += 1;
        let slot = ways.iter().position(|l| !l.valid).unwrap_or_else(|| {
            let v = &mut self.victim[set];
            let w = *v as usize % self.config.ways;
            *v = v.wrapping_add(1);
            w
        });
        ways[slot] = Line { valid: true, tag };
        false
    }

    /// Write access (write-through, no write-allocate): returns `true` if
    /// the block was present (and thus updated), `false` otherwise. Never
    /// installs a block.
    pub fn access_write(&mut self, pa: PhysAddr) -> bool {
        self.probe(pa)
    }

    /// Invalidate the whole cache.
    pub fn invalidate_all(&mut self) {
        self.epoch += 1;
        for l in &mut self.lines {
            l.valid = false;
        }
    }

    /// Number of valid lines (diagnostics).
    pub fn valid_count(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_780() {
        let c = Cache::new_780();
        assert_eq!(c.config().sets(), 512);
    }

    #[test]
    fn read_allocates() {
        let mut c = Cache::new_780();
        let pa = PhysAddr(0x1234);
        assert!(!c.access_read(pa), "first read misses");
        assert!(c.access_read(pa), "second read hits");
        // Same 8-byte block.
        assert!(c.access_read(PhysAddr(0x1230)));
        // Different block.
        assert!(!c.access_read(PhysAddr(0x1238)));
    }

    #[test]
    fn write_does_not_allocate() {
        let mut c = Cache::new_780();
        let pa = PhysAddr(0x2000);
        assert!(!c.access_write(pa));
        assert!(!c.probe(pa), "write miss must not install the block");
        c.access_read(pa);
        assert!(c.access_write(pa), "write after read hits");
    }

    #[test]
    fn conflict_eviction() {
        let mut c = Cache::new_780();
        let sets = c.sets;
        let stride = (sets * c.config.block_bytes) as u32;
        // Three blocks in the same set of a 2-way cache.
        let addrs = [PhysAddr(0), PhysAddr(stride), PhysAddr(2 * stride)];
        for pa in addrs {
            c.access_read(pa);
        }
        let hits = addrs.iter().filter(|&&pa| c.probe(pa)).count();
        assert_eq!(hits, 2);
    }

    #[test]
    fn invalidate() {
        let mut c = Cache::new_780();
        c.access_read(PhysAddr(0x100));
        assert_eq!(c.valid_count(), 1);
        c.invalidate_all();
        assert_eq!(c.valid_count(), 0);
    }

    #[test]
    fn custom_geometry() {
        // Direct-mapped 1 KB cache with 16-byte lines.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 1,
            block_bytes: 16,
        });
        assert_eq!(c.config().sets(), 64);
        assert!(!c.access_read(PhysAddr(0)));
        assert!(!c.access_read(PhysAddr(1024)), "conflicting block");
        assert!(!c.probe(PhysAddr(0)), "direct-mapped conflict evicted");
    }
}
