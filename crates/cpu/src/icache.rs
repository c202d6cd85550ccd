//! The decoded-instruction cache (predecode cache).
//!
//! `Cpu::step` used to re-fetch and re-decode every instruction from
//! simulated memory; for straight-line and looping code that work is
//! identical step after step. This cache memoizes [`vax_arch::decode`]
//! results keyed by virtual PC, in the style of dynamic-translation
//! simulators' predecode tables. It is a pure *host-side* accelerator:
//! fetch/decode in this simulator is untimed (I-stream timing is carried by
//! the IB model), so a hit changes no histogram bucket, stat counter, or
//! trace event — simulated behaviour is bit-for-bit identical with the
//! cache on or off, which `CpuConfig::decode_cache` lets tests prove.
//!
//! # Validity
//!
//! A cached decode is served only while both of these hold:
//!
//! * **The instruction bytes are unchanged.** On insert, the CPU registers
//!   the bytes' physical range with the memory system's
//!   [`vax_mem::CodeWatch`]; any overlapping store (self-modifying code),
//!   page remap, or untracked physical write advances the *code epoch*, and
//!   [`DecodeCache::lookup`] flushes everything on epoch mismatch.
//! * **The PC still translates the same way.** Entries are tagged with a
//!   *mapping context*: an id for the page-table register tuple
//!   ([`vax_mem::PageTables`]) in force when the decode was cached. A
//!   context switch changes the tuple, so process A's entries are never
//!   served to process B — and survive B's run, because switching *away*
//!   does not flush them. Rewriting a PTE under cached code is caught by
//!   the code watch too: the fill path translates through
//!   `MemorySystem::raw_translate_watched`, which watches the PTE bytes it
//!   consults, so a store into page-table memory bumps the epoch exactly
//!   like a store into the code itself. TBIA/TBIS additionally flush the
//!   cache outright (defense in depth; they are rare).
//!
//! Geometry: direct-mapped, byte-granular PC index. Conflict misses only
//! cost a re-decode, never correctness. The slots are allocated in chunks
//! on the first insert that lands in each, so a machine that runs a short
//! loop backs the few chunks its PCs index instead of the whole table.

use vax_arch::Instruction;
use vax_mem::PageTables;

/// Slots in the direct-mapped cache (power of two). Sized for several
/// processes' working sets at once: contexts share the same virtual PC
/// ranges, so the index mixes the context id to keep them from thrashing
/// one another's slots (~2 MB of host memory at 16 K slots, if every chunk
/// is allocated).
pub const DECODE_CACHE_SLOTS: usize = 16384;

/// Slots per allocation chunk (power of two): 128 slots, ~16 KB of host
/// memory, covering 128 consecutive byte PCs of one context.
const CHUNK_SLOTS: usize = 128;

/// Chunks in the cache.
const CHUNKS: usize = DECODE_CACHE_SLOTS / CHUNK_SLOTS;

/// Most mapping contexts remembered at once; beyond this the registry and
/// cache reset (a backstop — real runs hold one context per process).
const MAX_CONTEXTS: usize = 64;

/// An empty slot. Valid tags always have a nonzero context field above
/// bit 32, so 0 can never match.
const NO_TAG: u64 = 0;

/// The body of an empty slot; never read while the tag is [`NO_TAG`].
const EMPTY: Slot = Slot {
    tag: NO_TAG,
    insn: Instruction {
        opcode: vax_arch::Opcode::Nop,
        specifiers: vax_arch::SpecList::new(),
        branch_disp: None,
        len: 1,
    },
};

/// Host-side hit/miss/flush counters (not part of any simulated
/// measurement — these never appear in exports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the decoder.
    pub misses: u64,
    /// Whole-cache invalidations (epoch changes + explicit flushes).
    pub flushes: u64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// `(context id + 1) << 32 | pc`, or [`NO_TAG`].
    tag: u64,
    insn: Instruction,
}

/// A direct-mapped cache of decoded instructions keyed by virtual PC and
/// mapping context.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    /// Slot `i` lives at `chunks[i / CHUNK_SLOTS][i % CHUNK_SLOTS]`; a chunk
    /// is `None` until the first insert into it, and every lookup there
    /// misses.
    chunks: [Option<Box<[Slot; CHUNK_SLOTS]>>; CHUNKS],
    /// The memory system's code epoch this cache's contents are valid for.
    epoch: u64,
    /// Registry of page-table tuples; a tuple's index is its context id.
    ctxs: Vec<PageTables>,
    /// Context id resolved for `cur_tables` (one-entry memo: table tuples
    /// change only at context switches, so this compare is the per-step
    /// fast path).
    cur_ctx: u32,
    cur_tables: Option<PageTables>,
    stats: DecodeCacheStats,
}

impl DecodeCache {
    /// An empty cache, valid for epoch 0. No chunk is allocated yet.
    pub fn new() -> DecodeCache {
        DecodeCache {
            chunks: [const { None }; CHUNKS],
            epoch: 0,
            ctxs: Vec::new(),
            cur_ctx: 0,
            cur_tables: None,
            stats: DecodeCacheStats::default(),
        }
    }

    /// Resolve the context id for `tables`, registering it if new.
    fn context(&mut self, tables: &PageTables) -> u32 {
        if self.cur_tables.as_ref() == Some(tables) {
            return self.cur_ctx;
        }
        let id = match self.ctxs.iter().position(|t| t == tables) {
            Some(i) => i as u32,
            None => {
                if self.ctxs.len() >= MAX_CONTEXTS {
                    self.flush();
                    self.ctxs.clear();
                }
                self.ctxs.push(*tables);
                (self.ctxs.len() - 1) as u32
            }
        };
        self.cur_ctx = id;
        self.cur_tables = Some(*tables);
        id
    }

    #[inline]
    fn tag(ctx: u32, pc: u32) -> u64 {
        ((ctx as u64 + 1) << 32) | pc as u64
    }

    /// Slot index: byte-granular PC, perturbed per context so that
    /// processes sharing a virtual code range don't contend for the same
    /// slots.
    #[inline]
    fn index(ctx: u32, pc: u32) -> usize {
        (pc as usize ^ (ctx as usize).wrapping_mul(0x9E37_79B1)) & (DECODE_CACHE_SLOTS - 1)
    }

    /// Look up the decode for `pc` under the current `tables`, first
    /// syncing with the memory system's code epoch: on mismatch the whole
    /// cache flushes (watched bytes may have changed) before the probe.
    #[inline]
    pub fn lookup(&mut self, pc: u32, code_epoch: u64, tables: &PageTables) -> Option<Instruction> {
        if self.epoch != code_epoch {
            self.flush();
            self.epoch = code_epoch;
        }
        let ctx = self.context(tables);
        let i = Self::index(ctx, pc);
        match &self.chunks[i / CHUNK_SLOTS] {
            Some(chunk) if chunk[i % CHUNK_SLOTS].tag == Self::tag(ctx, pc) => {
                self.stats.hits += 1;
                Some(chunk[i % CHUNK_SLOTS].insn)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Install the decode for `pc` under the context of the immediately
    /// preceding [`DecodeCache::lookup`]. The caller must have registered
    /// the instruction's byte range with the memory system's code watch
    /// first.
    #[inline]
    pub fn insert(&mut self, pc: u32, insn: Instruction) {
        let i = Self::index(self.cur_ctx, pc);
        let chunk =
            self.chunks[i / CHUNK_SLOTS].get_or_insert_with(|| Box::new([EMPTY; CHUNK_SLOTS]));
        chunk[i % CHUNK_SLOTS] = Slot {
            tag: Self::tag(self.cur_ctx, pc),
            insn,
        };
    }

    /// Drop every cached decode, for every context. Allocated chunks stay
    /// allocated, emptied.
    pub fn flush(&mut self) {
        for slot in self.chunks.iter_mut().flatten().flat_map(|c| c.iter_mut()) {
            slot.tag = NO_TAG;
        }
        self.stats.flushes += 1;
    }

    /// Host-side counters.
    pub fn stats(&self) -> DecodeCacheStats {
        self.stats
    }
}

impl Default for DecodeCache {
    fn default() -> DecodeCache {
        DecodeCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::{decode, Opcode};
    use vax_mem::{PhysAddr, VirtAddr};

    fn movl() -> Instruction {
        decode(&[0xD0, 0x51, 0x52]).unwrap()
    }

    fn tables(p0br: u32) -> PageTables {
        PageTables {
            sbr: PhysAddr(0x10000),
            slr: 64,
            p0br: VirtAddr(p0br),
            p0lr: 16,
            p1br: VirtAddr(0x8000_0200),
            p1lr: 16,
        }
    }

    #[test]
    fn miss_insert_hit() {
        let mut c = DecodeCache::new();
        let t = tables(0x8000_0000);
        assert_eq!(c.lookup(0x200, 0, &t), None);
        c.insert(0x200, movl());
        let hit = c.lookup(0x200, 0, &t).expect("hit after insert");
        assert_eq!(hit.opcode, Opcode::Movl);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn epoch_change_flushes() {
        let mut c = DecodeCache::new();
        let t = tables(0x8000_0000);
        c.lookup(0x200, 0, &t);
        c.insert(0x200, movl());
        assert!(c.lookup(0x200, 0, &t).is_some());
        assert_eq!(c.lookup(0x200, 1, &t), None, "new epoch drops the entry");
        assert!(c.stats().flushes >= 1);
        // Same epoch again: still gone until reinserted.
        assert_eq!(c.lookup(0x200, 1, &t), None);
    }

    #[test]
    fn contexts_do_not_cross_serve() {
        let mut c = DecodeCache::new();
        let (ta, tb) = (tables(0x8000_0000), tables(0x8000_1000));
        c.lookup(0x200, 0, &ta);
        c.insert(0x200, movl());
        // Same PC under a different page-table tuple: miss, not A's decode.
        assert_eq!(c.lookup(0x200, 0, &tb), None);
        // A's entry survived B's run.
        assert!(c.lookup(0x200, 0, &ta).is_some());
    }

    #[test]
    fn distinct_pcs_do_not_alias() {
        let mut c = DecodeCache::new();
        let t = tables(0x8000_0000);
        c.lookup(0x200, 0, &t);
        c.insert(0x200, movl());
        // Same slot index (0x200 + SLOTS), different tag.
        let other = 0x200 + DECODE_CACHE_SLOTS as u32;
        assert_eq!(c.lookup(other, 0, &t), None);
        c.insert(other, movl());
        assert_eq!(c.lookup(0x200, 0, &t), None, "conflict eviction, not a hit");
    }

    fn clrl() -> Instruction {
        decode(&[0xD4, 0x51]).unwrap()
    }

    fn allocated_chunks(c: &DecodeCache) -> usize {
        c.chunks.iter().filter(|chunk| chunk.is_some()).count()
    }

    #[test]
    fn chunks_are_allocated_on_first_insert_only() {
        let mut c = DecodeCache::new();
        let t = tables(0x8000_0000);
        assert_eq!(allocated_chunks(&c), 0, "a new cache backs no slots");
        assert_eq!(c.lookup(0x200, 0, &t), None);
        assert_eq!(allocated_chunks(&c), 0, "a lookup allocates nothing");
        c.insert(0x200, movl());
        assert_eq!(allocated_chunks(&c), 1);
        // Same chunk: no new allocation.
        c.lookup(0x201, 0, &t);
        c.insert(0x201, movl());
        assert_eq!(allocated_chunks(&c), 1);
        // A PC whose slot sits in an unallocated chunk misses.
        let far = 0x200 + CHUNK_SLOTS as u32;
        assert_eq!(c.lookup(far, 0, &t), None);
        assert_eq!(allocated_chunks(&c), 1);
        assert!(c.lookup(0x200, 0, &t).is_some());
    }

    #[test]
    fn flush_clears_every_allocated_chunk() {
        let mut c = DecodeCache::new();
        let (ta, tb) = (tables(0x8000_0000), tables(0x8000_1000));
        let pcs: Vec<u32> = (0..8).map(|k| 0x200 + k * 3 * CHUNK_SLOTS as u32).collect();
        for t in [&ta, &tb] {
            for &pc in &pcs {
                c.lookup(pc, 0, t);
                c.insert(pc, movl());
            }
        }
        let before = allocated_chunks(&c);
        assert!(before > pcs.len(), "two contexts spread over many chunks");
        c.flush();
        assert_eq!(allocated_chunks(&c), before, "flush keeps the chunks");
        for chunk in c.chunks.iter().flatten() {
            assert!(chunk.iter().all(|slot| slot.tag == NO_TAG));
        }
        for t in [&ta, &tb] {
            for &pc in &pcs {
                assert_eq!(c.lookup(pc, 0, t), None, "flushed entry served");
            }
        }
    }

    #[test]
    fn contexts_never_share_an_entry_across_chunks() {
        let mut c = DecodeCache::new();
        let (ta, tb) = (tables(0x8000_0000), tables(0x8000_1000));
        let pcs = 0x200..0x200 + 4 * CHUNK_SLOTS as u32;
        for pc in pcs.clone() {
            c.lookup(pc, 0, &ta);
            c.insert(pc, movl());
        }
        for pc in pcs.clone() {
            assert_eq!(c.lookup(pc, 0, &tb), None, "A's decode served to B");
            c.insert(pc, clrl());
        }
        for pc in pcs {
            // A's entry survives or was evicted; it is never B's decode.
            if let Some(insn) = c.lookup(pc, 0, &ta) {
                assert_eq!(insn.opcode, Opcode::Movl);
            }
            assert_eq!(c.lookup(pc, 0, &tb).map(|i| i.opcode), Some(Opcode::Clrl));
        }
    }

    #[test]
    fn context_registry_overflow_resets() {
        let mut c = DecodeCache::new();
        let t0 = tables(0);
        c.lookup(0x200, 0, &t0);
        c.insert(0x200, movl());
        for i in 1..=MAX_CONTEXTS as u32 {
            c.lookup(0x200, 0, &tables(i * 0x1000));
        }
        // The registry reset flushed everything; no stale cross-context hit.
        assert_eq!(c.lookup(0x200, 0, &t0), None);
    }
}
