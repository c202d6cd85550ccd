//! The I-Fetch unit and its 8-byte instruction buffer (IB).
//!
//! The IB issues a cache reference "whenever one or more bytes are empty"
//! (paper §4.1). A fill targets the aligned longword containing the next
//! fetch address and delivers at most the bytes from that address to the end
//! of the longword, bounded by the free room — so the same longword may be
//! referenced more than once (the paper measured ~2.2 references per
//! instruction delivering ~1.7 bytes each).
//!
//! An I-stream TB miss does not trap immediately: a flag is set, fetching
//! stops, and the miss is serviced by the EBOX when decode actually starves
//! (paper §2.1).
//!
//! The EBOX calls [`Ib::sync`] on every microcycle, but the I-Fetch unit
//! can act only when a fill arrives or when room opens up. The IB keeps
//! the earliest cycle at which `sync` can change anything (the pending
//! fill's arrival, or never while the IB is full or blocked on a TB miss),
//! and `sync` returns at once before it. [`Ib::consume`], [`Ib::flush`]
//! and [`Ib::clear_itb_miss`] reset it, so every fill is still issued on
//! the cycle it would be without the skip.

use vax_mem::{MemorySystem, VirtAddr};

/// IB capacity in bytes.
pub const IB_BYTES: u32 = 8;

#[derive(Debug, Clone, Copy)]
struct PendingFill {
    avail_at: u64,
    nbytes: u32,
}

/// The instruction buffer state.
#[derive(Debug, Clone)]
pub struct Ib {
    /// Virtual address of the next byte to *fetch* (ahead of decode).
    vpc: u32,
    /// Bytes currently buffered and not yet consumed.
    valid: u32,
    /// At most one outstanding fill.
    pending: Option<PendingFill>,
    /// Fetch blocked on an I-stream TB miss at this address.
    itb_miss: Option<VirtAddr>,
    /// Earliest cycle at which `sync` can change anything: the pending
    /// fill's `avail_at`, `u64::MAX` while the IB is full or blocked on an
    /// I-stream TB miss, 0 after a change that may let a fill issue.
    next_event: u64,
}

impl Ib {
    /// An empty IB fetching from nowhere; call [`Ib::flush`] first.
    pub fn new() -> Ib {
        Ib {
            vpc: 0,
            valid: 0,
            pending: None,
            itb_miss: None,
            next_event: 0,
        }
    }

    /// Number of buffered bytes.
    pub fn valid_bytes(&self) -> u32 {
        self.valid
    }

    /// Redirect fetching to `new_pc`, discarding buffered bytes (taken
    /// branches, interrupts, context switches).
    pub fn flush(&mut self, new_pc: u32) {
        self.vpc = new_pc;
        self.valid = 0;
        self.pending = None;
        self.itb_miss = None;
        self.next_event = 0;
    }

    /// The blocked-fetch address, if fetch hit an I-stream TB miss.
    pub fn itb_miss(&self) -> Option<VirtAddr> {
        self.itb_miss
    }

    /// Clear the TB-miss flag after the EBOX has serviced it.
    pub fn clear_itb_miss(&mut self) {
        self.itb_miss = None;
        self.next_event = 0;
    }

    /// Advance the I-Fetch unit to time `now`: complete an arrived fill and
    /// issue a new one if there is room.
    #[inline]
    pub fn sync(&mut self, now: u64, mem: &mut MemorySystem) {
        if now < self.next_event {
            debug_assert!(
                match self.pending {
                    Some(p) => p.avail_at > now,
                    None => self.itb_miss.is_some() || self.valid == IB_BYTES,
                },
                "IB sync skipped at cycle {now} with a fill due or room free"
            );
            return;
        }
        self.fetch(now, mem);
    }

    fn fetch(&mut self, now: u64, mem: &mut MemorySystem) {
        if let Some(p) = self.pending {
            if p.avail_at <= now {
                self.valid += p.nbytes;
                self.pending = None;
            }
        }
        if self.pending.is_none() && self.itb_miss.is_none() && self.valid < IB_BYTES {
            let va = VirtAddr(self.vpc);
            match mem.ifetch(va, now) {
                None => self.itb_miss = Some(va),
                Some(fill) => {
                    let lw_remaining = va.remaining_in(4);
                    let room = IB_BYTES - self.valid;
                    let take = lw_remaining.min(room);
                    self.pending = Some(PendingFill {
                        avail_at: fill.avail_at,
                        nbytes: take,
                    });
                    self.vpc = self.vpc.wrapping_add(take);
                }
            }
        }
        // With no fill pending, the IB is full or blocked: nothing happens
        // until a consume, flush or cleared TB miss resets the mark.
        self.next_event = self.pending.map_or(u64::MAX, |p| p.avail_at);
    }

    /// Consume `n` buffered bytes.
    ///
    /// # Panics
    /// Panics if fewer than `n` bytes are buffered — the EBOX must wait
    /// (recording IB-stall cycles) until [`Ib::valid_bytes`] suffices.
    pub fn consume(&mut self, n: u32) {
        assert!(
            self.valid >= n,
            "IB underflow: consuming {n} with {} buffered",
            self.valid
        );
        self.valid -= n;
        self.next_event = 0;
    }
}

impl Default for Ib {
    fn default() -> Self {
        Ib::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_mem::{PageTables, PhysAddr, Pte};

    fn mem_with_code() -> MemorySystem {
        let mut ms = MemorySystem::new_780();
        ms.tables = PageTables {
            sbr: PhysAddr(0x10000),
            slr: 64,
            p0br: VirtAddr(0x8000_0000),
            p0lr: 16,
            p1br: VirtAddr(0x8000_0200),
            p1lr: 16,
        };
        for vpn in 0..64u32 {
            let pfn = (0x40000 >> 9) + vpn;
            ms.phys_mut()
                .write(PhysAddr(0x10000 + vpn * 4), 4, Pte::valid(pfn).0 as u64);
        }
        for vpn in 0..16u32 {
            let pfn = (0x80000 >> 9) + vpn;
            ms.phys_mut()
                .write(PhysAddr(0x40000 + vpn * 4), 4, Pte::valid(pfn).0 as u64);
        }
        ms
    }

    #[test]
    fn fills_after_flush() {
        let mut ms = mem_with_code();
        // Pre-fill the TB so fetch does not miss.
        ms.tb_fill(VirtAddr(0x200), 0).unwrap();
        let mut ib = Ib::new();
        ib.flush(0x200);
        // First sync issues the fill; it misses the cache and queues behind
        // the TB fill's PTE traffic on the SBI.
        ib.sync(0, &mut ms);
        assert_eq!(ib.valid_bytes(), 0);
        for t in 1..40 {
            ib.sync(t, &mut ms);
        }
        assert_eq!(ib.valid_bytes(), 8, "IB fills to capacity given time");
    }

    #[test]
    fn itb_miss_blocks_fetch() {
        let mut ms = mem_with_code();
        let mut ib = Ib::new();
        ib.flush(0x200); // not in TB
        ib.sync(0, &mut ms);
        assert_eq!(ib.itb_miss(), Some(VirtAddr(0x200)));
        assert_eq!(ib.valid_bytes(), 0);
        assert_eq!(ms.stats.tb_miss_i, 1);
        // Service and resume.
        ms.tb_fill(VirtAddr(0x200), 0).unwrap();
        ib.clear_itb_miss();
        ib.sync(10, &mut ms);
        ib.sync(20, &mut ms);
        assert!(ib.valid_bytes() > 0);
    }

    #[test]
    fn misaligned_start_takes_partial_longword() {
        let mut ms = mem_with_code();
        ms.tb_fill(VirtAddr(0x200), 0).unwrap();
        let mut ib = Ib::new();
        ib.flush(0x203); // one byte left in this longword
        ib.sync(0, &mut ms);
        let mut t = 1;
        while ib.valid_bytes() == 0 && t < 40 {
            ib.sync(t, &mut ms);
            t += 1;
        }
        assert_eq!(
            ib.valid_bytes(),
            1,
            "first fill delivers the partial longword"
        );
    }

    #[test]
    fn consume_and_underflow() {
        let mut ms = mem_with_code();
        ms.tb_fill(VirtAddr(0x200), 0).unwrap();
        let mut ib = Ib::new();
        ib.flush(0x200);
        for t in 0..20 {
            ib.sync(t, &mut ms);
        }
        assert_eq!(ib.valid_bytes(), 8);
        ib.consume(3);
        assert_eq!(ib.valid_bytes(), 5);
    }

    /// An IB fetching from 0x200 (TB filled), synced until full; returns
    /// it with the next cycle.
    fn full_ib(ms: &mut MemorySystem) -> (Ib, u64) {
        ms.tb_fill(VirtAddr(0x200), 0).unwrap();
        let mut ib = Ib::new();
        ib.flush(0x200);
        for t in 0..40 {
            ib.sync(t, ms);
        }
        assert_eq!(ib.valid_bytes(), 8);
        (ib, 40)
    }

    #[test]
    fn a_full_ib_issues_no_fill_until_consume() {
        let mut ms = mem_with_code();
        let (mut ib, t) = full_ib(&mut ms);
        let reads = ms.stats.i_reads;
        for t in t..t + 50 {
            ib.sync(t, &mut ms);
        }
        assert_eq!(ms.stats.i_reads, reads, "a full IB fetches nothing");
        ib.consume(3);
        ib.sync(t + 50, &mut ms);
        assert_eq!(
            ms.stats.i_reads,
            reads + 1,
            "room opens: the next sync fills"
        );
        assert_eq!(ib.vpc, 0x20B, "three bytes of room");
    }

    #[test]
    fn flush_issues_at_the_new_pc_on_the_next_sync() {
        let mut ms = mem_with_code();
        let (mut ib, t) = full_ib(&mut ms);
        let reads = ms.stats.i_reads;
        ib.flush(0x20A);
        ib.sync(t, &mut ms);
        assert_eq!(ms.stats.i_reads, reads + 1);
        assert_eq!(ib.vpc, 0x20C, "two bytes to the end of the longword");
        // A pending fill does not hold back a flush to an unmapped page.
        ib.flush(0x400);
        ib.sync(t, &mut ms);
        assert_eq!(ib.itb_miss(), Some(VirtAddr(0x400)));
        assert_eq!(ms.stats.tb_miss_i, 1);
    }

    #[test]
    fn clear_itb_miss_resumes_fetching() {
        let mut ms = mem_with_code();
        let mut ib = Ib::new();
        ib.flush(0x200);
        for t in 0..50 {
            ib.sync(t, &mut ms);
        }
        assert_eq!(ib.itb_miss(), Some(VirtAddr(0x200)));
        assert_eq!((ms.stats.tb_miss_i, ms.stats.i_reads), (1, 0), "blocked");
        ms.tb_fill(VirtAddr(0x200), 50).unwrap();
        ib.clear_itb_miss();
        ib.sync(50, &mut ms);
        assert_eq!((ms.stats.tb_miss_i, ms.stats.i_reads), (1, 1));
        assert_eq!(ib.itb_miss(), None);
    }

    #[test]
    #[should_panic(expected = "IB underflow")]
    fn underflow_panics() {
        let mut ib = Ib::new();
        ib.consume(1);
    }
}
