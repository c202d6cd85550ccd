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

use vax_mem::{MemorySystem, PhysAddr, RefClass, VirtAddr};

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
}

impl Ib {
    /// An empty IB fetching from nowhere; call [`Ib::flush`] first.
    pub fn new() -> Ib {
        Ib {
            vpc: 0,
            valid: 0,
            pending: None,
            itb_miss: None,
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
    }

    /// The blocked-fetch address, if fetch hit an I-stream TB miss.
    pub fn itb_miss(&self) -> Option<VirtAddr> {
        self.itb_miss
    }

    /// Clear the TB-miss flag after the EBOX has serviced it.
    pub fn clear_itb_miss(&mut self) {
        self.itb_miss = None;
    }

    /// Advance the I-Fetch unit to time `now`: complete an arrived fill and
    /// issue a new one if there is room.
    pub fn sync(&mut self, now: u64, mem: &mut MemorySystem) {
        if let Some(p) = self.pending {
            if p.avail_at <= now {
                self.valid += p.nbytes;
                self.pending = None;
            }
        }
        if self.pending.is_none() && self.itb_miss.is_none() && self.valid < IB_BYTES {
            let va = VirtAddr(self.vpc);
            match mem.probe_tb(va, RefClass::IStream) {
                None => self.itb_miss = Some(va),
                Some(pa) => {
                    let lw_pa = PhysAddr(pa.0 & !3);
                    let fill = mem.ifetch_cycle(lw_pa, now);
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
    use vax_mem::{PageTables, Pte};

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

    #[test]
    #[should_panic(expected = "IB underflow")]
    fn underflow_panics() {
        let mut ib = Ib::new();
        ib.consume(1);
    }
}
