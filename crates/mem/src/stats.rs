//! Memory-system event counters (the implementation events of paper §4).

/// Counts of memory-system events over a measurement interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// D-stream read references (physical, after unaligned doubling).
    pub d_reads: u64,
    /// D-stream read cache misses.
    pub d_read_misses: u64,
    /// D-stream writes.
    pub d_writes: u64,
    /// D-stream writes that hit (and updated) the cache.
    pub d_write_hits: u64,
    /// I-stream (IB) longword references.
    pub i_reads: u64,
    /// I-stream cache misses.
    pub i_read_misses: u64,
    /// TB misses triggered by D-stream references.
    pub tb_miss_d: u64,
    /// TB misses triggered by I-stream references.
    pub tb_miss_i: u64,
    /// References that crossed an aligned-longword boundary (each costs an
    /// extra physical reference).
    pub unaligned_refs: u64,
    /// PTE reads performed by TB-miss service.
    pub pte_reads: u64,
    /// PTE reads that missed the cache.
    pub pte_read_misses: u64,
    /// Total read-stall cycles suffered by the EBOX.
    pub read_stall_cycles: u64,
    /// Total write-stall cycles suffered by the EBOX.
    pub write_stall_cycles: u64,
    /// Injected SBI/memory parity faults latched for machine-check delivery.
    pub parity_faults: u64,
}

impl MemStats {
    /// Zeroed counters.
    pub fn new() -> MemStats {
        MemStats::default()
    }

    /// Reset all counters (monitor `clear`).
    pub fn clear(&mut self) {
        *self = MemStats::default();
    }

    /// Total cache read misses (I + D + PTE).
    pub fn total_read_misses(&self) -> u64 {
        self.d_read_misses + self.i_read_misses + self.pte_read_misses
    }

    /// Total TB misses.
    pub fn total_tb_misses(&self) -> u64 {
        self.tb_miss_d + self.tb_miss_i
    }

    /// Every counter as `(name, value)`, in declaration order; each name
    /// is its field's identifier. The one list [`MemStats::merge`] walks
    /// and every export and checkpoint reads.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("d_reads", self.d_reads),
            ("d_read_misses", self.d_read_misses),
            ("d_writes", self.d_writes),
            ("d_write_hits", self.d_write_hits),
            ("i_reads", self.i_reads),
            ("i_read_misses", self.i_read_misses),
            ("tb_miss_d", self.tb_miss_d),
            ("tb_miss_i", self.tb_miss_i),
            ("unaligned_refs", self.unaligned_refs),
            ("pte_reads", self.pte_reads),
            ("pte_read_misses", self.pte_read_misses),
            ("read_stall_cycles", self.read_stall_cycles),
            ("write_stall_cycles", self.write_stall_cycles),
            ("parity_faults", self.parity_faults),
        ]
    }

    /// [`MemStats::fields`] as `(name, slot)`, for merging and decoding.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 14] {
        [
            ("d_reads", &mut self.d_reads),
            ("d_read_misses", &mut self.d_read_misses),
            ("d_writes", &mut self.d_writes),
            ("d_write_hits", &mut self.d_write_hits),
            ("i_reads", &mut self.i_reads),
            ("i_read_misses", &mut self.i_read_misses),
            ("tb_miss_d", &mut self.tb_miss_d),
            ("tb_miss_i", &mut self.tb_miss_i),
            ("unaligned_refs", &mut self.unaligned_refs),
            ("pte_reads", &mut self.pte_reads),
            ("pte_read_misses", &mut self.pte_read_misses),
            ("read_stall_cycles", &mut self.read_stall_cycles),
            ("write_stall_cycles", &mut self.write_stall_cycles),
            ("parity_faults", &mut self.parity_faults),
        ]
    }

    /// Add another counter block (composite workloads).
    pub fn merge(&mut self, other: &MemStats) {
        for ((_, a), (_, b)) in self.fields_mut().into_iter().zip(other.fields()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let stats = MemStats {
            d_read_misses: 3,
            i_read_misses: 4,
            pte_read_misses: 1,
            tb_miss_d: 2,
            tb_miss_i: 5,
            ..MemStats::default()
        };
        assert_eq!(stats.total_read_misses(), 8);
        assert_eq!(stats.total_tb_misses(), 7);
    }

    #[test]
    fn clear_resets() {
        let mut stats = MemStats {
            d_reads: 10,
            ..MemStats::default()
        };
        stats.clear();
        assert_eq!(stats, MemStats::default());
    }

    /// A name paired with the wrong field survives every round trip, so
    /// each field holds a distinct value and both lists must name it.
    #[test]
    fn each_name_sits_beside_its_own_field() {
        let mut stats = MemStats {
            d_reads: 1,
            d_read_misses: 2,
            d_writes: 3,
            d_write_hits: 4,
            i_reads: 5,
            i_read_misses: 6,
            tb_miss_d: 7,
            tb_miss_i: 8,
            unaligned_refs: 9,
            pte_reads: 10,
            pte_read_misses: 11,
            read_stall_cycles: 12,
            write_stall_cycles: 13,
            parity_faults: 14,
        };
        let want: Vec<(&str, u64)> = [
            "d_reads",
            "d_read_misses",
            "d_writes",
            "d_write_hits",
            "i_reads",
            "i_read_misses",
            "tb_miss_d",
            "tb_miss_i",
            "unaligned_refs",
            "pte_reads",
            "pte_read_misses",
            "read_stall_cycles",
            "write_stall_cycles",
            "parity_faults",
        ]
        .into_iter()
        .zip(1..)
        .collect();
        assert_eq!(stats.fields().to_vec(), want);
        let slots: Vec<(&str, u64)> = stats.fields_mut().map(|(k, v)| (k, *v)).to_vec();
        assert_eq!(slots, want);
    }
}
