//! Measurement results: the raw material of the paper's tables.

use upc_monitor::Histogram;
use vax_cpu::CpuStats;
use vax_mem::MemStats;

/// Everything one measurement run produced: the µPC histogram (both
/// planes), the CPU's own counters, and the memory-system counters.
///
/// Measurements are mergeable: the paper's composite workload is "the sum
/// of the five UPC histograms". `Measurement::default()` is the identity
/// of that sum: zero counters and a board with nothing backed, which grows
/// to the first merged board's backing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Measurement {
    /// The histogram board contents.
    pub hist: Histogram,
    /// CPU counters over the interval.
    pub cpu_stats: CpuStats,
    /// Memory-system counters over the interval.
    pub mem_stats: MemStats,
    /// Total cycles in the interval.
    pub cycles: u64,
}

impl Measurement {
    /// Instructions retired in the interval.
    pub fn instructions(&self) -> u64 {
        self.cpu_stats.instructions
    }

    /// Cycles per instruction — the paper's headline metric.
    pub fn cpi(&self) -> f64 {
        if self.instructions() == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.instructions() as f64
    }

    /// Merge another measurement (composite workloads).
    pub fn merge(&mut self, other: &Measurement) {
        self.hist.merge(&other.hist);
        self.cpu_stats.merge(&other.cpu_stats);
        self.mem_stats.merge(&other.mem_stats);
        self.cycles += other.cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> Measurement {
        Measurement::default()
    }

    #[test]
    fn cpi() {
        let mut m = empty();
        m.cycles = 1060;
        m.cpu_stats.instructions = 100;
        assert!((m.cpi() - 10.6).abs() < 1e-9);
        assert_eq!(empty().cpi(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = empty();
        a.cycles = 100;
        a.cpu_stats.instructions = 10;
        a.mem_stats.d_reads = 5;
        let mut b = empty();
        b.cycles = 50;
        b.cpu_stats.instructions = 5;
        b.mem_stats.d_reads = 2;
        a.merge(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.instructions(), 15);
        assert_eq!(a.mem_stats.d_reads, 7);
    }
}
