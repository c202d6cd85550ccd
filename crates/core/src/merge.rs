//! Deterministic result merging: the [`Mergeable`] trait and
//! [`merge_ordered`].
//!
//! The paper's composite workload is literally "the sum of the five
//! experiments' histograms"; this module names that structure. Every
//! counter block the simulator produces — [`Histogram`], [`CpuStats`],
//! [`MemStats`], and the whole [`Measurement`] — forms a commutative
//! monoid under counter addition with `Default::default()` as identity
//! (the laws are property-tested in `tests/merge_properties.rs`, across
//! boards of unequal backing too). Parallel runs lean on that: the sharded
//! engine folds each cell into its workload's total as the cell finishes,
//! in nondeterministic order, and because every counter is an integer
//! sum, the composite is bit-identical to a serial run's regardless of
//! scheduling.

use upc_monitor::Histogram;
use vax_cpu::CpuStats;
use vax_mem::MemStats;

use crate::measurement::Measurement;

/// A counter block that can absorb another block of the same kind (for a
/// [`Histogram`], of any backing).
///
/// Implementations must satisfy the monoid laws the deterministic-merge
/// guarantee rests on, with `Default::default()` as the identity:
///
/// * identity — `default ⊕ a = a`;
/// * associativity — `(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)`;
/// * commutativity — `a ⊕ b = b ⊕ a` (counter sums commute, so any
///   merge order is as good as any other, completion order included).
pub trait Mergeable: Default {
    /// Fold `other` into `self` (`self ← self ⊕ other`).
    fn merge_from(&mut self, other: &Self);
}

impl Mergeable for Histogram {
    fn merge_from(&mut self, other: &Self) {
        Histogram::merge(self, other);
    }
}

impl Mergeable for CpuStats {
    fn merge_from(&mut self, other: &Self) {
        CpuStats::merge(self, other);
    }
}

impl Mergeable for MemStats {
    fn merge_from(&mut self, other: &Self) {
        MemStats::merge(self, other);
    }
}

impl Mergeable for Measurement {
    fn merge_from(&mut self, other: &Self) {
        Measurement::merge(self, other);
    }
}

/// Reduce `parts` in iteration order into one block.
///
/// Every block's counters are integer sums, so the result is the same for
/// any order of `parts` (commutativity and associativity, property-tested):
/// a reduction in grid-index order and a fold in completion order give the
/// same bytes.
pub fn merge_ordered<T, I>(parts: I) -> T
where
    T: Mergeable,
    I: IntoIterator,
    I::Item: std::borrow::Borrow<T>,
{
    use std::borrow::Borrow;
    let mut total = T::default();
    for p in parts {
        total.merge_from(p.borrow());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(cycles: u64, instructions: u64, d_reads: u64) -> Measurement {
        let mut m = Measurement {
            cycles,
            ..Measurement::default()
        };
        m.cpu_stats.instructions = instructions;
        m.mem_stats.d_reads = d_reads;
        m
    }

    #[test]
    fn merge_ordered_matches_sequential_inherent_merge() {
        let parts = vec![m(100, 10, 3), m(50, 5, 2), m(25, 1, 9)];
        let total: Measurement = merge_ordered(&parts);
        let mut want = parts[0].clone();
        want.merge(&parts[1]);
        want.merge(&parts[2]);
        assert_eq!(total, want);
        assert_eq!(total.cycles, 175);
        assert_eq!(total.instructions(), 16);
        assert_eq!(total.mem_stats.d_reads, 14);
    }

    #[test]
    fn merge_ordered_of_nothing_is_identity() {
        let total: Measurement = merge_ordered(std::iter::empty::<Measurement>());
        assert_eq!(total, Measurement::default());
        let stats: MemStats = merge_ordered(std::iter::empty::<MemStats>());
        assert_eq!(stats, MemStats::default());
    }

    #[test]
    fn trait_and_inherent_merge_agree_per_component() {
        let a = m(10, 2, 1);
        let b = m(7, 3, 4);
        let mut via_trait = a.cpu_stats.clone();
        via_trait.merge_from(&b.cpu_stats);
        let mut via_inherent = a.cpu_stats.clone();
        via_inherent.merge(&b.cpu_stats);
        assert_eq!(via_trait, via_inherent);

        let mut hist_t = a.hist.clone();
        hist_t.merge_from(&b.hist);
        assert_eq!(hist_t, a.hist, "empty boards merge to empty");
    }
}
