//! The histogram count board.
//!
//! A passive Unibus device: 16 K addressable buckets in two planes (normal /
//! stalled), incremented at the microcycle rate while collection is enabled.
//! The board does not interpret anything — interpretation is the job of the
//! reduction in `vax-analysis`, keyed by the control-store map.
//!
//! Every board is logically [`BOARD_BUCKETS`] wide, but only a prefix of it
//! is backed by memory, sized by its owner: a CPU backs exactly the
//! locations its control store allocates, so the buckets no microinstruction
//! can select cost nothing to allocate, clear, copy, scan or merge. An
//! unbacked bucket reads 0, a merge grows the receiver's backing to the
//! longer of the two, and equality compares counts, never backing sizes.

use crate::map::MicroPc;
use crate::BOARD_BUCKETS;

/// Which counter plane an observation lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// The microinstruction executed normally this cycle.
    Normal,
    /// The microinstruction spent this cycle read- or write-stalled.
    Stalled,
}

/// The micro-PC histogram board (see the module docs for its backing).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// The backed prefix of each plane; both always have the same length.
    normal: Vec<u64>,
    stalled: Vec<u64>,
    running: bool,
}

impl Histogram {
    /// A board backing its first `buckets` locations per plane, stopped
    /// and cleared.
    ///
    /// # Panics
    /// Panics if `buckets` exceeds [`BOARD_BUCKETS`].
    pub fn new(buckets: usize) -> Histogram {
        assert!(
            buckets <= BOARD_BUCKETS,
            "the board has {BOARD_BUCKETS} locations, not {buckets}"
        );
        Histogram {
            normal: vec![0; buckets],
            stalled: vec![0; buckets],
            running: false,
        }
    }

    /// The real board: 16,000-odd locations (we round to 16 K), all backed.
    pub fn new_16k() -> Histogram {
        Histogram::new(BOARD_BUCKETS)
    }

    /// Locations backed per plane; every location past them reads 0.
    pub fn backed_buckets(&self) -> usize {
        self.normal.len()
    }

    /// Begin collection (Unibus "start" command).
    pub fn start(&mut self) {
        self.running = true;
    }

    /// End collection (Unibus "stop" command).
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Clear all buckets (Unibus "clear" command). Only the backed prefix
    /// can hold a count, so only it is written.
    pub fn clear(&mut self) {
        self.normal.fill(0);
        self.stalled.fill(0);
    }

    /// Record `n` cycles at `upc` in `plane`. No-op while stopped — the
    /// board is passive and never perturbs the machine.
    ///
    /// # Panics
    /// Panics if `upc` is past the backed prefix: the owner sized the
    /// backing to every location it can select.
    #[inline]
    pub fn record_n(&mut self, upc: MicroPc, plane: Plane, n: u64) {
        if !self.running {
            return;
        }
        let i = upc.0 as usize;
        match plane {
            Plane::Normal => self.normal[i] += n,
            Plane::Stalled => self.stalled[i] += n,
        }
    }

    /// Record one cycle at `upc` in `plane`.
    #[inline]
    pub fn record(&mut self, upc: MicroPc, plane: Plane) {
        self.record_n(upc, plane, 1);
    }

    /// Read one bucket; a location past the backed prefix reads 0.
    pub fn read(&self, upc: MicroPc, plane: Plane) -> u64 {
        let counts = match plane {
            Plane::Normal => &self.normal,
            Plane::Stalled => &self.stalled,
        };
        counts.get(upc.0 as usize).copied().unwrap_or(0)
    }

    /// Total cycles recorded across both planes (conservation checks).
    pub fn total_cycles(&self) -> u64 {
        self.normal.iter().sum::<u64>() + self.stalled.iter().sum::<u64>()
    }

    /// Total cycles in one plane.
    pub fn plane_total(&self, plane: Plane) -> u64 {
        match plane {
            Plane::Normal => self.normal.iter().sum(),
            Plane::Stalled => self.stalled.iter().sum(),
        }
    }

    /// Merge another histogram's counts into this one — how the paper's
    /// composite workload (the sum of the five experiments' histograms) was
    /// formed. The receiver's backing grows to cover `other`'s.
    pub fn merge(&mut self, other: &Histogram) {
        if self.normal.len() < other.normal.len() {
            self.normal.resize(other.normal.len(), 0);
            self.stalled.resize(other.stalled.len(), 0);
        }
        for (a, b) in self.normal.iter_mut().zip(&other.normal) {
            *a += b;
        }
        for (a, b) in self.stalled.iter_mut().zip(&other.stalled) {
            *a += b;
        }
    }

    /// Iterate over non-zero buckets as (µPC, plane, count).
    pub fn nonzero(&self) -> impl Iterator<Item = (MicroPc, Plane, u64)> + '_ {
        let normals = self
            .normal
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (MicroPc(i as u16), Plane::Normal, c));
        let stalls = self
            .stalled
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (MicroPc(i as u16), Plane::Stalled, c));
        normals.chain(stalls)
    }
}

impl Default for Histogram {
    /// A board with nothing backed, stopped: the identity of
    /// [`Histogram::merge`], which backs what the first merged board backs.
    fn default() -> Histogram {
        Histogram::new(0)
    }
}

/// Two boards are equal when they recorded the same counts. Neither the
/// backing size nor the transient `running` flag is data: an unbacked
/// location and a backed zero read alike, and a stopped snapshot equals a
/// still-armed board with identical buckets, which is what merge-law
/// reasoning (`a ⊕ b = b ⊕ a`, `∅ ⊕ a = a`) needs.
impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        fn same(a: &[u64], b: &[u64]) -> bool {
            let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            long[..short.len()] == *short && long[short.len()..].iter().all(|&c| c == 0)
        }
        same(&self.normal, &other.normal) && same(&self.stalled, &other.stalled)
    }
}

impl Eq for Histogram {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_when_stopped() {
        let mut h = Histogram::new_16k();
        h.record(MicroPc(5), Plane::Normal);
        assert_eq!(h.read(MicroPc(5), Plane::Normal), 0);
        h.start();
        h.record(MicroPc(5), Plane::Normal);
        h.stop();
        h.record(MicroPc(5), Plane::Normal);
        assert_eq!(h.read(MicroPc(5), Plane::Normal), 1);
    }

    #[test]
    fn planes_are_independent() {
        let mut h = Histogram::new_16k();
        h.start();
        h.record_n(MicroPc(7), Plane::Normal, 3);
        h.record_n(MicroPc(7), Plane::Stalled, 11);
        assert_eq!(h.read(MicroPc(7), Plane::Normal), 3);
        assert_eq!(h.read(MicroPc(7), Plane::Stalled), 11);
        assert_eq!(h.total_cycles(), 14);
        assert_eq!(h.plane_total(Plane::Stalled), 11);
    }

    #[test]
    fn clear_zeroes() {
        let mut h = Histogram::new_16k();
        h.start();
        h.record(MicroPc(1), Plane::Normal);
        h.clear();
        assert_eq!(h.total_cycles(), 0);
    }

    #[test]
    fn merge_composites() {
        let mut a = Histogram::new_16k();
        let mut b = Histogram::new_16k();
        a.start();
        b.start();
        a.record_n(MicroPc(3), Plane::Normal, 2);
        b.record_n(MicroPc(3), Plane::Normal, 5);
        b.record_n(MicroPc(4), Plane::Stalled, 1);
        a.merge(&b);
        assert_eq!(a.read(MicroPc(3), Plane::Normal), 7);
        assert_eq!(a.read(MicroPc(4), Plane::Stalled), 1);
    }

    #[test]
    fn equality_ignores_collection_state() {
        let mut a = Histogram::new_16k();
        let mut b = Histogram::new_16k();
        a.start();
        a.record(MicroPc(3), Plane::Normal);
        b.start();
        b.record(MicroPc(3), Plane::Normal);
        b.stop();
        assert_eq!(a, b, "running flag is not data");
        b.record(MicroPc(3), Plane::Stalled); // stopped: no-op
        assert_eq!(a, b);
        a.record(MicroPc(4), Plane::Stalled);
        assert_ne!(a, b);
    }

    #[test]
    fn a_board_backs_only_the_prefix_its_owner_sizes() {
        let mut h = Histogram::new(10);
        assert_eq!(h.backed_buckets(), 10);
        h.start();
        h.record_n(MicroPc(9), Plane::Stalled, 3);
        assert_eq!(h.read(MicroPc(9), Plane::Stalled), 3);
        // The rest of the logical board reads zero without being backed.
        assert_eq!(h.read(MicroPc(10), Plane::Stalled), 0);
        assert_eq!(h.read(MicroPc(16_383), Plane::Normal), 0);
        assert_eq!(Histogram::default().backed_buckets(), 0);
        assert_eq!(Histogram::new_16k().backed_buckets(), BOARD_BUCKETS);
    }

    #[test]
    fn nonzero_iteration() {
        let mut h = Histogram::new_16k();
        h.start();
        h.record_n(MicroPc(9), Plane::Normal, 4);
        h.record_n(MicroPc(2), Plane::Stalled, 6);
        let items: Vec<_> = h.nonzero().collect();
        assert_eq!(items.len(), 2);
        assert!(items.contains(&(MicroPc(9), Plane::Normal, 4)));
        assert!(items.contains(&(MicroPc(2), Plane::Stalled, 6)));
    }
}
