//! The histogram count board.
//!
//! A passive Unibus device: 16 K addressable buckets in two planes (normal /
//! stalled), incremented at the microcycle rate while collection is enabled.
//! The board does not interpret anything — interpretation is the job of the
//! reduction in `vax-analysis`, keyed by the control-store map.

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

/// The micro-PC histogram board.
#[derive(Debug, Clone)]
pub struct Histogram {
    normal: Vec<u64>,
    stalled: Vec<u64>,
    running: bool,
}

impl Histogram {
    /// A board with `buckets` locations per plane, stopped and cleared.
    pub fn new(buckets: usize) -> Histogram {
        Histogram {
            normal: vec![0; buckets],
            stalled: vec![0; buckets],
            running: false,
        }
    }

    /// The real board: 16,000-odd locations (we round to 16 K).
    pub fn new_16k() -> Histogram {
        Histogram::new(BOARD_BUCKETS)
    }

    /// Begin collection (Unibus "start" command).
    pub fn start(&mut self) {
        self.running = true;
    }

    /// End collection (Unibus "stop" command).
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// True while collecting.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Clear all buckets (Unibus "clear" command).
    pub fn clear(&mut self) {
        self.normal.fill(0);
        self.stalled.fill(0);
    }

    /// Record `n` cycles at `upc` in `plane`. No-op while stopped — the
    /// board is passive and never perturbs the machine.
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

    /// Read one bucket.
    pub fn read(&self, upc: MicroPc, plane: Plane) -> u64 {
        let i = upc.0 as usize;
        match plane {
            Plane::Normal => self.normal[i],
            Plane::Stalled => self.stalled[i],
        }
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
    /// formed.
    ///
    /// # Panics
    /// Panics if the two boards have different bucket counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.normal.len(),
            other.normal.len(),
            "cannot merge histograms of different sizes"
        );
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
    /// The real board geometry ([`Histogram::new_16k`]), stopped and clear.
    fn default() -> Histogram {
        Histogram::new_16k()
    }
}

/// Two boards are equal when they recorded the same counts. The transient
/// `running` flag is collection state, not data: a stopped snapshot and a
/// still-armed board with identical buckets compare equal, which is what
/// merge-law reasoning (`a ⊕ b = b ⊕ a`, `∅ ⊕ a = a`) needs.
impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        self.normal == other.normal && self.stalled == other.stalled
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
