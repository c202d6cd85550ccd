//! Property tests for the merge laws behind the deterministic parallel
//! reduction (see `docs/PARALLELISM.md`).
//!
//! The sharded engine's guarantee — `--jobs N` is byte-identical to
//! `--jobs 1` — rests on every result block being a commutative monoid
//! under `Mergeable::merge_from` with `Default::default()` as identity.
//! These tests exercise the laws on randomized instances of all four
//! blocks: [`Histogram`], [`CpuStats`], [`MemStats`], and [`Measurement`].
//! A board backs only a prefix of its 16 K locations, so the histogram
//! laws mix the three backings a run meets: an empty `Default` (the
//! accumulator a fold starts from), a board sized to the control store (a
//! CPU's), and a fully backed `Histogram::new_16k()`.

use rand::prelude::{Rng, SeedableRng, StdRng};
use upc_monitor::{Histogram, MicroPc, Plane, BOARD_BUCKETS};
use vax780::{merge_ordered, Measurement, Mergeable};
use vax_cpu::{ControlStore, CpuStats};
use vax_mem::MemStats;

/// Locations a CPU's board backs: its control store's.
fn control_store_locations() -> usize {
    ControlStore::get().map.len()
}

/// A random board of one of the three backings, with random counts in
/// its backed prefix (none for the empty board).
fn rand_hist(rng: &mut StdRng) -> Histogram {
    let backed = match rng.gen_range(0u8..3) {
        0 => return Histogram::default(),
        1 => control_store_locations(),
        _ => BOARD_BUCKETS,
    };
    let mut h = Histogram::new(backed);
    h.start();
    for _ in 0..rng.gen_range(1usize..40) {
        let upc = MicroPc(rng.gen_range(0..backed as u16));
        let plane = if rng.gen_bool(0.7) {
            Plane::Normal
        } else {
            Plane::Stalled
        };
        h.record_n(upc, plane, rng.gen_range(1u64..1000));
    }
    h.stop();
    h
}

fn rand_cpu(rng: &mut StdRng) -> CpuStats {
    let mut c = CpuStats::new();
    c.instructions = rng.gen_range(0u64..1 << 40);
    c.istream_bytes = rng.gen_range(0u64..1 << 40);
    c.hw_interrupts = rng.gen_range(0u64..1 << 20);
    c.sw_interrupts = rng.gen_range(0u64..1 << 20);
    c.sw_interrupt_requests = rng.gen_range(0u64..1 << 20);
    c.machine_checks = rng.gen_range(0u64..1 << 20);
    c.context_switches = rng.gen_range(0u64..1 << 20);
    c.exceptions = rng.gen_range(0u64..1 << 20);
    c.spec1_count = rng.gen_range(0u64..1 << 30);
    c.spec26_count = rng.gen_range(0u64..1 << 30);
    c.spec1_quad_repeats = rng.gen_range(0u64..1 << 20);
    c.spec26_quad_repeats = rng.gen_range(0u64..1 << 20);
    c.branch_disps = rng.gen_range(0u64..1 << 30);
    for _ in 0..rng.gen_range(1usize..20) {
        let i = rng.gen_range(0usize..c.opcode_counts.len());
        c.opcode_counts[i] = rng.gen_range(0u64..1 << 30);
    }
    for i in 0..c.branch_executed.len() {
        c.branch_executed[i] = rng.gen_range(0u64..1 << 30);
        c.branch_taken[i] = rng.gen_range(0u64..=c.branch_executed[i]);
    }
    c
}

fn rand_mem(rng: &mut StdRng) -> MemStats {
    MemStats {
        d_reads: rng.gen_range(0u64..1 << 40),
        d_read_misses: rng.gen_range(0u64..1 << 30),
        d_writes: rng.gen_range(0u64..1 << 40),
        d_write_hits: rng.gen_range(0u64..1 << 30),
        i_reads: rng.gen_range(0u64..1 << 40),
        i_read_misses: rng.gen_range(0u64..1 << 30),
        tb_miss_d: rng.gen_range(0u64..1 << 25),
        tb_miss_i: rng.gen_range(0u64..1 << 25),
        unaligned_refs: rng.gen_range(0u64..1 << 25),
        pte_reads: rng.gen_range(0u64..1 << 25),
        pte_read_misses: rng.gen_range(0u64..1 << 20),
        read_stall_cycles: rng.gen_range(0u64..1 << 40),
        write_stall_cycles: rng.gen_range(0u64..1 << 40),
        parity_faults: rng.gen_range(0u64..1 << 20),
    }
}

fn rand_meas(rng: &mut StdRng) -> Measurement {
    Measurement {
        hist: rand_hist(rng),
        cpu_stats: rand_cpu(rng),
        mem_stats: rand_mem(rng),
        cycles: rng.gen_range(0u64..1 << 45),
    }
}

/// Fisher–Yates with the workspace RNG (no external shuffle helper).
fn shuffled<T: Clone>(rng: &mut StdRng, items: &[T]) -> Vec<T> {
    let mut v: Vec<T> = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        v.swap(i, j);
    }
    v
}

fn check_laws<T, F>(seed: u64, cases: usize, mut gen: F)
where
    T: Mergeable + Clone + PartialEq + std::fmt::Debug,
    F: FnMut(&mut StdRng) -> T,
{
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        let c = gen(&mut rng);

        // Identity, both sides.
        let mut left = T::default();
        left.merge_from(&a);
        assert_eq!(left, a, "case {case}: default ⊕ a ≠ a");
        let mut right = a.clone();
        right.merge_from(&T::default());
        assert_eq!(right, a, "case {case}: a ⊕ default ≠ a");

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut ab = a.clone();
        ab.merge_from(&b);
        ab.merge_from(&c);
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut a_bc = a.clone();
        a_bc.merge_from(&bc);
        assert_eq!(ab, a_bc, "case {case}: associativity violated");

        // Commutativity, as the engine relies on it: a shuffled
        // (completion-order) reduction equals the index-order reduction.
        let parts = vec![a, b, c];
        let in_order: T = merge_ordered(&parts);
        let scrambled: T = merge_ordered(shuffled(&mut rng, &parts));
        assert_eq!(in_order, scrambled, "case {case}: order changed the sum");
    }
}

#[test]
fn histogram_merge_laws() {
    check_laws(0x780_0001, 24, rand_hist);
}

#[test]
fn histogram_merge_laws_hold_across_every_pairing_of_backings() {
    // Each of the 27 ordered backings of (a, b, c), so no pairing is left
    // to chance.
    let mut rng = StdRng::seed_from_u64(0x780_0005);
    let boards = |rng: &mut StdRng, backed: usize| {
        let mut h = Histogram::new(backed);
        h.start();
        for _ in 0..backed.min(20) {
            let upc = MicroPc(rng.gen_range(0..backed as u16));
            h.record_n(upc, Plane::Stalled, rng.gen_range(1u64..1000));
        }
        h
    };
    let backings = [0, control_store_locations(), BOARD_BUCKETS];
    for &x in &backings {
        for &y in &backings {
            for &z in &backings {
                let mut kinds = [x, y, z].into_iter();
                check_laws(rng.gen(), 1, |rng| boards(rng, kinds.next().unwrap()));
            }
        }
    }
}

#[test]
fn histogram_equality_ignores_unbacked_zeros() {
    let locations = control_store_locations();
    assert_eq!(Histogram::default(), Histogram::new_16k());
    assert_eq!(Histogram::new(locations), Histogram::default());

    let mut cs_sized = Histogram::new(locations);
    let mut full = Histogram::new_16k();
    for h in [&mut cs_sized, &mut full] {
        h.start();
        h.record_n(MicroPc(5), Plane::Normal, 3);
        h.record_n(MicroPc(locations as u16 - 1), Plane::Stalled, 9);
    }
    assert_eq!(cs_sized, full);
    assert_eq!(full, cs_sized);

    // A count past the control store is data the smaller board lacks.
    full.record(MicroPc(locations as u16), Plane::Normal);
    assert_ne!(cs_sized, full);
    assert_ne!(full, cs_sized);
    let mut grown = cs_sized.clone();
    grown.merge(&full);
    assert_eq!(grown.backed_buckets(), BOARD_BUCKETS);
    assert_eq!(grown.read(MicroPc(locations as u16), Plane::Normal), 1);
    assert_eq!(grown.read(MicroPc(5), Plane::Normal), 6);
}

#[test]
fn cpu_stats_merge_laws() {
    check_laws(0x780_0002, 50, rand_cpu);
}

#[test]
fn mem_stats_merge_laws() {
    check_laws(0x780_0003, 50, rand_mem);
}

#[test]
fn measurement_merge_laws() {
    check_laws(0x780_0004, 8, rand_meas);
}
