//! Deferred processes, end to end: a machine booted from its seed
//! (`seed_boot_image`), which generates each process the first time its
//! kernel selects it, measures exactly as the machine booted from the
//! eagerly generated processes (`boot_image(shard_processes(..))`) does:
//! the same `Measurement`, `TimeSeries` and decode-cache counters, with
//! and without faults, whether the first selections fall in the warm-up or
//! while the monitor runs.

use std::collections::BTreeSet;

use vax780::{FaultClass, FaultPlan, Measurement, System, TimeSeries};
use vax_cpu::DecodeCacheStats;
use vax_workload::rte::{boot_image, seed_boot_image, shard_processes, PROCESSES_PER_WORKLOAD};
use vax_workload::Workload;

const SEEDS: [u64; 2] = [1, 1984];
/// Measured instructions per cell. The warm-up is a tenth of that, and
/// the kernel switches about every 8,700 steps, so the shortest two cells
/// never switch, the middle two select a second process while the monitor
/// runs, and the longest selects every process.
const INSTRUCTIONS: [u64; 5] = [1_000, 4_000, 9_000, 12_000, 40_000];
const INTERVAL_CYCLES: u64 = 5_000;

type Run = (Measurement, TimeSeries, DecodeCacheStats);

/// Measure `sys` as the grid measures cell `(w, 0)`, optionally under a
/// TB-storm + SMC fault plan.
fn measure(sys: &mut System, w: usize, n: u64, faults: bool) -> Run {
    if faults {
        let classes = [FaultClass::TbStorm, FaultClass::Smc];
        sys.install_fault_plan(FaultPlan::generate(1984, w, 0, n, &classes));
    }
    let (m, series) = sys.measure_sampled(n / 10, n, INTERVAL_CYCLES);
    (m, series, sys.cpu.decode_cache_stats())
}

fn seeded(workload: Workload, seed: u64) -> System {
    System::from_boot_image(&seed_boot_image(workload, PROCESSES_PER_WORKLOAD, seed))
}

fn deferred_measures_as_eager(w: usize) {
    let workload = Workload::ALL[w];
    for seed in SEEDS {
        let eager = boot_image(shard_processes(workload, PROCESSES_PER_WORKLOAD, seed));
        for n in INSTRUCTIONS {
            for faults in [false, true] {
                let case = format!("{workload:?}, seed {seed}, {n} instructions, faults {faults}");
                let want = measure(&mut System::from_boot_image(&eager), w, n, faults);
                let got = measure(&mut seeded(workload, seed), w, n, faults);
                assert!(got == want, "{case}: the seed-booted machine diverged");
                let switches = want.0.cpu_stats.context_switches;
                if n <= 4_000 {
                    assert_eq!(switches, 0, "{case}");
                } else {
                    assert!(switches >= 1, "{case}: no selection while measured");
                }
            }
        }
    }
}

#[test]
fn timesharing_research_deferred_measures_as_eager() {
    deferred_measures_as_eager(0);
}

#[test]
fn timesharing_cpu_dev_deferred_measures_as_eager() {
    deferred_measures_as_eager(1);
}

#[test]
fn educational_deferred_measures_as_eager() {
    deferred_measures_as_eager(2);
}

#[test]
fn sci_eng_deferred_measures_as_eager() {
    deferred_measures_as_eager(3);
}

#[test]
fn commercial_deferred_measures_as_eager() {
    deferred_measures_as_eager(4);
}

#[test]
fn a_cell_too_short_to_switch_generates_one_process() {
    for (w, &workload) in Workload::ALL.iter().enumerate() {
        let mut sys = seeded(workload, 1984);
        let (m, _, _) = measure(&mut sys, w, 4_000, false);
        assert_eq!(m.cpu_stats.context_switches, 0, "{workload:?}");
        assert_eq!(sys.processes_generated(), 1, "{workload:?}");
    }
}

#[test]
fn a_long_cell_generates_each_selected_process_once() {
    let (n, warmup) = (40_000, 4_000);
    for (w, &workload) in Workload::ALL.iter().enumerate() {
        // The processes the eager machine selects in the same steps, read
        // from PCBB after each one.
        let eager = boot_image(shard_processes(workload, PROCESSES_PER_WORKLOAD, 1984));
        let mut sys = System::from_boot_image(&eager);
        let mut selected = BTreeSet::new();
        for _ in 0..warmup + n {
            sys.run_instructions(1);
            selected.insert(sys.cpu.iprs.pcbb);
        }
        selected.remove(&0);
        assert!(selected.len() > 2, "{workload:?}: several selections");

        let mut sys = seeded(workload, 1984);
        measure(&mut sys, w, n, false);
        assert_eq!(
            sys.processes_generated(),
            selected.len() as u64,
            "{workload:?}"
        );
    }
}
