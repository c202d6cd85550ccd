//! The robustness tentpole, in-process: deterministic fault injection,
//! supervised retry, and quarantine — all against the real composite
//! engine (`vax_bench::runner`).
//!
//! The guarantees under test:
//! - the same `--fault-seed` produces byte-identical exports, run to run;
//! - every fault class flows through instrumented paths, so the
//!   counter-conservation validator stays clean under any plan;
//! - a shard panic is retried on a fresh system from the same seed, so a
//!   recovered run is byte-identical to an undisturbed one;
//! - exhausted retries quarantine the cell and degrade the run instead of
//!   aborting it.

use vax780::FaultClass;
use vax_analysis::RunManifest;
use vax_bench::cache::WarmCaches;
use vax_bench::cli::Options;
use vax_bench::progress::{Progress, Verbosity};
use vax_bench::runner::{self, RunOutput};
use vax_trace::Tracer;
use vax_workload::Workload;

fn small_run() -> Options {
    Options {
        instructions: 3_000,
        seed: 7,
        shards: 2,
        jobs: 2,
        interval_cycles: 5_000,
        ..Options::default()
    }
}

fn artifacts(opts: &Options) -> (RunOutput, Vec<(&'static str, String)>) {
    let out = runner::run_composite(
        opts,
        &Progress::new(Verbosity::Quiet),
        &Tracer::disabled(),
        &WarmCaches::new(),
    );
    let manifest = RunManifest {
        experiment: opts.experiment.clone(),
        seed: Some(opts.seed),
        instructions: opts.instructions,
        warmup: opts.instructions / 10,
        interval_cycles: opts.interval_cycles,
        shards: opts.shards,
        config: "default VAX-11/780 configuration, 5-workload composite".to_string(),
        fault_seed: opts.fault_seed,
        fault_classes: opts
            .fault_classes
            .iter()
            .map(|c| c.name().to_string())
            .collect(),
        degraded: out.degraded,
        failed_cells: out
            .failed_cells
            .iter()
            .map(|(w, s)| (w.name().to_string(), *s))
            .collect(),
    };
    let files = vax_analysis::run_artifacts(&manifest, &out.analysis, &out.series, &out.validation);
    (out, files)
}

#[test]
fn fault_injection_is_deterministic_and_observable() {
    let opts = Options {
        fault_seed: Some(7),
        fault_classes: FaultClass::ALL.to_vec(),
        ..small_run()
    };
    let (a, a_files) = artifacts(&opts);
    let (_, b_files) = artifacts(&opts);

    // Byte-identical exports for the same fault seed.
    assert_eq!(a_files, b_files);
    assert!(a.validation.is_clean(), "{}", a.validation.render());
    assert!(!a.degraded);

    // The plan actually fired: every class leaves a counter trace.
    let m = &a.analysis.m;
    assert!(m.cpu_stats.machine_checks > 0, "parity faults delivered");
    assert!(m.mem_stats.parity_faults > 0);
    let (base, _) = artifacts(&small_run());
    assert!(
        m.cpu_stats.hw_interrupts > base.analysis.m.cpu_stats.hw_interrupts,
        "device bursts add hardware interrupts"
    );
    assert!(
        m.cpu_stats.sw_interrupt_requests > base.analysis.m.cpu_stats.sw_interrupt_requests,
        "software bursts add requests"
    );

    // A different seed is a different schedule.
    let (c, _) = artifacts(&Options {
        fault_seed: Some(8),
        ..opts
    });
    assert_ne!(c.analysis.m, a.analysis.m);
    assert!(c.validation.is_clean(), "{}", c.validation.render());
}

#[test]
fn every_fault_class_alone_keeps_validation_clean() {
    for class in FaultClass::ALL {
        let (out, _) = artifacts(&Options {
            instructions: 2_000,
            fault_seed: Some(1),
            fault_classes: vec![class],
            ..small_run()
        });
        assert!(
            out.validation.is_clean(),
            "class {}: {}",
            class.name(),
            out.validation.render()
        );
        assert!(out.conservation_err.is_none(), "class {}", class.name());
    }
}

#[test]
fn retried_panic_recovers_to_byte_identity() {
    let (_, clean) = artifacts(&small_run());
    let (out, recovered) = artifacts(&Options {
        inject_panic: Some((0, 0, 1)),
        retries: 2,
        ..small_run()
    });
    assert!(!out.degraded);
    assert!(out.failed_cells.is_empty());
    // The retry rebuilt the shard from the same seed: no trace remains.
    assert_eq!(clean, recovered);
}

#[test]
fn exhausted_retries_quarantine_the_cell_and_keep_the_rest() {
    let (base, _) = artifacts(&small_run());
    let (out, files) = artifacts(&Options {
        inject_panic: Some((1, 0, u32::MAX)),
        retries: 1,
        ..small_run()
    });
    assert!(out.degraded);
    assert_eq!(out.failed_cells, vec![(Workload::ALL[1], 0)]);
    // The surviving cells still merged and validated.
    assert!(out.validation.is_clean(), "{}", out.validation.render());
    assert!(out.analysis.m.cpu_stats.instructions < base.analysis.m.cpu_stats.instructions);
    assert!(out.analysis.m.cpu_stats.instructions > 0);
    // The damage is recorded in the manifest.
    let manifest = &files.iter().find(|(n, _)| *n == "manifest.json").unwrap().1;
    assert!(manifest.contains("\"degraded\": true"), "{manifest}");
    assert!(
        manifest.contains(&format!("\"workload\": \"{}\"", Workload::ALL[1].name())),
        "{manifest}"
    );
}

#[test]
fn watchdog_timeout_quarantines_stuck_shards() {
    let (out, _) = artifacts(&Options {
        instructions: 400_000,
        shards: 1,
        shard_timeout_secs: Some(0.001),
        ..small_run()
    });
    // Every cell blows its (absurdly small) budget.
    assert!(out.degraded);
    assert_eq!(out.failed_cells.len(), Workload::ALL.len());
}
