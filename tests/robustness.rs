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
//!   aborting it;
//! - a cancel stops the running cell, which is discarded, and a resume
//!   re-runs it to the bytes of an uninterrupted run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vax780::{CancelKind, CancelToken, FaultClass};
use vax_analysis::{cell_from_json, Json, RunManifest};
use vax_bench::cache::WarmCaches;
use vax_bench::cli::Options;
use vax_bench::jobspec::RunSpec;
use vax_bench::progress::{Progress, Verbosity};
use vax_bench::runner::{self, RunOutput};
use vax_cpu::{ControlStore, CpuConfig};
use vax_trace::Tracer;
use vax_workload::Workload;

fn small_run() -> Options {
    Options {
        spec: RunSpec {
            instructions: 3_000,
            seed: 7,
            shards: 2,
            jobs: Some(2),
            interval_cycles: 5_000,
            ..RunSpec::default()
        },
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
    let files = export(opts, &out);
    (out, files)
}

/// The artifact files of a finished run.
fn export(opts: &Options, out: &RunOutput) -> Vec<(&'static str, String)> {
    let manifest = RunManifest {
        experiment: opts.spec.experiment.clone(),
        seed: Some(opts.spec.seed),
        instructions: opts.spec.instructions,
        warmup: opts.spec.instructions / 10,
        interval_cycles: opts.spec.interval_cycles,
        shards: opts.spec.shards,
        config: "default VAX-11/780 configuration, 5-workload composite".to_string(),
        fault_seed: opts.spec.fault_seed,
        fault_classes: opts
            .spec
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
    vax_analysis::run_artifacts(&manifest, &out.analysis, &out.series, &out.validation)
}

/// A directory under the system temp dir, removed when the test ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("vax-robustness-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The cell checkpoints journaled under run directory `out`.
fn cell_files(out: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(out.join("checkpoints")) else {
        return Vec::new();
    };
    entries
        .map(|e| e.expect("readable checkpoint entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("cell-") && n.ends_with(".json"))
        })
        .collect()
}

/// Poll `ready` until it holds, for at most a minute.
fn wait_until(ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ready() {
        assert!(Instant::now() < deadline, "the condition never held");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run `opts` while a second thread fires its token once `ready` holds.
fn run_canceled_when(
    opts: &Options,
    tracer: &Tracer,
    ready: impl Fn() -> bool + Send,
) -> RunOutput {
    std::thread::scope(|scope| {
        scope.spawn(|| {
            wait_until(ready);
            opts.cancel.cancel();
        });
        runner::run_composite(
            opts,
            &Progress::new(Verbosity::Quiet),
            tracer,
            &WarmCaches::new(),
        )
    })
}

#[test]
fn fault_injection_is_deterministic_and_observable() {
    let opts = Options {
        spec: RunSpec {
            fault_seed: Some(7),
            fault_classes: FaultClass::ALL.to_vec(),
            ..small_run().spec
        },
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
        spec: RunSpec {
            fault_seed: Some(8),
            ..opts.spec
        },
        ..opts
    });
    assert_ne!(c.analysis.m, a.analysis.m);
    assert!(c.validation.is_clean(), "{}", c.validation.render());
}

#[test]
fn every_fault_class_alone_keeps_validation_clean() {
    for class in FaultClass::ALL {
        let (out, _) = artifacts(&Options {
            spec: RunSpec {
                instructions: 2_000,
                fault_seed: Some(1),
                fault_classes: vec![class],
                ..small_run().spec
            },
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
        spec: RunSpec {
            retries: Some(2),
            ..small_run().spec
        },
        inject_panic: Some((0, 0, 1)),
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
        spec: RunSpec {
            retries: Some(1),
            ..small_run().spec
        },
        inject_panic: Some((1, 0, u32::MAX)),
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
        spec: RunSpec {
            instructions: 400_000,
            shards: 1,
            ..small_run().spec
        },
        shard_timeout_secs: Some(0.001),
        ..small_run()
    });
    // Every cell blows its (absurdly small) budget.
    assert!(out.degraded);
    assert_eq!(out.failed_cells.len(), Workload::ALL.len());
}

#[test]
fn a_cancel_while_the_first_cell_runs_discards_that_cell() {
    let dir = ScratchDir::new("first-cell");
    let tracer = Tracer::enabled();
    let opts = Options {
        spec: RunSpec {
            instructions: 1_000_000,
            shards: 1,
            jobs: Some(1),
            ..small_run().spec
        },
        out: Some(dir.0.clone()),
        cancel: CancelToken::new(),
        ..small_run()
    };
    let out = run_canceled_when(&opts, &tracer, || {
        let states = tracer.worker_states();
        states
            .iter()
            .any(|(_, span)| span.as_deref() == Some("simulate"))
    });
    assert_eq!(out.canceled, Some(CancelKind::Canceled));
    assert_eq!(
        tracer.phase_totals()["cell"].count,
        1,
        "only the first cell ran"
    );
    assert_eq!(
        tracer.counter_value("cells_done"),
        0,
        "the stopped cell is not counted"
    );
    assert_eq!(
        cell_files(&dir.0),
        Vec::<PathBuf>::new(),
        "nor checkpointed"
    );
    assert!(!out.degraded, "a canceled cell is not a failed one");
}

#[test]
fn a_mid_cell_cancel_resumes_to_the_uninterrupted_bytes() {
    let dir = ScratchDir::new("mid-cell");
    let opts = Options {
        spec: RunSpec {
            instructions: 20_000,
            shards: 1,
            jobs: Some(1),
            ..small_run().spec
        },
        out: Some(dir.0.clone()),
        cancel: CancelToken::new(),
        ..small_run()
    };
    let out = run_canceled_when(&opts, &Tracer::disabled(), || {
        !cell_files(&dir.0).is_empty()
    });
    assert_eq!(out.canceled, Some(CancelKind::Canceled));
    let cells = cell_files(&dir.0);
    assert!(cells.len() < Workload::ALL.len(), "{cells:?}");
    let map = ControlStore::new(&CpuConfig::default()).map;
    for path in &cells {
        let text = std::fs::read_to_string(path).expect("readable checkpoint");
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        cell_from_json(&json, &map).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }

    let inert = Options {
        cancel: CancelToken::default(),
        ..opts
    };
    let resumed = runner::resume_composite(
        &inert,
        &Progress::new(Verbosity::Quiet),
        &Tracer::disabled(),
        &WarmCaches::new(),
    );
    assert_eq!(resumed.canceled, None);
    assert!(!resumed.degraded);
    let (_, uninterrupted) = artifacts(&Options {
        out: None,
        ..inert.clone()
    });
    assert_eq!(export(&inert, &resumed), uninterrupted);
}
