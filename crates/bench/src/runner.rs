//! The composite measurement engine, extracted from the `reproduce` binary
//! so integration tests (and the fixture-freshness check) can run the exact
//! same code path programmatically.
//!
//! The run is a grid of independent shard jobs — one per `(workload,
//! shard)` cell, seeded by `vax_workload::rte::shard_seed` — executed on a
//! [`crate::pool`] of supervised worker threads. Each attempt builds its
//! own simulated system from the cell's seed (only job descriptions and
//! results cross threads) and measures it. As the last step of a
//! successful attempt the cell's measurement is folded into its
//! workload's accumulator, in whatever order cells finish: every counter
//! is an integer sum, so any fold order gives the bytes a grid-order
//! [`vax780::merge_ordered`] would. A cell keeps only its cycles and its
//! interval rows, because [`TimeSeries::splice`] places rows at cycle
//! offsets that do depend on order; the parent splices them in `(workload,
//! shard)` index order. So a run's memory does not grow with its shard
//! count by a measurement per cell, and its output is byte-identical at
//! any `--jobs` count — `--jobs` buys wall-clock time, not different
//! numbers.
//!
//! Supervision: a shard attempt that panics (or whose machine its
//! `--shard-timeout` watchdog stops) is retried up to `--retries` times on
//! a fresh system built from the same shard seed, so a retried success is
//! byte-identical to a first-attempt success. A cell that exhausts its
//! retries is quarantined — its flight recording is dumped (when armed),
//! the run is marked degraded, and the remaining cells still merge into a
//! partial result. Every machine also reads the run's cancel token: a
//! cancel or a deadline stops the running cells within 2,048 steps, and
//! a stopped cell is discarded before its counters, checkpoint and fold.
//!
//! Crash safety: with `--out DIR` every completed cell is journaled
//! atomically to `DIR/checkpoints/` (see [`crate::resume`]), and
//! [`resume_composite`] finishes an interrupted or canceled run, given its
//! options, by folding each journaled cell as it loads it and re-running
//! only the missing cells.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use vax780::{CancelKind, FaultPlan, Measurement, TimeSeries};
use vax_analysis::{validate, Analysis, CheckpointCell, ValidationReport};
use vax_cpu::{ControlStore, SharedFlightRecorder};
use vax_trace::{worker_tid, Tracer, MAIN_TID};
use vax_workload::Workload;

use crate::cache::WarmCaches;
use crate::cli::Options;
use crate::fsio::write_atomic;
use crate::pool::run_supervised;
use crate::progress::Progress;
use crate::resume::{cell_path, checkpoints_dir, header_json, header_path, load_cells};

/// Everything a composite run produces, ready for rendering or export.
#[derive(Debug)]
pub struct RunOutput {
    /// The reduced composite analysis (owns the merged [`vax780::Measurement`]).
    pub analysis: Analysis,
    /// Composite interval time series, cycle offsets spliced so every
    /// shard of every workload forms one contiguous timeline in
    /// `(workload, shard)` order.
    pub series: TimeSeries,
    /// Counter-conservation validation of the composite measurement.
    pub validation: ValidationReport,
    /// `(workload, CPI)` for each workload's merged shards, in
    /// [`Workload::ALL`] order.
    pub per_workload: Vec<(Workload, f64)>,
    /// True when at least one cell exhausted its retries; the merged
    /// results above then cover only the surviving cells.
    pub degraded: bool,
    /// The quarantined `(workload, shard)` cells, in grid order.
    pub failed_cells: Vec<(Workload, u64)>,
    /// Set when the run's cancel token fired: the running cells stopped
    /// and were discarded, completed cells are checkpointed, and the
    /// merged results cover only what finished. The caller must not export
    /// final artifacts for a canceled run.
    pub canceled: Option<CancelKind>,
}

/// One cell of the run grid: workload `workload_index`, replica `shard`.
struct ShardJob {
    workload: Workload,
    workload_index: u64,
    shard: u64,
    /// This shard's flight recorder (disabled unless `--flight-recorder`);
    /// the parent keeps the handle so a quarantined cell can be dumped
    /// with the right shard's instruction history.
    recorder: SharedFlightRecorder,
}

/// What the grid keeps of a finished cell once its measurement is folded:
/// what the grid-order splice of the interval series needs.
struct CellTail {
    cycles: u64,
    series: TimeSeries,
}

/// The grid's reduction while it runs: one accumulator per workload, into
/// which each finished cell's measurement is folded, and each finished
/// cell's [`CellTail`] in grid order.
struct Fold {
    workloads: Vec<Mutex<Measurement>>,
    tails: Vec<Option<CellTail>>,
}

impl Fold {
    /// Nothing folded yet, for a grid of `shards` shards per workload.
    fn new(shards: usize) -> Fold {
        Fold {
            workloads: Workload::ALL
                .iter()
                .map(|_| Mutex::new(Measurement::default()))
                .collect(),
            tails: (0..Workload::ALL.len() * shards).map(|_| None).collect(),
        }
    }

    /// Fold `m` into workload `w`'s accumulator.
    fn add(&self, w: usize, m: &Measurement) {
        self.workloads[w]
            .lock()
            .expect("a fold never panics while it holds the lock")
            .merge(m);
    }

    /// Fold a journaled cell, at grid index `slot`, and keep its tail.
    fn keep(&mut self, slot: usize, cell: CheckpointCell) {
        self.add(cell.workload as usize, &cell.m);
        self.tails[slot] = Some(CellTail {
            cycles: cell.m.cycles,
            series: cell.series,
        });
    }
}

/// Run the workload × shard grid described by `opts`.
///
/// Warmup is `instructions / 10` per shard (not measured); the cell at
/// `(workload w, shard s)` is seeded with
/// `SeedStream::new(seed).stream(w).stream(s)`. Up to `opts.jobs()` shards
/// run concurrently; results are reduced in grid-index order so the output
/// does not depend on `opts.jobs()`. When `opts.spec.flight_recorder > 0` every
/// shard gets its own recorder of that capacity. When `opts.out` is set the
/// run journals checkpoints for [`resume_composite`]; any stale journal in
/// that directory is cleared first.
///
/// Harness observability: every pipeline phase of every cell (codegen,
/// boot, simulate, checkpoint) becomes a span on the worker's trace track,
/// the reduction becomes a `merge` span on the main track, and the
/// tracer's counters accumulate cells done, instructions, decode-cache
/// hits/misses, processes generated, and scheduled fault injections. A
/// cell generates each of its processes when its kernel first selects it,
/// so generation is charged to its `simulate` span. Pass
/// `&Tracer::disabled()` to record nothing.
///
/// `caches` is the engine's warm cache (see [`crate::cache`]). The
/// daemon's engine passes one that keeps boot images, so a repeated job
/// skips codegen and boot; a one-shot engine passes one that keeps none
/// (every cell of one run has a distinct seed, so a single run only ever
/// misses, and a retained image could never be hit). Either way the
/// exported bytes are the same.
///
/// # Panics
/// Panics if `opts.jobs() == 0` or `opts.spec.shards == 0` (the CLI rejects both
/// up front). A worker panic no longer propagates — it is retried and, on
/// exhaustion, quarantined into [`RunOutput::failed_cells`].
pub fn run_composite(
    opts: &Options,
    progress: &Progress,
    tracer: &Tracer,
    caches: &WarmCaches,
) -> RunOutput {
    assert!(
        opts.spec.shards > 0,
        "run_composite: shards must be at least 1"
    );
    // A fresh run must not inherit cells journaled by an earlier run in
    // the same directory (a previous grid may have been larger, and its
    // leftover cells would satisfy a later resume with foreign data).
    if let Some(out) = &opts.out {
        let _ = std::fs::remove_dir_all(checkpoints_dir(out));
    }
    let fold = Fold::new(opts.spec.shards as usize);
    run_grid(opts, progress, fold, tracer, caches)
}

/// Finish the interrupted run journaled under `opts.out`: fold every
/// parseable cell checkpoint there as it loads, then run only the missing
/// cells. `opts` are the interrupted run's own (the CLI rebuilds them from
/// the checkpoint header with [`crate::resume::options_from_header`]; the
/// serve daemon from the job's spec). `tracer` and `caches` are as for
/// [`run_composite`]; already-checkpointed cells count toward the tracer's
/// `cells_done` before any new work starts.
///
/// # Panics
/// Panics if `opts.out` is `None`: there is no journal to resume from.
pub fn resume_composite(
    opts: &Options,
    progress: &Progress,
    tracer: &Tracer,
    caches: &WarmCaches,
) -> RunOutput {
    let dir = opts
        .out
        .as_deref()
        .expect("resume_composite: opts.out names the run directory");
    let mut fold = Fold::new(opts.spec.shards as usize);
    load_cells(dir, opts.spec.shards, progress, |slot, cell| {
        fold.keep(slot, cell)
    });
    let done = fold.tails.iter().filter(|c| c.is_some()).count();
    progress.info(&format!(
        "resuming from {}: {done}/{} cells checkpointed",
        dir.display(),
        fold.tails.len()
    ));
    run_grid(opts, progress, fold, tracer, caches)
}

/// Shared grid engine: run every cell `fold` does not hold yet, folding
/// each as it finishes, then reduce against the control store.
fn run_grid(
    opts: &Options,
    progress: &Progress,
    mut fold: Fold,
    tracer: &Tracer,
    caches: &WarmCaches,
) -> RunOutput {
    let instructions = opts.spec.instructions;
    let seed = opts.spec.seed;
    let shards = opts.spec.shards as usize;
    assert_eq!(fold.tails.len(), Workload::ALL.len() * shards);
    tracer.set_thread_name(MAIN_TID, "main");
    let run_span = tracer.span(
        MAIN_TID,
        "run",
        vec![
            ("experiment", opts.spec.experiment.as_str().into()),
            ("seed", seed.into()),
            ("shards", opts.spec.shards.into()),
            ("jobs", opts.jobs().into()),
            ("instructions", instructions.into()),
        ],
    );
    tracer.counter_set("cells_total", fold.tails.len() as u64);
    let preloaded_done = fold.tails.iter().filter(|c| c.is_some()).count() as u64;
    if preloaded_done > 0 {
        tracer.count(MAIN_TID, "cells_done", preloaded_done);
    }
    progress.info(&format!(
        "running 5 workloads x {shards} shard(s) x {instructions} instructions \
         (seed {seed}, {} job(s)) ...",
        opts.jobs()
    ));
    if let Some(fault_seed) = opts.spec.fault_seed {
        let classes: Vec<&str> = opts.spec.fault_classes.iter().map(|c| c.name()).collect();
        progress.info(&format!(
            "injecting faults: seed {fault_seed}, classes [{}]",
            classes.join(", ")
        ));
    }

    // Journal setup: header first (atomically), cells as they complete.
    // A journaling failure degrades to a non-resumable run, never a
    // failed one.
    let journal = opts.out.as_ref().and_then(|out| {
        std::fs::create_dir_all(checkpoints_dir(out))
            .and_then(|()| write_atomic(&header_path(out), &header_json(opts).to_string_pretty()))
            .map_err(|e| progress.warn(&format!("checkpoint journal disabled: {e}")))
            .ok()
            .map(|()| out.clone())
    });

    let todo: Vec<ShardJob> = Workload::ALL
        .iter()
        .enumerate()
        .flat_map(|(w, &workload)| (0..opts.spec.shards).map(move |shard| (w, workload, shard)))
        .filter(|&(w, _, shard)| fold.tails[w * shards + shard as usize].is_none())
        .map(|(w, workload, shard)| ShardJob {
            workload,
            workload_index: w as u64,
            shard,
            recorder: SharedFlightRecorder::with_capacity(opts.spec.flight_recorder as usize),
        })
        .collect();

    let folding = &fold;
    let outcome = run_supervised(
        opts.jobs(),
        &todo,
        opts.retries(),
        tracer,
        run_span.id(),
        &opts.cancel,
        |worker, _i, job: &ShardJob, attempt| {
            let tid = worker_tid(worker);
            let _cell = tracer.span(
                tid,
                "cell",
                vec![
                    ("workload", job.workload.name().into()),
                    ("shard", job.shard.into()),
                    ("attempt", attempt.into()),
                ],
            );
            if let Some((w, s, n)) = opts.inject_panic {
                if job.workload_index == w && job.shard == s && attempt < n {
                    panic!("injected panic (attempt {attempt})");
                }
            }
            let (mut system, cache_hit) = caches.boot(
                job.workload,
                vax_workload::rte::PROCESSES_PER_WORKLOAD,
                vax_workload::rte::shard_seed(seed, job.workload_index, job.shard),
                tracer,
                tid,
            );
            if job.recorder.is_enabled() {
                system.cpu.flight = job.recorder.clone();
            }
            let mut fault_count = 0u64;
            if let Some(fault_seed) = opts.spec.fault_seed {
                let plan = FaultPlan::generate(
                    fault_seed,
                    job.workload_index as usize,
                    job.shard as usize,
                    instructions,
                    &opts.spec.fault_classes,
                );
                fault_count = plan.len() as u64;
                system.install_fault_plan(plan);
            }
            let watchdog = opts
                .shard_timeout_secs
                .map(|secs| Instant::now() + Duration::from_secs_f64(secs));
            system.set_stop(opts.cancel.clone(), watchdog);
            let (m, series) = {
                let _g = tracer.span(tid, "simulate", vec![]);
                system.measure_sampled(instructions / 10, instructions, opts.spec.interval_cycles)
            };
            if let Some(stop) = system.stopped() {
                return Err(stop);
            }
            // Counters are recorded only after a *successful* measurement,
            // so a retried attempt never double-counts and runtime.json
            // totals stay invariant in both --jobs and --retries.
            if tracer.is_enabled() {
                let d = system.cpu.decode_cache_stats();
                tracer.count(tid, "decode_cache_hits", d.hits);
                tracer.count(tid, "decode_cache_misses", d.misses);
                tracer.count(tid, "instructions", m.instructions());
                tracer.count(tid, "sim_cycles", m.cycles);
                tracer.count(tid, "processes_generated", system.processes_generated());
                // One lookup decides both setup phases.
                let (hit, miss) = (cache_hit as u64, !cache_hit as u64);
                tracer.count(tid, "workload_cache_hits", hit);
                tracer.count(tid, "workload_cache_misses", miss);
                tracer.count(tid, "boot_cache_hits", hit);
                tracer.count(tid, "boot_cache_misses", miss);
                if fault_count > 0 {
                    tracer.count(tid, "fault_injections", fault_count);
                }
            }
            progress.debug(&format!(
                "  {} shard {}: {} cycles, {} interval samples",
                job.workload.name(),
                job.shard,
                m.cycles,
                series.samples.len()
            ));
            let cell = CheckpointCell {
                workload: job.workload_index,
                shard: job.shard,
                m,
                series,
            };
            if let Some(out) = &journal {
                let _g = tracer.span(tid, "checkpoint", vec![]);
                let path = cell_path(out, cell.workload, cell.shard);
                if let Err(e) =
                    write_atomic(&path, &vax_analysis::cell_to_json(&cell).to_string_pretty())
                {
                    progress.warn(&format!("checkpoint {} not written: {e}", path.display()));
                }
            }
            tracer.count(tid, "cells_done", 1);
            // The last step: nothing after it can fail, so a cell is
            // folded exactly once however many attempts it took.
            folding.add(job.workload_index as usize, &cell.m);
            Ok(CellTail {
                cycles: cell.m.cycles,
                series: cell.series,
            })
        },
    );

    let canceled = outcome.canceled;
    if let Some(kind) = canceled {
        progress.info(&format!(
            "run {}; completed cells remain checkpointed",
            kind.name()
        ));
    }

    let mut failed_cells: Vec<(Workload, u64)> = Vec::new();
    for f in &outcome.failures {
        let job = &todo[f.index];
        progress.warn(&format!(
            "{} shard {} quarantined after {} attempt(s): {}",
            job.workload.name(),
            job.shard,
            f.attempts,
            f.message
        ));
        if job.recorder.is_enabled() && !job.recorder.is_empty() {
            job.recorder.dump_stderr();
        }
        failed_cells.push((job.workload, job.shard));
    }
    for (job, result) in todo.iter().zip(outcome.slots) {
        let slot = job.workload_index as usize * shards + job.shard as usize;
        fold.tails[slot] = result;
    }

    // The workloads' accumulators already hold every finished cell; the
    // composite sums them in workload order, and the series splices in
    // grid-index order, regardless of which worker finished when.
    // Quarantined cells are simply absent — the composite covers whatever
    // survived.
    let merge_span = tracer.span(MAIN_TID, "merge", vec![]);
    let mut per: Vec<(Workload, f64)> = Vec::new();
    let mut composite = Measurement::default();
    let mut series = TimeSeries::default();
    let mut cycle_offset = 0u64;
    let workloads = fold.workloads.into_iter().map(|m| {
        m.into_inner()
            .expect("a fold never panics while it holds the lock")
    });
    for ((&workload, merged), tails) in Workload::ALL
        .iter()
        .zip(workloads)
        .zip(fold.tails.chunks(shards))
    {
        for tail in tails.iter().flatten() {
            // Advance by the shard's measured cycles, not the last sample
            // boundary: a measurement whose tail produced no sample still
            // occupies its cycles on the composite timeline.
            series.splice(cycle_offset, &tail.series);
            cycle_offset += tail.cycles;
        }
        progress.info(&format!(
            "  {} done (CPI {:.2})",
            workload.name(),
            merged.cpi()
        ));
        per.push((workload, merged.cpi()));
        composite.merge(&merged);
    }
    drop(merge_span);
    drop(run_span);

    let cs = ControlStore::get();
    let analysis = Analysis::new(cs, &composite);
    let validation = validate(cs, &composite);
    if !validation.is_clean() {
        progress.warn(&format!(
            "counter validation diverged:\n{}",
            validation.render()
        ));
    }
    RunOutput {
        analysis,
        series,
        validation,
        per_workload: per,
        degraded: !failed_cells.is_empty(),
        failed_cells,
        canceled,
    }
}
