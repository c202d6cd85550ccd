//! The composite measurement engine, extracted from the `reproduce` binary
//! so integration tests (and the fixture-freshness check) can run the exact
//! same code path programmatically.
//!
//! The run is a grid of independent shard jobs — one per `(workload,
//! shard)` cell, seeded by `vax_workload::rte::shard_seed` — executed on a
//! [`crate::pool`] of supervised worker threads. Each attempt builds its
//! own simulated system from the cell's seed (only job descriptions and
//! results cross threads) and measures it; the parent then reduces the
//! results in `(workload, shard)` index order: measurements through
//! [`vax780::merge_ordered`], interval samples through
//! [`TimeSeries::splice`]. Because the reduction order is fixed by index
//! and never by completion order, a run's output is byte-identical at any
//! `--jobs` count — `--jobs` buys wall-clock time, not different numbers.
//!
//! Supervision: a shard attempt that panics (or trips its `--shard-timeout`
//! watchdog) is retried up to `--retries` times on a fresh system built
//! from the same shard seed, so a retried success is byte-identical to a
//! first-attempt success. A cell that exhausts its retries is quarantined —
//! its flight recording is dumped (when armed), the run is marked degraded,
//! and the remaining cells still merge into a partial result.
//!
//! Crash safety: with `--out DIR` every completed cell is journaled
//! atomically to `DIR/checkpoints/` (see [`crate::resume`]), and
//! [`resume_composite`] finishes an interrupted run, given its options, by
//! re-running only the missing cells.

use vax780::{merge_ordered, FaultPlan, Measurement, TimeSeries};
use vax_analysis::{validate, Analysis, CheckpointCell, ValidationReport};
use vax_cpu::{ControlStore, CpuConfig, SharedFlightRecorder};
use vax_trace::{worker_tid, Tracer, MAIN_TID};
use vax_workload::Workload;

use crate::cache::WarmCaches;
use crate::cancel::CancelKind;
use crate::cli::Options;
use crate::fsio::write_atomic;
use crate::pool::{panic_message, run_supervised};
use crate::progress::Progress;
use crate::resume::{cell_path, checkpoints_dir, header_json, header_path, load_cells};

/// Everything a composite run produces, ready for rendering or export.
#[derive(Debug)]
pub struct RunOutput {
    /// The reduced composite analysis (owns the merged [`vax780::Measurement`]).
    pub analysis: Analysis,
    /// The control store the reduction was keyed on (all systems share the
    /// same layout).
    pub cs: ControlStore,
    /// Composite interval time series, cycle offsets spliced so every
    /// shard of every workload forms one contiguous timeline in
    /// `(workload, shard)` order.
    pub series: TimeSeries,
    /// Counter-conservation validation of the composite measurement.
    pub validation: ValidationReport,
    /// `(workload, CPI)` for each workload's merged shards, in
    /// [`Workload::ALL`] order.
    pub per_workload: Vec<(Workload, f64)>,
    /// Conservation-check failure message, if the reduction lost cycles.
    pub conservation_err: Option<String>,
    /// True when at least one cell exhausted its retries; the merged
    /// results above then cover only the surviving cells.
    pub degraded: bool,
    /// The quarantined `(workload, shard)` cells, in grid order.
    pub failed_cells: Vec<(Workload, u64)>,
    /// Set when the run's cancel token fired: the grid stopped at a cell
    /// boundary, completed cells are checkpointed, and the merged results
    /// cover only what finished. The caller must not export final
    /// artifacts for a canceled run.
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

/// What a shard sends back across the thread boundary.
struct CellData {
    m: Measurement,
    series: TimeSeries,
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
/// hits/misses, and scheduled fault injections. Pass
/// `&Tracer::disabled()` to record nothing.
///
/// `caches` are shared warm caches (see [`crate::cache`]). A long-lived
/// engine passes its own so a repeated job skips codegen and boot; a
/// fresh `&WarmCaches::new()` behaves identically to no cache at all
/// (every cell of one run has a distinct seed, so a single run only ever
/// misses).
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
    let cells = vec![None; Workload::ALL.len() * opts.spec.shards as usize];
    run_grid(opts, progress, cells, tracer, caches)
}

/// Finish the interrupted run journaled under `opts.out`: load every
/// parseable cell checkpoint there and run only the missing cells. `opts`
/// are the interrupted run's own (the CLI rebuilds them from the
/// checkpoint header with [`crate::resume::options_from_header`]; the serve
/// daemon from the job's spec). `tracer` and `caches` are as for
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
    let cells = load_cells(dir, opts.spec.shards, progress);
    let done = cells.iter().filter(|c| c.is_some()).count();
    progress.info(&format!(
        "resuming from {}: {done}/{} cells checkpointed",
        dir.display(),
        cells.len()
    ));
    run_grid(opts, progress, cells, tracer, caches)
}

/// Shared grid engine: run every cell not already `preloaded`, then reduce.
fn run_grid(
    opts: &Options,
    progress: &Progress,
    preloaded: Vec<Option<CheckpointCell>>,
    tracer: &Tracer,
    caches: &WarmCaches,
) -> RunOutput {
    let instructions = opts.spec.instructions;
    let seed = opts.spec.seed;
    let shards = opts.spec.shards as usize;
    assert_eq!(preloaded.len(), Workload::ALL.len() * shards);
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
    tracer.counter_set("cells_total", preloaded.len() as u64);
    let preloaded_done = preloaded.iter().filter(|c| c.is_some()).count() as u64;
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

    let mut slots: Vec<Option<CellData>> = preloaded
        .into_iter()
        .map(|c| {
            c.map(|c| CellData {
                m: c.m,
                series: c.series,
            })
        })
        .collect();

    let todo: Vec<ShardJob> = Workload::ALL
        .iter()
        .enumerate()
        .flat_map(|(w, &workload)| (0..opts.spec.shards).map(move |shard| (w, workload, shard)))
        .filter(|&(w, _, shard)| slots[w * shards + shard as usize].is_none())
        .map(|(w, workload, shard)| ShardJob {
            workload,
            workload_index: w as u64,
            shard,
            recorder: SharedFlightRecorder::with_capacity(opts.spec.flight_recorder as usize),
        })
        .collect();

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
            let cell_seed = vax_workload::rte::shard_seed(seed, job.workload_index, job.shard);
            let (specs, workload_hit) = {
                let _g = tracer.span(tid, "codegen", vec![]);
                caches.processes(
                    job.workload,
                    vax_workload::rte::PROCESSES_PER_WORKLOAD,
                    cell_seed,
                )
            };
            let (mut system, boot_hit) = {
                let _g = tracer.span(tid, "boot", vec![]);
                caches.boot(&specs)
            };
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
            if let Some(secs) = opts.shard_timeout_secs {
                system.set_deadline(Some(
                    std::time::Instant::now() + std::time::Duration::from_secs_f64(secs),
                ));
            }
            let (m, series) = {
                let _g = tracer.span(tid, "simulate", vec![]);
                system.measure_sampled(instructions / 10, instructions, opts.spec.interval_cycles)
            };
            // Counters are recorded only after a *successful* measurement,
            // so a retried attempt never double-counts and runtime.json
            // totals stay invariant in both --jobs and --retries.
            if tracer.is_enabled() {
                let d = system.cpu.decode_cache_stats();
                tracer.count(tid, "decode_cache_hits", d.hits);
                tracer.count(tid, "decode_cache_misses", d.misses);
                tracer.count(tid, "instructions", m.instructions());
                tracer.count(tid, "sim_cycles", m.cycles);
                let hit = |b: bool| b as u64;
                tracer.count(tid, "workload_cache_hits", hit(workload_hit));
                tracer.count(tid, "workload_cache_misses", hit(!workload_hit));
                tracer.count(tid, "boot_cache_hits", hit(boot_hit));
                tracer.count(tid, "boot_cache_misses", hit(!boot_hit));
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
            let data = if let Some(out) = &journal {
                let _g = tracer.span(tid, "checkpoint", vec![]);
                let cell = CheckpointCell {
                    workload: job.workload_index,
                    shard: job.shard,
                    m,
                    series,
                };
                let path = cell_path(out, cell.workload, cell.shard);
                if let Err(e) =
                    write_atomic(&path, &vax_analysis::cell_to_json(&cell).to_string_pretty())
                {
                    progress.warn(&format!("checkpoint {} not written: {e}", path.display()));
                }
                CellData {
                    m: cell.m,
                    series: cell.series,
                }
            } else {
                CellData { m, series }
            };
            tracer.count(tid, "cells_done", 1);
            data
        },
    );

    let canceled = opts.cancel.fired();
    if let Some(kind) = canceled {
        tracer.instant(MAIN_TID, "cancel", vec![("kind", kind.name().into())]);
        tracer.count(MAIN_TID, "jobs_canceled", 1);
        progress.info(&format!(
            "run {} at a cell boundary; completed cells remain checkpointed",
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
            panic_message(&f.payload)
        ));
        if job.recorder.is_enabled() && !job.recorder.is_empty() {
            job.recorder.dump_stderr();
        }
        failed_cells.push((job.workload, job.shard));
    }
    for (job, result) in todo.iter().zip(outcome.slots) {
        let slot = job.workload_index as usize * shards + job.shard as usize;
        slots[slot] = result;
    }

    // Deterministic reduction: grid-index order, regardless of which
    // worker finished when. Quarantined cells are simply absent — the
    // composite covers whatever survived.
    let merge_span = tracer.span(MAIN_TID, "merge", vec![]);
    let cs = ControlStore::new(&CpuConfig::default());
    let mut per: Vec<(Workload, f64)> = Vec::new();
    let mut composite = Measurement::default();
    let mut series = TimeSeries::default();
    let mut cycle_offset = 0u64;
    for (w, &workload) in Workload::ALL.iter().enumerate() {
        let cells = &slots[w * shards..(w + 1) * shards];
        let merged: Measurement = merge_ordered(cells.iter().flatten().map(|r| &r.m));
        for r in cells.iter().flatten() {
            // Advance by the shard's measured cycles, not the last sample
            // boundary: a measurement whose tail produced no sample still
            // occupies its cycles on the composite timeline.
            series.splice(cycle_offset, &r.series);
            cycle_offset += r.m.cycles;
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

    let analysis = Analysis::new(&cs, &composite);
    let conservation_err = analysis.check_conservation().err();
    if let Some(e) = &conservation_err {
        progress.warn(&format!("conservation check failed: {e}"));
    }
    let validation = validate(&cs, &composite);
    if !validation.is_clean() {
        progress.warn(&format!(
            "counter validation diverged:\n{}",
            validation.render()
        ));
    }
    RunOutput {
        analysis,
        cs,
        series,
        validation,
        per_workload: per,
        conservation_err,
        degraded: !failed_cells.is_empty(),
        failed_cells,
        canceled,
    }
}
