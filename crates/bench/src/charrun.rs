//! `reproduce characterize` / `reproduce refute`: run the directed-probe
//! grid on the shard pool.
//!
//! The grid is one job per probeable opcode × addressing-mode cell. The
//! baseline scaffold is measured **once, on the main thread** before the
//! fan-out — every cell's attribution subtracts the same baseline, and a
//! worker sends back only the compact [`CostRecord`] (never the histogram
//! board), so memory stays flat across a ~2000-cell grid. Results
//! land in input-indexed slots and are reduced in grid order, so
//! `costs.json` is byte-identical at any `--jobs` count, exactly like the
//! composite run. A probe cell runs for about a millisecond, so its machine
//! is not armed with the job's cancel token: a cancel or a deadline lands
//! when the pool next claims a cell.
//!
//! Observability mirrors `runner::run_grid`: a `run` span on the main
//! track with `baseline` under it, one `probe` (+`attribute`/`refute`)
//! span per cell on the worker tracks, `minimize` spans on the main track
//! for the shrink search, and the heartbeat counters (`cells_total`,
//! `cells_done`, `instructions`) the `--progress` feed reads.

use std::path::PathBuf;

use vax780::CancelKind;
use vax_analysis::characterize::{
    attribute, costs_from_json, run_probe, select_grid, CostRecord, CostTable, ProbeRun,
};
use vax_analysis::refute::{check_cell, minimize, refutation_json, Refutation, RefuteTolerance};
use vax_arch::{AddressingMode, Opcode};
use vax_asm::probe::{mode_key, probe_grid, ProbeTarget};
use vax_trace::{worker_tid, Tracer, MAIN_TID};

use crate::cli::CharacterizeOptions;
use crate::fsio::write_atomic;
use crate::pool::run_supervised;
use crate::progress::Progress;

/// Everything `reproduce characterize` produces.
#[derive(Debug)]
pub struct CharacterizeOutput {
    /// The attributed cost table (records in grid order).
    pub table: CostTable,
    /// Cells whose probe exhausted its retries, as `(mnemonic, mode key)`.
    pub failed_cells: Vec<(String, String)>,
    /// Set when the cancel token stopped the sweep (see
    /// [`crate::pool::PoolOutcome::canceled`]); the table is then partial.
    pub canceled: Option<CancelKind>,
}

/// Everything `reproduce refute` produces.
#[derive(Debug)]
pub struct RefuteOutput {
    /// Probeable cells checked.
    pub cells_checked: usize,
    /// Cells with at least one failing cross-check, as
    /// `(mnemonic, mode key, failing check names)`, grid order.
    pub refuted_cells: Vec<(String, String, Vec<String>)>,
    /// Minimized refutations (at most `--max-refutations`), with the
    /// fixture path each was written to (when a fixtures dir was set).
    pub refutations: Vec<(Refutation, Option<PathBuf>)>,
    /// Cells whose probe exhausted its retries.
    pub failed_cells: Vec<(String, String)>,
    /// Set when the cancel token stopped the sweep; the verdicts then
    /// cover only the cells that ran, and nothing was minimized.
    pub canceled: Option<CancelKind>,
}

/// Resolve the CLI's string filters (already validated by the parser;
/// anything unresolvable here is simply dropped).
fn filters(opts: &CharacterizeOptions) -> (Vec<Opcode>, Vec<AddressingMode>) {
    let p = &opts.spec.probe;
    let opcodes = p
        .opcodes
        .iter()
        .filter_map(|m| Opcode::from_mnemonic(m))
        .collect();
    let modes = p
        .modes
        .iter()
        .filter_map(|k| vax_asm::probe::mode_from_key(k))
        .collect();
    (opcodes, modes)
}

/// `reproduce characterize --list`: the filtered opcode × mode grid with
/// a probe/skip verdict per cell. Pure rendering — no simulation.
pub fn render_grid_list(opts: &CharacterizeOptions) -> String {
    let (opcodes, modes) = filters(opts);
    let mut out = String::from("opcode   mode                   cell\n");
    let mut probeable = 0usize;
    let mut skipped = 0usize;
    for cell in probe_grid() {
        if !opcodes.is_empty() && !opcodes.contains(&cell.opcode) {
            continue;
        }
        if !modes.is_empty() && !modes.contains(&cell.mode) {
            continue;
        }
        let verdict = match cell.target {
            Ok(t) => {
                probeable += 1;
                format!("probe (operand {})", t.operand)
            }
            Err(r) => {
                skipped += 1;
                format!("skip: {r}")
            }
        };
        out.push_str(&format!(
            "{:<8} {:<22} {verdict}\n",
            cell.opcode.mnemonic(),
            mode_key(cell.mode),
        ));
    }
    out.push_str(&format!(
        "{} cell(s): {probeable} probeable, {skipped} skipped\n",
        probeable + skipped
    ));
    out
}

/// Measure the shared baseline scaffold under its own span on the main
/// track.
fn run_baseline(opts: &CharacterizeOptions, tracer: &Tracer) -> ProbeRun {
    let _g = tracer.span(MAIN_TID, "baseline", vec![]);
    let b = run_probe(None, 0, opts.spec.probe.iters, opts.spec.probe.warmup)
        .expect("baseline scaffold must always assemble");
    tracer.count(MAIN_TID, "instructions", b.m.instructions());
    tracer.count(MAIN_TID, "sim_cycles", b.m.cycles);
    b
}

/// Run one probe cell on a worker track and return its run.
fn probe_cell(
    target: &ProbeTarget,
    opts: &CharacterizeOptions,
    tracer: &Tracer,
    tid: u64,
    attempt: u32,
) -> ProbeRun {
    let _g = tracer.span(
        tid,
        "probe",
        vec![
            ("opcode", target.opcode.mnemonic().into()),
            ("mode", mode_key(target.mode).into()),
            ("attempt", attempt.into()),
        ],
    );
    let p = &opts.spec.probe;
    run_probe(Some(target), p.reps as u32, p.iters, p.warmup).expect("grid targets always assemble")
}

/// Record the per-cell counters after a successful measurement (retried
/// attempts therefore never double-count, as in the composite run).
fn count_cell(tracer: &Tracer, tid: u64, run: &ProbeRun) {
    if tracer.is_enabled() {
        tracer.count(tid, "instructions", run.m.instructions());
        tracer.count(tid, "sim_cycles", run.m.cycles);
        tracer.count(tid, "probes_done", 1);
    }
    tracer.count(tid, "cells_done", 1);
}

/// Run the characterization grid described by `opts`.
///
/// # Panics
/// Panics if `opts.jobs() == 0` (the CLI rejects it up front). A worker
/// panic is retried and, on exhaustion, quarantined into
/// [`CharacterizeOutput::failed_cells`].
pub fn run_characterize(
    opts: &CharacterizeOptions,
    progress: &Progress,
    tracer: &Tracer,
) -> CharacterizeOutput {
    let (opcodes, modes) = filters(opts);
    let (targets, skips) = select_grid(&opcodes, &modes);
    tracer.set_thread_name(MAIN_TID, "main");
    let run_span = tracer.span(
        MAIN_TID,
        "run",
        vec![
            ("experiment", "characterize".into()),
            ("cells", (targets.len() as u64).into()),
            ("reps", opts.spec.probe.reps.into()),
            ("iters", opts.spec.probe.iters.into()),
            ("jobs", (opts.jobs() as u64).into()),
        ],
    );
    tracer.counter_set("cells_total", targets.len() as u64);
    progress.info(&format!(
        "characterizing {} cell(s) ({} skipped) x {} rep(s) x {} iteration(s), {} job(s) ...",
        targets.len(),
        skips.len(),
        opts.spec.probe.reps,
        opts.spec.probe.iters,
        opts.jobs()
    ));

    let baseline = run_baseline(opts, tracer);
    let baseline_cpi = baseline.m.cycles as f64 / baseline.m.instructions().max(1) as f64;

    let outcome = run_supervised(
        opts.jobs(),
        &targets,
        opts.retries(),
        tracer,
        run_span.id(),
        &opts.cancel,
        |worker, _i, target: &ProbeTarget, attempt| {
            let tid = worker_tid(worker);
            let run = probe_cell(target, opts, tracer, tid, attempt);
            let record = {
                let _g = tracer.span(tid, "attribute", vec![]);
                attribute(target, &run, &baseline)
            };
            count_cell(tracer, tid, &run);
            progress.debug(&format!(
                "  {} {}: {:.2} cycles",
                target.opcode.mnemonic(),
                mode_key(target.mode),
                record.cycles
            ));
            Ok(record)
        },
    );

    if let Some(kind) = outcome.canceled {
        progress.info(&format!("characterize {} at a cell boundary", kind.name()));
    }

    let mut failed_cells = Vec::new();
    for f in &outcome.failures {
        let t = &targets[f.index];
        progress.warn(&format!(
            "{} {} quarantined after {} attempt(s): {}",
            t.opcode.mnemonic(),
            mode_key(t.mode),
            f.attempts,
            f.message
        ));
        failed_cells.push((
            t.opcode.mnemonic().to_string(),
            mode_key(t.mode).to_string(),
        ));
    }
    // Grid-order reduction: slots are input-indexed, so the table never
    // depends on worker completion order.
    let records: Vec<CostRecord> = outcome.slots.into_iter().flatten().collect();
    drop(run_span);

    CharacterizeOutput {
        table: CostTable {
            reps: opts.spec.probe.reps as u32,
            iters: opts.spec.probe.iters,
            warmup: opts.spec.probe.warmup,
            baseline_cpi,
            baseline_loop_bytes: baseline.probe.loop_bytes,
            records,
            skips,
        },
        failed_cells,
        canceled: outcome.canceled,
    }
}

/// Run the adversarial cross-check grid described by `opts`.
///
/// # Errors
/// Returns a message when `--model` is set but unreadable or unparseable.
pub fn run_refute(
    opts: &CharacterizeOptions,
    progress: &Progress,
    tracer: &Tracer,
) -> Result<RefuteOutput, String> {
    let model = match &opts.model_file {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read model {}: {e}", path.display()))?;
            Some(costs_from_json(&text).map_err(|e| format!("model {}: {e}", path.display()))?)
        }
    };
    let tol = RefuteTolerance {
        abs: opts.spec.abs_tol,
        rel: opts.spec.rel_tol,
    };
    let model_ref = model.as_ref().map(|t| (t, tol));

    let (opcodes, modes) = filters(opts);
    let (targets, _skips) = select_grid(&opcodes, &modes);
    tracer.set_thread_name(MAIN_TID, "main");
    let run_span = tracer.span(
        MAIN_TID,
        "run",
        vec![
            ("experiment", "refute".into()),
            ("cells", (targets.len() as u64).into()),
            ("reps", opts.spec.probe.reps.into()),
            ("iters", opts.spec.probe.iters.into()),
            ("jobs", (opts.jobs() as u64).into()),
        ],
    );
    tracer.counter_set("cells_total", targets.len() as u64);
    progress.info(&format!(
        "refuting over {} cell(s) x {} rep(s) x {} iteration(s), {} job(s){} ...",
        targets.len(),
        opts.spec.probe.reps,
        opts.spec.probe.iters,
        opts.jobs(),
        if model.is_some() {
            " against cost model"
        } else {
            ""
        }
    ));

    let baseline = run_baseline(opts, tracer);

    let outcome = run_supervised(
        opts.jobs(),
        &targets,
        opts.retries(),
        tracer,
        run_span.id(),
        &opts.cancel,
        |worker, _i, target: &ProbeTarget, attempt| {
            let tid = worker_tid(worker);
            let run = probe_cell(target, opts, tracer, tid, attempt);
            let failures = {
                let _g = tracer.span(tid, "refute", vec![]);
                check_cell(target, &run, &baseline, model_ref)
            };
            count_cell(tracer, tid, &run);
            if !failures.is_empty() {
                tracer.instant(
                    tid,
                    "refuted",
                    vec![
                        ("opcode", target.opcode.mnemonic().into()),
                        ("mode", mode_key(target.mode).into()),
                    ],
                );
            }
            Ok(failures)
        },
    );

    let canceled = outcome.canceled;
    if let Some(kind) = canceled {
        progress.info(&format!("refute {} at a cell boundary", kind.name()));
    }

    let mut failed_cells = Vec::new();
    for f in &outcome.failures {
        let t = &targets[f.index];
        progress.warn(&format!(
            "{} {} quarantined after {} attempt(s): {}",
            t.opcode.mnemonic(),
            mode_key(t.mode),
            f.attempts,
            f.message
        ));
        failed_cells.push((
            t.opcode.mnemonic().to_string(),
            mode_key(t.mode).to_string(),
        ));
    }

    // Grid-order pass over the verdicts: collect every refuted cell, then
    // minimize (serially, on the main track — the shrink search re-runs
    // probes and must stay deterministic) up to the configured cap.
    let mut refuted_cells: Vec<(String, String, Vec<String>)> = Vec::new();
    let mut to_minimize: Vec<(ProbeTarget, Vec<_>)> = Vec::new();
    for (target, slot) in targets.iter().zip(outcome.slots) {
        let Some(failures) = slot else { continue };
        if failures.is_empty() {
            continue;
        }
        tracer.count(MAIN_TID, "refutations", 1);
        let names: Vec<String> = failures.iter().map(|c| c.name.clone()).collect();
        progress.warn(&format!(
            "REFUTED {} {}: {}",
            target.opcode.mnemonic(),
            mode_key(target.mode),
            names.join(", ")
        ));
        refuted_cells.push((
            target.opcode.mnemonic().to_string(),
            mode_key(target.mode).to_string(),
            names,
        ));
        if (to_minimize.len() as u64) < opts.spec.max_refutations {
            to_minimize.push((*target, failures));
        }
    }

    // A canceled sweep also skips minimization: the shrink search re-runs
    // probes serially and would push a deadline-exceeded job well past
    // its budget.
    if canceled.is_some() {
        to_minimize.clear();
    }
    let mut refutations = Vec::new();
    for (target, failures) in to_minimize {
        let minimized = {
            let _g = tracer.span(
                MAIN_TID,
                "minimize",
                vec![
                    ("opcode", target.opcode.mnemonic().into()),
                    ("mode", mode_key(target.mode).into()),
                ],
            );
            minimize(
                &target,
                opts.spec.probe.reps as u32,
                opts.spec.probe.iters,
                opts.spec.probe.warmup,
                &baseline,
                model_ref,
                failures,
            )
            .expect("minimization candidates always assemble")
        };
        progress.info(&format!(
            "minimized {} {} (reps {}) from {} (reps {})",
            minimized.opcode.mnemonic(),
            mode_key(minimized.mode),
            minimized.reps,
            mode_key(minimized.found_at.0),
            minimized.found_at.1,
        ));
        let path = opts.fixtures.as_ref().map(|dir| {
            let path = dir.join(format!(
                "refute-{}-{}.json",
                minimized.opcode.mnemonic().to_lowercase(),
                mode_key(minimized.mode)
            ));
            if let Err(e) = std::fs::create_dir_all(dir)
                .map_err(|e| e.to_string())
                .and_then(|()| {
                    write_atomic(&path, &refutation_json(&minimized)).map_err(|e| e.to_string())
                })
            {
                progress.warn(&format!("fixture {} not written: {e}", path.display()));
            } else {
                progress.info(&format!("wrote {}", path.display()));
            }
            path
        });
        refutations.push((minimized, path));
    }
    drop(run_span);

    Ok(RefuteOutput {
        cells_checked: targets.len(),
        refuted_cells,
        refutations,
        failed_cells,
        canceled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobspec::{ProbeSpec, RefuteSpec};
    use crate::progress::Verbosity;

    fn small_opts() -> CharacterizeOptions {
        CharacterizeOptions {
            spec: RefuteSpec {
                probe: ProbeSpec {
                    opcodes: vec!["MOVL".into(), "CLRL".into()],
                    modes: vec![
                        "register".into(),
                        "literal".into(),
                        "register_deferred".into(),
                    ],
                    reps: 2,
                    iters: 8,
                    warmup: 1500,
                    ..ProbeSpec::default()
                },
                ..RefuteSpec::default()
            },
            verbosity: Verbosity::Quiet,
            ..CharacterizeOptions::default()
        }
    }

    #[test]
    fn list_render_marks_probes_and_skips() {
        let s = render_grid_list(&small_opts());
        // MOVL probes all three modes; CLRL skips literal (write-only).
        assert!(s.contains("MOVL"), "{s}");
        assert!(s.contains("probe (operand 0)"), "{s}");
        assert!(s.contains("skip: literal/immediate is read-only"), "{s}");
        assert!(s.contains("5 probeable, 1 skipped"), "{s}");
    }

    #[test]
    fn characterize_grid_is_jobs_invariant() {
        let progress = Progress::new(Verbosity::Quiet);
        let mut o1 = small_opts();
        o1.spec.probe.jobs = Some(1);
        let mut o4 = small_opts();
        o4.spec.probe.jobs = Some(4);
        let t1 = run_characterize(&o1, &progress, &Tracer::disabled());
        let t4 = run_characterize(&o4, &progress, &Tracer::disabled());
        assert!(t1.failed_cells.is_empty() && t4.failed_cells.is_empty());
        assert_eq!(t1.table, t4.table, "cost table must not depend on --jobs");
        assert_eq!(t1.table.records.len(), 5);
    }

    #[test]
    fn refute_clean_grid_and_seeded_mutation() {
        let progress = Progress::new(Verbosity::Quiet);
        let opts = small_opts();
        let ch = run_characterize(&opts, &progress, &Tracer::disabled());

        // Refuting against the model we just measured is clean.
        let dir = std::env::temp_dir().join(format!("vax-refute-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("costs.json");
        std::fs::write(
            &model_path,
            vax_analysis::characterize::costs_json(&ch.table),
        )
        .unwrap();
        let mut ropts = opts.clone();
        ropts.model_file = Some(model_path.clone());
        ropts.fixtures = Some(dir.join("fixtures"));
        let out = run_refute(&ropts, &progress, &Tracer::disabled()).unwrap();
        assert_eq!(out.cells_checked, 5);
        assert!(out.refuted_cells.is_empty(), "{:?}", out.refuted_cells);

        // Mutate one record: that cell (and only that cell) is refuted,
        // minimized, and written as a fixture.
        let mut mutated = ch.table.clone();
        mutated.records[0].cycles += 4.0;
        std::fs::write(
            &model_path,
            vax_analysis::characterize::costs_json(&mutated),
        )
        .unwrap();
        let out = run_refute(&ropts, &progress, &Tracer::disabled()).unwrap();
        assert_eq!(out.refuted_cells.len(), 1);
        assert_eq!(out.refutations.len(), 1);
        let (r, path) = &out.refutations[0];
        assert_eq!(r.opcode, mutated.records[0].opcode);
        assert_eq!(r.reps, 1, "shrunk to a single probe copy");
        assert!(path.as_ref().unwrap().exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
