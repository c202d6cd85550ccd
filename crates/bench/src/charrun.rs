//! `reproduce characterize` / `reproduce refute`: run the directed-probe
//! grid on the shard pool.
//!
//! Both commands are one probe sweep and a fold over its slots. The sweep
//! runs one job per probeable opcode × addressing-mode cell, after
//! measuring the baseline scaffold **once, on the main thread**: every
//! cell subtracts the same baseline. A worker runs the command's per-cell
//! step (attribution, or the cross-checks) and sends back only its
//! output, never the histogram board, so memory stays flat across a
//! ~2000-cell grid. Results land in input-indexed slots and are folded in
//! grid order, so `costs.json` is byte-identical at any `--jobs` count.
//! Every probe machine — the baseline, each cell, each minimization
//! candidate — is armed with the job's cancel token, so a cancel or a
//! deadline lands within 2,048 steps however many iterations the spec
//! asks for: a stopped cell leaves its slot empty, and a stopped baseline
//! or minimization ends the job canceled.
//!
//! Observability mirrors `runner::run_grid`: a `run` span on the main
//! track with `baseline` under it, one `probe` (+`attribute`/`refute`)
//! span per cell on the worker tracks, `minimize` spans on the main track
//! for the shrink search (refute's `run` span closes after them), and the
//! heartbeat counters (`cells_total`, `cells_done`, `instructions`) the
//! `--progress` feed reads.

use std::path::PathBuf;

use vax780::{CancelKind, Stop};
use vax_analysis::characterize::{
    attribute, costs_from_json, filtered_grid, run_probe, select_grid, CostTable, ProbeError,
    ProbeRun, SkipRecord,
};
use vax_analysis::refute::{check_cell, minimize, refutation_json, Refutation, RefuteTolerance};
use vax_arch::{AddressingMode, Opcode};
use vax_asm::probe::{mode_key, ProbeTarget};
use vax_trace::{worker_tid, SpanGuard, Tracer, MAIN_TID};

use crate::cli::CharacterizeOptions;
use crate::fsio::write_atomic;
use crate::pool::{record_cancel, run_supervised, PoolOutcome};
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
    /// Probeable cells in the swept grid: every one was checked unless
    /// `canceled` is set.
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
    let (mut probeable, mut skipped) = (0usize, 0usize);
    for cell in filtered_grid(&opcodes, &modes) {
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

/// The cause of a probe the job's token stopped: grid probes, the
/// baseline scaffold and minimization candidates always assemble.
fn canceled_by(e: ProbeError) -> CancelKind {
    match e {
        ProbeError::Canceled(kind) => kind,
        ProbeError::Asm(e) => panic!("grid probes always assemble: {e:?}"),
    }
}

/// One sweep of the probe grid: what `characterize` and `refute` fold.
struct Sweep<O> {
    /// The probeable cells the filters selected, grid order.
    targets: Vec<ProbeTarget>,
    /// The selected cells that cannot be probed, grid order.
    skips: Vec<SkipRecord>,
    /// The shared baseline scaffold's run, or `None` when the job's token
    /// stopped it (the pool then never ran, and `canceled` is set).
    baseline: Option<ProbeRun>,
    /// `slots[i]` holds the step's output for `targets[i]`, or `None` if
    /// the cell was quarantined or left unrun by a cancel.
    slots: Vec<Option<O>>,
    /// Cells whose probe exhausted its retries, as `(mnemonic, mode key)`.
    failed_cells: Vec<(String, String)>,
    /// The token's cause, as the baseline or the pool read it.
    canceled: Option<CancelKind>,
    /// The open `run` span: it closes when the sweep is dropped.
    run: SpanGuard,
}

/// Sweep the probe grid `opts` selects under a `run` span naming
/// `experiment`: announce it with `start_line(cells, skipped)`, measure
/// the baseline scaffold once, on the main track, then probe every cell
/// on the supervised pool and hand each run, with the baseline, to
/// `step(tid, target, run, baseline)` on its worker track. Every probe
/// machine reads the job's token: a stopped baseline ends the sweep
/// before the fan-out, and a stopped cell leaves its slot empty.
fn sweep<O: Send>(
    opts: &CharacterizeOptions,
    experiment: &str,
    progress: &Progress,
    tracer: &Tracer,
    start_line: impl FnOnce(usize, usize) -> String,
    step: impl Fn(u64, &ProbeTarget, &ProbeRun, &ProbeRun) -> O + Sync,
) -> Sweep<O> {
    let (opcodes, modes) = filters(opts);
    let (targets, skips) = select_grid(&opcodes, &modes);
    let p = &opts.spec.probe;
    tracer.set_thread_name(MAIN_TID, "main");
    let run = tracer.span(
        MAIN_TID,
        "run",
        vec![
            ("experiment", experiment.into()),
            ("cells", (targets.len() as u64).into()),
            ("reps", p.reps.into()),
            ("iters", p.iters.into()),
            ("jobs", (opts.jobs() as u64).into()),
        ],
    );
    tracer.counter_set("cells_total", targets.len() as u64);
    progress.info(&start_line(targets.len(), skips.len()));

    let baseline = {
        let _g = tracer.span(MAIN_TID, "baseline", vec![]);
        run_probe(None, 0, p.iters, p.warmup, &opts.cancel).map_err(canceled_by)
    };
    let outcome = match &baseline {
        Ok(baseline) => {
            tracer.count(MAIN_TID, "instructions", baseline.m.instructions());
            tracer.count(MAIN_TID, "sim_cycles", baseline.m.cycles);
            let cell = |worker, _i, target: &ProbeTarget, attempt: u32| {
                let tid = worker_tid(worker);
                let run = {
                    let _g = tracer.span(
                        tid,
                        "probe",
                        vec![
                            ("opcode", target.opcode.mnemonic().into()),
                            ("mode", mode_key(target.mode).into()),
                            ("attempt", attempt.into()),
                        ],
                    );
                    run_probe(Some(target), p.reps as u32, p.iters, p.warmup, &opts.cancel)
                        .map_err(|e| Stop::Canceled(canceled_by(e)))?
                };
                let out = step(tid, target, &run, baseline);
                // Counted after a successful measurement, so retried
                // attempts never double-count, as in the composite run.
                if tracer.is_enabled() {
                    tracer.count(tid, "instructions", run.m.instructions());
                    tracer.count(tid, "sim_cycles", run.m.cycles);
                    tracer.count(tid, "probes_done", 1);
                }
                tracer.count(tid, "cells_done", 1);
                Ok(out)
            };
            let outcome = run_supervised(
                opts.jobs(),
                &targets,
                opts.retries(),
                tracer,
                run.id(),
                &opts.cancel,
                cell,
            );
            if let Some(kind) = outcome.canceled {
                progress.info(&format!("{experiment} {}", kind.name()));
            }
            outcome
        }
        // The pool never runs, so the baseline's stop is recorded here.
        Err(kind) => {
            record_cancel(tracer, *kind);
            progress.info(&format!("{experiment} {} in the baseline", kind.name()));
            PoolOutcome {
                slots: Vec::new(),
                failures: Vec::new(),
                canceled: Some(*kind),
            }
        }
    };

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
    Sweep {
        targets,
        skips,
        baseline: baseline.ok(),
        slots: outcome.slots,
        failed_cells,
        canceled: outcome.canceled,
        run,
    }
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
    let p = &opts.spec.probe;
    let start_line = |cells, skipped| {
        format!(
            "characterizing {cells} cell(s) ({skipped} skipped) x {} rep(s) x {} iteration(s), \
             {} job(s) ...",
            p.reps,
            p.iters,
            opts.jobs()
        )
    };
    let sweep = sweep(
        opts,
        "characterize",
        progress,
        tracer,
        start_line,
        |tid, target, run, baseline| {
            let record = {
                let _g = tracer.span(tid, "attribute", vec![]);
                attribute(target, run, baseline)
            };
            progress.debug(&format!(
                "  {} {}: {:.2} cycles",
                target.opcode.mnemonic(),
                mode_key(target.mode),
                record.cycles
            ));
            record
        },
    );
    let (baseline_cpi, baseline_loop_bytes) = sweep.baseline.as_ref().map_or((0.0, 0), |b| {
        let cpi = b.m.cycles as f64 / b.m.instructions().max(1) as f64;
        (cpi, b.probe.loop_bytes)
    });
    CharacterizeOutput {
        table: CostTable {
            reps: p.reps as u32,
            iters: p.iters,
            warmup: p.warmup,
            baseline_cpi,
            baseline_loop_bytes,
            // Grid-order reduction: slots are input-indexed, so the table
            // never depends on worker completion order.
            records: sweep.slots.into_iter().flatten().collect(),
            skips: sweep.skips,
        },
        failed_cells: sweep.failed_cells,
        canceled: sweep.canceled,
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

    let p = &opts.spec.probe;
    let start_line = |cells, _skipped| {
        format!(
            "refuting over {cells} cell(s) x {} rep(s) x {} iteration(s), {} job(s){} ...",
            p.reps,
            p.iters,
            opts.jobs(),
            if model.is_some() {
                " against cost model"
            } else {
                ""
            }
        )
    };
    let sweep = sweep(
        opts,
        "refute",
        progress,
        tracer,
        start_line,
        |tid, target, run, baseline| {
            let failures = {
                let _g = tracer.span(tid, "refute", vec![]);
                check_cell(target, run, baseline, model_ref)
            };
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
            failures
        },
    );

    // Grid-order pass over the verdicts: collect every refuted cell, then
    // minimize (serially, on the main track — the shrink search re-runs
    // probes and must stay deterministic) up to the configured cap.
    let mut refuted_cells: Vec<(String, String, Vec<String>)> = Vec::new();
    let mut to_minimize: Vec<(ProbeTarget, Vec<_>)> = Vec::new();
    for (target, slot) in sweep.targets.iter().zip(sweep.slots) {
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
    // its budget. A token that fires while it runs stops it, and the job
    // ends canceled.
    let mut canceled = sweep.canceled;
    if canceled.is_some() {
        to_minimize.clear();
    }
    let mut refutations = Vec::new();
    for (target, failures) in to_minimize {
        let baseline = sweep.baseline.as_ref();
        let baseline = baseline.expect("an uncanceled sweep measured its baseline");
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
                p.reps as u32,
                p.warmup,
                baseline,
                model_ref,
                failures,
                &opts.cancel,
            )
        };
        let minimized = match minimized {
            Ok(minimized) => minimized,
            Err(e) => {
                let kind = canceled_by(e);
                record_cancel(tracer, kind);
                progress.info(&format!("refute {} while minimizing", kind.name()));
                canceled = Some(kind);
                break;
            }
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
    drop(sweep.run);

    Ok(RefuteOutput {
        cells_checked: sweep.targets.len(),
        refuted_cells,
        refutations,
        failed_cells: sweep.failed_cells,
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
        // The list walks the sweep's filter: its counts are the sweep's.
        let (opcodes, modes) = filters(&small_opts());
        let (targets, skips) = select_grid(&opcodes, &modes);
        let counts = format!("{} probeable, {} skipped", targets.len(), skips.len());
        assert!(s.contains(&counts), "{s}");
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

    /// Span counts by phase name.
    fn phase_counts(tracer: &Tracer) -> Vec<(String, u64)> {
        let phases = tracer.phase_totals().into_iter();
        phases.map(|(name, p)| (name, p.count)).collect()
    }

    fn named<const N: usize>(counts: [(&str, u64); N]) -> Vec<(String, u64)> {
        counts.map(|(name, n)| (name.to_string(), n)).to_vec()
    }

    #[test]
    fn traced_sweeps_record_the_same_spans_counters_and_instants_at_any_job_count() {
        let progress = Progress::new(Verbosity::Quiet);
        let mut table = None;
        for jobs in [1, 2] {
            let mut opts = small_opts();
            opts.spec.probe.jobs = Some(jobs);
            let tracer = Tracer::enabled();
            let out = run_characterize(&opts, &progress, &tracer);
            assert_eq!(
                phase_counts(&tracer),
                named([
                    ("attribute", 5),
                    ("baseline", 1),
                    ("job", 5),
                    ("probe", 5),
                    ("queue-wait", 5),
                    ("run", 1),
                ]),
                "jobs {jobs}"
            );
            let counters = tracer.counters().into_iter();
            let counters: Vec<(String, u64)> = counters.map(|(k, v)| (k.to_string(), v)).collect();
            assert_eq!(
                counters,
                named([
                    ("cells_done", 5),
                    ("cells_total", 5),
                    ("instructions", 272),
                    ("probes_done", 5),
                    ("sim_cycles", 1_112),
                ]),
                "jobs {jobs}"
            );
            assert!(tracer.instant_totals().is_empty(), "jobs {jobs}");
            table = Some(out.table);
        }

        // Refute against that table with record 0 made 4 cycles dearer:
        // one cell refuted, minimized and written as a fixture.
        let mut model = table.unwrap();
        model.records[0].cycles += 4.0;
        let dir = std::env::temp_dir().join(format!("vax-refute-traced-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("costs.json");
        std::fs::write(&model_path, vax_analysis::characterize::costs_json(&model)).unwrap();
        let mut opts = small_opts();
        opts.spec.probe.jobs = Some(2);
        opts.model_file = Some(model_path);
        opts.fixtures = Some(dir.join("fixtures"));
        let tracer = Tracer::enabled();
        let out = run_refute(&opts, &progress, &tracer).unwrap();
        assert_eq!((out.cells_checked, out.refuted_cells.len()), (5, 1));
        assert_eq!(
            phase_counts(&tracer),
            named([
                ("baseline", 1),
                ("job", 5),
                ("minimize", 1),
                ("probe", 5),
                ("queue-wait", 5),
                ("refute", 5),
                ("run", 1),
            ])
        );
        assert_eq!(tracer.counter_value("refutations"), 1);
        assert_eq!(tracer.counter_value("cells_done"), 5);
        let instants = tracer.instant_totals().into_iter();
        let instants: Vec<(String, u64)> = instants.collect();
        assert_eq!(instants, named([("refuted", 1)]));
        let fixtures = std::fs::read_dir(dir.join("fixtures")).unwrap().count();
        assert_eq!(fixtures, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
