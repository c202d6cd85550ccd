//! The job engine: one entry point for every way a job can be submitted.
//!
//! A [`JobRequest`] is a fully-validated option struct (the same structs
//! the CLI parsers produce); [`JobEngine::execute`] runs it — simulation,
//! rendering, artifact export, observability flush — and returns a
//! [`JobOutcome`] holding the exit code and the text the CLI would have
//! printed to stdout. The `reproduce` binary is a thin frontend: parse
//! argv, call the engine, print the outcome. The `reproduce serve` daemon
//! is another frontend over the *same* engine, so an HTTP-submitted job
//! and a CLI invocation of the same spec produce byte-identical artifacts
//! by construction (CI-enforced by the serve-smoke job).
//!
//! An engine owns a [`WarmCaches`]. The daemon keeps one engine across
//! jobs, built with [`JobEngine::with_caches`] over a cache that retains
//! boot images, so a second job with the same experiment definition skips
//! workload codegen and kernel boot. [`JobEngine::new`], one per CLI
//! invocation or benchmark job, runs a single job whose cells all have
//! distinct seeds, so it retains no image: a kept image could never be hit,
//! and its memory would only add to the job's peak. Both record every
//! lookup in `runtime.json` and export the same bytes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vax780::CancelKind;
use vax_analysis::{tables, Analysis, Profile, RunManifest};
use vax_cpu::ControlStore;
use vax_trace::{Tracer, MAIN_TID};

use crate::cache::WarmCaches;
use crate::charrun;
use crate::cli::{CharacterizeOptions, Format, Options};
use crate::fsio::write_atomic;
use crate::heartbeat::{runtime_json, Heartbeat};
use crate::progress::Progress;
use crate::runner::{self, RunOutput};

/// A validated job for the engine: the same option structs the CLI
/// parsers build, minus any argv involvement.
#[derive(Debug, Clone)]
pub enum JobRequest {
    /// The five-workload composite measurement (`reproduce` / `run` spec).
    Run(Options),
    /// The per-opcode cost-table sweep (`reproduce characterize`).
    Characterize(CharacterizeOptions),
    /// Adversarial counter cross-checks (`reproduce refute`).
    Refute(CharacterizeOptions),
    /// Finish an interrupted run, given its own options, from the
    /// checkpoints under their `out` directory: the `Run` measurement,
    /// except that journaled cells are loaded instead of re-run.
    Resume(Options),
}

impl JobRequest {
    fn trace_out(&self) -> Option<&Path> {
        match self {
            JobRequest::Run(o) | JobRequest::Resume(o) => o.trace_out.as_deref(),
            JobRequest::Characterize(o) | JobRequest::Refute(o) => o.trace_out.as_deref(),
        }
    }

    fn progress_ms(&self) -> Option<u64> {
        match self {
            JobRequest::Run(o) | JobRequest::Resume(o) => o.progress_ms,
            JobRequest::Characterize(o) | JobRequest::Refute(o) => o.progress_ms,
        }
    }

    fn progress(&self) -> Progress {
        Progress::new(match self {
            JobRequest::Run(o) | JobRequest::Resume(o) => o.verbosity,
            JobRequest::Characterize(o) | JobRequest::Refute(o) => o.verbosity,
        })
    }

    /// The directory `runtime.json` belongs in: the job's output
    /// directory, except for `fig1`, which runs nothing.
    fn runtime_dir(&self) -> Option<&Path> {
        match self {
            JobRequest::Run(o) | JobRequest::Resume(o) if o.spec.experiment == "fig1" => None,
            JobRequest::Run(o) | JobRequest::Resume(o) => o.out.as_deref(),
            JobRequest::Characterize(o) | JobRequest::Refute(o) => o.out.as_deref(),
        }
    }
}

/// What a finished job hands back to its frontend.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Process exit code the CLI would use (0 = clean).
    pub code: i32,
    /// Everything the job would have printed to stdout (tables, reports,
    /// stdout-mode JSON). Narration still goes to stderr as it happens.
    pub stdout: String,
    /// Set when the job's cancel token ended it early — the exact cause
    /// the engine acted on when it withheld final artifacts. Frontends
    /// must derive the terminal status from this latched value, not by
    /// re-polling the token: a deadline that elapses *after* the run
    /// completed and exported would otherwise mislabel a finished job.
    pub canceled: Option<CancelKind>,
}

/// Executor for [`JobRequest`]s (see module docs).
#[derive(Debug)]
pub struct JobEngine {
    caches: Arc<WarmCaches>,
}

impl Default for JobEngine {
    fn default() -> JobEngine {
        JobEngine::new()
    }
}

impl JobEngine {
    /// A one-shot engine: its cache retains no boot image, so every cell
    /// generates and boots its own machine and frees it when done.
    pub fn new() -> JobEngine {
        JobEngine::with_caches(Arc::new(WarmCaches::one_shot()))
    }

    /// An engine sharing an existing cache set (the daemon's, which
    /// retains images across jobs).
    pub fn with_caches(caches: Arc<WarmCaches>) -> JobEngine {
        JobEngine { caches }
    }

    /// The engine's warm caches (for counter inspection / sharing).
    pub fn caches(&self) -> &Arc<WarmCaches> {
        &self.caches
    }

    /// Execute a job the way the CLI does: tracer and heartbeat built
    /// from the request's own `--trace-out` / `--progress` flags, then
    /// the observability flush.
    pub fn execute(&self, req: &JobRequest) -> JobOutcome {
        let progress = req.progress();
        let (tracer, heartbeat) = start_observability(req.trace_out(), req.progress_ms());
        let mut outcome = self.run_job(req, &progress, &tracer);
        drop(heartbeat);
        let obs_code = flush_observability(&tracer, req.trace_out(), req.runtime_dir(), &progress);
        if outcome.code == 0 {
            outcome.code = obs_code;
        }
        outcome
    }

    /// Execute a job under a caller-owned tracer — the daemon path. No
    /// heartbeat thread is started (the server reads progress from the
    /// tracer on demand); the flush still writes the request's trace file
    /// and the `runtime.json` roll-up into its output directory.
    pub fn execute_traced(&self, req: &JobRequest, tracer: &Tracer) -> JobOutcome {
        let progress = req.progress();
        let mut outcome = self.run_job(req, &progress, tracer);
        let obs_code = flush_observability(tracer, req.trace_out(), req.runtime_dir(), &progress);
        if outcome.code == 0 {
            outcome.code = obs_code;
        }
        outcome
    }

    /// Run the job body (no observability setup/flush).
    fn run_job(&self, req: &JobRequest, progress: &Progress, tracer: &Tracer) -> JobOutcome {
        match req {
            JobRequest::Run(opts) => self.run_measure(opts, false, progress, tracer),
            JobRequest::Resume(opts) => self.run_measure(opts, true, progress, tracer),
            JobRequest::Characterize(opts) => run_characterize(opts, progress, tracer),
            JobRequest::Refute(opts) => run_refute(opts, progress, tracer),
        }
    }

    /// The measurement run (`reproduce` with no subcommand), or with
    /// `resume` its completion from the checkpoints under `opts.out`
    /// (`reproduce resume`). Both render and export through the same code,
    /// so a resumed run's artifacts are the bytes of an uninterrupted one.
    fn run_measure(
        &self,
        opts: &Options,
        resume: bool,
        progress: &Progress,
        tracer: &Tracer,
    ) -> JobOutcome {
        let mut stdout = String::new();
        if opts.spec.experiment == "fig1" {
            stdout.push_str(&fig1());
            return JobOutcome {
                code: 0,
                stdout,
                canceled: None,
            };
        }

        let out = if resume {
            runner::resume_composite(opts, progress, tracer, &self.caches)
        } else {
            runner::run_composite(opts, progress, tracer, &self.caches)
        };
        if let Some(kind) = out.canceled {
            // A canceled run keeps its checkpoints and runtime.json but
            // never exports final artifacts — a half-covered composite
            // must not look like a finished measurement.
            progress.info(&format!(
                "{} {}: final artifacts not exported",
                if resume { "resume" } else { "run" },
                kind.name()
            ));
            return JobOutcome {
                code: 1,
                stdout,
                canceled: Some(kind),
            };
        }
        let code = render_and_export(opts, &out, progress, tracer, &mut stdout);
        JobOutcome {
            code,
            stdout,
            canceled: None,
        }
    }
}

/// Figure 1 is the 780 block diagram; we reproduce it as the simulated
/// component inventory.
pub fn fig1() -> String {
    let mut s = String::new();
    s.push_str("Figure 1 — VAX-11/780 block diagram (simulated configuration)\n");
    s.push_str("  CPU pipeline:\n");
    s.push_str("    I-Fetch   : 8-byte instruction buffer, one outstanding longword fill\n");
    s.push_str("    I-Decode  : one non-overlapped cycle per instruction\n");
    s.push_str("    EBOX      : microcoded; 200 ns microcycle; synthetic control store\n");
    s.push_str("  Memory subsystem:\n");
    s.push_str("    TB        : 128 entries, 2-way, split system/process halves\n");
    s.push_str("    Cache     : 8 KB, 2-way, 8-byte blocks, write-through, no write-allocate\n");
    s.push_str("    Write buf : one longword, 6-cycle drain\n");
    s.push_str("    SBI       : shared path to 8 MB memory, 6-cycle read miss\n");
    s
}

/// Build a run's tracer (and heartbeat) from the observability flags:
/// either `--trace-out` or `--progress` enables recording; without them
/// the tracer is the no-op disabled handle the hot path never notices.
/// When a trace file is requested, any panic flushes the partial buffer
/// there, so even a crashed run leaves an openable trace.
pub fn start_observability(
    trace_out: Option<&Path>,
    progress_ms: Option<u64>,
) -> (Tracer, Option<Heartbeat>) {
    let tracer = if trace_out.is_some() || progress_ms.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    if let Some(path) = trace_out {
        tracer.register_panic_flush(path);
    }
    let heartbeat = progress_ms.map(|ms| Heartbeat::start(tracer.clone(), ms));
    (tracer, heartbeat)
}

/// Write the post-run observability artifacts: the Chrome trace to
/// `--trace-out`, and (when the run exported into a directory) the
/// `runtime.json` roll-up next to the other artifacts. Failures here are
/// reported but never override the run's own exit code with success —
/// they only turn a clean exit into a failure.
pub fn flush_observability(
    tracer: &Tracer,
    trace_out: Option<&Path>,
    out_dir: Option<&Path>,
    progress: &Progress,
) -> i32 {
    if !tracer.is_enabled() {
        return 0;
    }
    let mut code = 0;
    if let Some(path) = trace_out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("reproduce: cannot create {}: {e}", dir.display());
                code = 1;
            }
        }
        match write_atomic(path, &tracer.chrome_trace()) {
            Ok(()) => progress.info(&format!("wrote {}", path.display())),
            Err(e) => {
                eprintln!("reproduce: cannot write {}: {e}", path.display());
                code = 1;
            }
        }
    }
    if let Some(dir) = out_dir {
        let path = dir.join("runtime.json");
        let body = runtime_json(tracer).to_string_pretty();
        match std::fs::create_dir_all(dir)
            .map_err(|e| e.to_string())
            .and_then(|()| write_atomic(&path, &body).map_err(|e| e.to_string()))
        {
            Ok(()) => progress.info(&format!("wrote {}", path.display())),
            Err(e) => {
                eprintln!("reproduce: cannot write {}: {e}", path.display());
                code = 1;
            }
        }
    }
    code
}

/// `reproduce characterize`: run the directed-probe grid and emit the
/// per-opcode cost table. `--out DIR` writes `costs.json` + `costs.md`
/// (plus `runtime.json` when traced); without it the JSON goes to stdout.
/// Exit 1 when any grid cell exhausted its retries.
fn run_characterize(
    opts: &CharacterizeOptions,
    progress: &Progress,
    tracer: &Tracer,
) -> JobOutcome {
    let mut stdout = String::new();
    if opts.list {
        stdout.push_str(&charrun::render_grid_list(opts));
        return JobOutcome {
            code: 0,
            stdout,
            canceled: None,
        };
    }
    let out = charrun::run_characterize(opts, progress, tracer);
    // The token's cause, as the baseline or the pool read it, gates the
    // export below and becomes the outcome's terminal cause.
    let canceled = out.canceled;
    if let Some(kind) = canceled {
        // A partial sweep is not a cost table; keep runtime.json, skip
        // the exports.
        progress.info(&format!(
            "characterize {}: cost table not exported",
            kind.name()
        ));
        return JobOutcome {
            code: 1,
            stdout,
            canceled,
        };
    }
    let json = vax_analysis::costs_json(&out.table);
    let mut code = i32::from(!out.failed_cells.is_empty());
    match &opts.out {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!(
                    "reproduce characterize: cannot create {}: {e}",
                    dir.display()
                );
                code = 1;
            } else {
                for (name, body) in [
                    ("costs.json", json),
                    ("costs.md", vax_analysis::costs_markdown(&out.table)),
                ] {
                    let path = dir.join(name);
                    if let Err(e) = write_atomic(&path, &body) {
                        eprintln!(
                            "reproduce characterize: cannot write {}: {e}",
                            path.display()
                        );
                        code = 1;
                        break;
                    }
                    tracer.count(MAIN_TID, "bytes_exported", body.len() as u64);
                }
                progress.info(&format!(
                    "wrote costs.json and costs.md to {}",
                    dir.display()
                ));
            }
        }
        None => stdout.push_str(&json),
    }
    JobOutcome {
        code,
        stdout,
        canceled: None,
    }
}

/// `reproduce refute`: adversarial cross-checks over the probe grid.
/// Exit 0 only when every cell survives every check; a refutation (or a
/// quarantined cell) exits 1, and the minimized regression fixtures land
/// in `--fixtures DIR`.
fn run_refute(opts: &CharacterizeOptions, progress: &Progress, tracer: &Tracer) -> JobOutcome {
    let mut stdout = String::new();
    let result = charrun::run_refute(opts, progress, tracer);
    // The token's cause, as the baseline, the pool or a minimization it
    // stopped read it, suppresses the partial verdict list and becomes the
    // outcome's terminal cause.
    let canceled = result.as_ref().ok().and_then(|out| out.canceled);
    let code = match result {
        Err(msg) => {
            eprintln!("reproduce refute: {msg}");
            2
        }
        Ok(_) if canceled.is_some() => {
            // The sweep stopped early; a partial verdict list would read
            // as "the rest of the grid survived", which it did not.
            1
        }
        Ok(out) => {
            for (opcode, mode, checks) in &out.refuted_cells {
                let _ = writeln!(stdout, "REFUTED {opcode} {mode}: {}", checks.join(", "));
            }
            let _ = writeln!(
                stdout,
                "refute: {} cell(s) checked, {} refuted, {} minimized, {} quarantined",
                out.cells_checked,
                out.refuted_cells.len(),
                out.refutations.len(),
                out.failed_cells.len()
            );
            i32::from(!out.refuted_cells.is_empty() || !out.failed_cells.is_empty())
        }
    };
    JobOutcome {
        code,
        stdout,
        canceled,
    }
}

/// Everything downstream of the simulation: profile, per-workload CPIs,
/// exports, and the exit code. Shared by run and resume so a resumed
/// run's artifacts come from the same code path (and the same bytes) as an
/// uninterrupted one.
fn render_and_export(
    opts: &Options,
    out: &RunOutput,
    progress: &Progress,
    tracer: &Tracer,
    stdout: &mut String,
) -> i32 {
    let _export = tracer.span(MAIN_TID, "export", vec![]);
    // The µPC attribution profile: folded stacks + JSON always go to a
    // directory (--out if given, else the working directory); the top-N
    // report goes to stdout in text mode and stderr in json mode so the
    // machine-readable stream stays clean.
    if opts.spec.profile {
        let profile = Profile::new(&ControlStore::get().map, &out.analysis.m.hist);
        let dir = opts.out.clone().unwrap_or_else(|| PathBuf::from("."));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("reproduce: cannot create {}: {e}", dir.display());
            return 1;
        }
        for (name, body) in [
            ("profile.folded", profile.folded()),
            ("profile.json", profile.to_json().to_string_pretty()),
        ] {
            let path = dir.join(name);
            if let Err(e) = write_atomic(&path, &body) {
                eprintln!("reproduce: cannot write {}: {e}", path.display());
                return 1;
            }
            tracer.count(MAIN_TID, "bytes_exported", body.len() as u64);
        }
        progress.info(&format!(
            "wrote profile.folded and profile.json to {}",
            dir.display()
        ));
        let report = profile.top_routines_report(opts.spec.top as usize);
        match opts.format {
            Format::Text => {
                let _ = writeln!(stdout, "{report}");
            }
            Format::Json => progress.info(&report),
        }
    }

    if opts.spec.per_workload {
        let mut s = String::from("Per-workload CPI:\n");
        for (w, cpi) in &out.per_workload {
            s.push_str(&format!("  {:<34} {cpi:>6.2}\n", w.name()));
        }
        match opts.format {
            Format::Text => {
                let _ = writeln!(stdout, "{s}");
            }
            Format::Json => progress.info(&s),
        }
    }

    if opts.format == Format::Json {
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
        let files =
            vax_analysis::run_artifacts(&manifest, &out.analysis, &out.series, &out.validation);
        match &opts.out {
            Some(dir) => {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("reproduce: cannot create {}: {e}", dir.display());
                    return 1;
                }
                for (name, body) in &files {
                    let path = dir.join(name);
                    if let Err(e) = write_atomic(&path, body) {
                        eprintln!("reproduce: cannot write {}: {e}", path.display());
                        return 1;
                    }
                    tracer.count(MAIN_TID, "bytes_exported", body.len() as u64);
                }
                progress.info(&format!(
                    "wrote {} artifacts to {}",
                    files.len(),
                    dir.display()
                ));
            }
            None => {
                let tables = files
                    .iter()
                    .find(|(name, _)| *name == "tables.json")
                    .map(|(_, body)| body.as_str())
                    .unwrap();
                stdout.push_str(tables);
            }
        }
        return exit_code(opts, out);
    }

    stdout.push_str(&render_text(&opts.spec.experiment, &out.analysis));
    exit_code(opts, out)
}

/// The text report of a measured `--experiment`: Figure 1 and every table
/// for `all`, else the table of that name.
fn render_text(experiment: &str, a: &Analysis) -> String {
    if experiment == "all" {
        return format!("{}\n{}", fig1(), tables::print_all_tables(a));
    }
    match tables::by_name(a, experiment) {
        Some(table) => table.text(),
        None => unreachable!("experiment '{experiment}' passed validation but has no table"),
    }
}

/// Exit code policy: validation divergence always fails; a degraded run
/// (quarantined cells) fails only under `--strict` — without it the
/// partial results are still worth exiting 0 for, and the manifest records
/// the damage.
fn exit_code(opts: &Options, out: &RunOutput) -> i32 {
    if !out.validation.is_clean() || (opts.spec.strict && out.degraded) {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::EXPERIMENTS;
    use vax780::{ProcessSpec, SystemBuilder, SystemConfig};
    use vax_arch::{Opcode, Reg};
    use vax_asm::{Asm, Operand};

    #[test]
    fn every_experiment_name_is_a_table_and_renders() {
        let mut asm = Asm::new(0x200);
        asm.label("entry");
        asm.insn(
            Opcode::Addl2,
            &[Operand::Lit(1), Operand::Reg(Reg::new(3))],
            None,
        );
        asm.insn(Opcode::Brb, &[], Some("entry"));
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(ProcessSpec::new(asm.assemble().unwrap(), "entry"));
        let mut sys = b.build();
        let m = sys.measure(100, 1_000);
        let a = Analysis::new(sys.cpu.cs, &m);

        let mut tables: Vec<&str> = tables::TABLES.iter().map(|t| t(&a).name).collect();
        let mut named: Vec<&str> = EXPERIMENTS
            .iter()
            .copied()
            .filter(|e| !["all", "fig1"].contains(e))
            .collect();
        tables.sort_unstable();
        named.sort_unstable();
        assert_eq!(
            named, tables,
            "--experiment names and the table model disagree"
        );
        for name in EXPERIMENTS.iter().filter(|e| **e != "fig1") {
            assert!(!render_text(name, &a).is_empty(), "{name}");
        }
    }
}
