//! Argument parsing for the `reproduce` binary.
//!
//! Lives in the library so the parsing rules are unit-testable: unknown
//! experiments and malformed numbers must be rejected up front with a clear
//! message (and a nonzero exit in the binary), never silently defaulted —
//! a bad flag would otherwise waste a five-workload measurement run.
//!
//! Four commands: the default measurement run, `reproduce diff A B`
//! which compares two exported run directories for CI gating,
//! `reproduce bench-check BASELINE CANDIDATE` which gates on host
//! throughput regressions, and `reproduce resume DIR` which completes an
//! interrupted run from its checkpoints.

use std::path::PathBuf;

use vax780::FaultClass;

use crate::jobspec::MAX_GRID;
use crate::options::{parse_f64, parse_shard_timeout, parse_u64, CommonOpts};
use crate::progress::Verbosity;

/// Valid `--experiment` values.
pub const EXPERIMENTS: &[&str] = &[
    "all", "fig1", "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
    "table9", "events",
];

/// Output format for the reproduction results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable tables on stdout.
    #[default]
    Text,
    /// Machine-readable JSON (tables, measurement, time series, manifest).
    Json,
}

/// Parsed command line for `reproduce`.
#[derive(Debug, Clone)]
pub struct Options {
    /// Instructions measured per workload.
    pub instructions: u64,
    /// Root RNG seed; each `(workload, shard)` cell runs with a
    /// SplitMix64-split stream of it (`vax_workload::rte::shard_seed`).
    pub seed: u64,
    /// Worker threads for the sharded execution engine (≥ 1). Changes
    /// wall-clock time only, never results: exports are byte-identical at
    /// any job count.
    pub jobs: usize,
    /// Replica shards per workload (≥ 1). Changes the experiment: each
    /// shard measures `instructions` with its own seed stream and the
    /// shards merge into the workload's measurement.
    pub shards: u64,
    /// Which table/figure to emit (one of [`EXPERIMENTS`]).
    pub experiment: String,
    /// Also print the five constituent per-workload CPIs.
    pub per_workload: bool,
    /// Output format.
    pub format: Format,
    /// Directory for machine-readable artifacts (manifest, tables, time
    /// series, validation report). Created if absent.
    pub out: Option<PathBuf>,
    /// Interval-sampler period in cycles for the telemetry time series.
    pub interval_cycles: u64,
    /// Emit the µPC attribution profile (hot-routine report, folded stacks,
    /// profile.json).
    pub profile: bool,
    /// Rows in the hot-routine report.
    pub top: usize,
    /// Flight-recorder capacity in instructions; 0 disables it.
    pub flight_recorder: usize,
    /// Stderr narration level (`--quiet` / `--verbose`).
    pub verbosity: Verbosity,
    /// Directory for the host self-metering report `BENCH_<unix-ts>.json`.
    pub bench_out: Option<PathBuf>,
    /// Fault-injection seed: when set, every `(workload, shard)` cell runs
    /// under a deterministic [`vax780::FaultPlan`] split from this seed.
    pub fault_seed: Option<u64>,
    /// Fault classes to inject (canonical order; all of them unless
    /// `--fault-classes` narrows the set). Empty iff `fault_seed` is unset.
    pub fault_classes: Vec<FaultClass>,
    /// Extra attempts for a shard whose run panics or times out. Each
    /// attempt builds a fresh system from the same shard seed, so a retry
    /// that succeeds is byte-identical to a first-attempt success.
    pub retries: u32,
    /// Per-attempt wall-clock budget in seconds for one shard; exceeded ⇒
    /// the shard's watchdog trips and the attempt counts as failed.
    pub shard_timeout_secs: Option<f64>,
    /// Exit nonzero when any cell was quarantined (partial results are
    /// still exported either way).
    pub strict: bool,
    /// Test hook: make cell `(workload, shard)` panic on its first N
    /// attempts (`--inject-panic W:S:N`), exercising the supervisor.
    pub inject_panic: Option<(u64, u64, u32)>,
    /// Write a Chrome Trace Event file of the whole run here
    /// (`--trace-out FILE`; opens in Perfetto). Enables the tracer.
    pub trace_out: Option<PathBuf>,
    /// Emit a machine-readable progress heartbeat on stderr every N ms
    /// (`--progress` = 1000, `--progress=MS`). Enables the tracer.
    pub progress_ms: Option<u64>,
    /// Cooperative cancel token, checked at cell boundaries. The CLI
    /// leaves it inert (no flag sets it); the serve daemon installs a live
    /// token so `POST /jobs/:id/cancel` and `deadline_secs` can stop the
    /// grid between cells.
    pub cancel: crate::cancel::CancelToken,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            instructions: crate::DEFAULT_INSTRUCTIONS,
            seed: crate::DEFAULT_SEED,
            jobs: 1,
            shards: 1,
            experiment: "all".to_string(),
            per_workload: false,
            format: Format::Text,
            out: None,
            interval_cycles: 500_000,
            profile: false,
            top: 20,
            flight_recorder: 0,
            verbosity: Verbosity::Normal,
            bench_out: None,
            fault_seed: None,
            fault_classes: Vec::new(),
            retries: 0,
            shard_timeout_secs: None,
            strict: false,
            inject_panic: None,
            trace_out: None,
            progress_ms: None,
            cancel: crate::cancel::CancelToken::default(),
        }
    }
}

/// Options for `reproduce resume DIR`. The experiment definition comes from
/// the checkpoint header in `DIR/checkpoints/run.json`; only runtime knobs
/// (parallelism, supervision, narration) can be chosen at resume time.
/// [`crate::resume::options_from_header`] merges the two into the
/// interrupted run's [`Options`], which the engine runs as
/// `JobRequest::Resume`.
#[derive(Debug, Clone)]
pub struct ResumeOptions {
    /// The interrupted run's output directory (with its `checkpoints/`).
    pub dir: PathBuf,
    /// Worker threads for the remaining cells.
    pub jobs: usize,
    /// Retry budget for the remaining cells.
    pub retries: u32,
    /// Watchdog budget per attempt, in seconds.
    pub shard_timeout_secs: Option<f64>,
    /// Exit nonzero if any cell is quarantined.
    pub strict: bool,
    /// Stderr narration level.
    pub verbosity: Verbosity,
    /// Chrome-trace output file for the resumed portion of the run.
    pub trace_out: Option<PathBuf>,
    /// Progress-heartbeat period in ms.
    pub progress_ms: Option<u64>,
}

/// Options for `reproduce serve`: the long-lived characterization daemon.
/// Engine-level knobs (`--jobs`, `--retries`) set the defaults a submitted
/// `JobSpec` inherits when it leaves them unspecified.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// `HOST:PORT` to bind (default `127.0.0.1:4780`).
    pub addr: String,
    /// Root directory for per-job run directories (default `serve-runs`).
    pub root: PathBuf,
    /// Default worker threads per job.
    pub jobs: usize,
    /// Default retry budget per cell.
    pub retries: u32,
    /// Concurrent-connection cap: the daemon sheds load with `503` +
    /// `Retry-After` beyond this many in-flight connections, so a flood
    /// cannot exhaust file descriptors or threads.
    pub max_connections: usize,
    /// Stderr narration level.
    pub verbosity: Verbosity,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:4780".to_string(),
            root: PathBuf::from("serve-runs"),
            jobs: 1,
            retries: 0,
            max_connections: 64,
            verbosity: Verbosity::Normal,
        }
    }
}

/// Options for `reproduce diff`.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Baseline run directory (usually the committed golden run).
    pub baseline: PathBuf,
    /// Candidate run directory (usually freshly generated).
    pub candidate: PathBuf,
    /// Absolute numeric slack (default 0 — exact).
    pub abs_tol: f64,
    /// Relative numeric slack scaled by magnitude (default 0 — exact).
    pub rel_tol: f64,
}

/// Options shared by `reproduce characterize` and `reproduce refute`
/// (refute adds the model/fixture knobs; characterize ignores them).
#[derive(Debug, Clone)]
pub struct CharacterizeOptions {
    /// Opcode filter (mnemonics, upper-cased); empty = the full table.
    pub opcodes: Vec<String>,
    /// Addressing-mode filter (mode keys); empty = all 16 modes.
    pub modes: Vec<String>,
    /// Probe copies per loop iteration.
    pub reps: u32,
    /// Measured loop iterations per cell.
    pub iters: u64,
    /// Warmup instructions per cell.
    pub warmup: u64,
    /// Worker threads for the probe grid.
    pub jobs: usize,
    /// Retry budget per cell.
    pub retries: u32,
    /// Directory for `costs.json` / `costs.md` (and `runtime.json` when
    /// traced). Stdout when absent (characterize only).
    pub out: Option<PathBuf>,
    /// Print the opcode × mode grid with skip reasons and exit — no
    /// simulation (characterize only).
    pub list: bool,
    /// Stderr narration level.
    pub verbosity: Verbosity,
    /// Chrome-trace output file.
    pub trace_out: Option<PathBuf>,
    /// Progress-heartbeat period in ms.
    pub progress_ms: Option<u64>,
    /// Cooperative cancel token (see [`Options::cancel`]).
    pub cancel: crate::cancel::CancelToken,
    /// Cost table to refute (`refute --model costs.json`).
    pub model: Option<PathBuf>,
    /// Absolute model tolerance, cycles per instruction.
    pub abs_tol: f64,
    /// Relative model tolerance.
    pub rel_tol: f64,
    /// Directory for minimized refutation fixtures (refute only).
    pub fixtures: Option<PathBuf>,
    /// Minimize and record at most this many refutations (the rest are
    /// still counted and reported).
    pub max_refutations: usize,
}

impl Default for CharacterizeOptions {
    fn default() -> CharacterizeOptions {
        CharacterizeOptions {
            opcodes: Vec::new(),
            modes: Vec::new(),
            reps: 8,
            iters: 64,
            warmup: 2000,
            jobs: 1,
            retries: 0,
            out: None,
            list: false,
            verbosity: Verbosity::Normal,
            trace_out: None,
            progress_ms: None,
            cancel: crate::cancel::CancelToken::default(),
            model: None,
            abs_tol: 0.5,
            rel_tol: 0.01,
            fixtures: None,
            max_refutations: 8,
        }
    }
}

/// A parsed invocation: the measurement run, the run-directory diff, the
/// host-throughput gate, the checkpoint resume, the trace validator, or
/// the characterization observatory (cost tables / counter refutation).
#[derive(Debug, Clone)]
pub enum Command {
    /// The default five-workload measurement run.
    Run(Options),
    /// `reproduce diff BASELINE CANDIDATE`.
    Diff(DiffOptions),
    /// `reproduce bench-check BASELINE CANDIDATE`.
    BenchCheck(crate::benchcheck::BenchCheckOptions),
    /// `reproduce resume DIR`.
    Resume(ResumeOptions),
    /// `reproduce trace-check FILE`: validate a Chrome-trace file's
    /// structural invariants.
    TraceCheck(PathBuf),
    /// `reproduce characterize`: per-opcode × addressing-mode cost table.
    Characterize(CharacterizeOptions),
    /// `reproduce refute`: adversarial counter cross-checks over the same
    /// probe grid.
    Refute(CharacterizeOptions),
    /// `reproduce serve`: HTTP job daemon over the same engine.
    Serve(ServeOptions),
    /// `--help` or `-h` anywhere: print the usage and exit 0.
    Help,
}

/// One-line usage string.
pub fn usage() -> String {
    "usage: reproduce [--instructions N] [--seed S] [--jobs N] [--shards K] \
     [--experiment fig1|table1..table9|events|all] [--per-workload] \
     [--format text|json] [--out DIR] [--interval-cycles N] \
     [--profile] [--top N] [--flight-recorder K] [--quiet|--verbose] \
     [--bench-out DIR] [--fault-seed S] [--fault-classes C1,C2,..] \
     [--retries N] [--shard-timeout SECS] [--strict] [--inject-panic W:S:N] \
     [--trace-out FILE] [--progress[=MS]]\n\
     \x20      reproduce diff BASELINE_DIR CANDIDATE_DIR [--abs-tol X] [--rel-tol X]\n\
     \x20      reproduce bench-check BASELINE_JSON CANDIDATE_JSON_OR_DIR \
     [--max-regression FRAC]\n\
     \x20      reproduce resume DIR [--jobs N] [--retries N] [--shard-timeout SECS] \
     [--strict] [--quiet|--verbose] [--trace-out FILE] [--progress[=MS]]\n\
     \x20      reproduce trace-check TRACE_JSON\n\
     \x20      reproduce characterize [--opcodes M1,M2,..] [--modes K1,K2,..] \
     [--reps N] [--iters N] [--warmup N] [--jobs N] [--retries N] [--out DIR] \
     [--list] [--quiet|--verbose] [--trace-out FILE] [--progress[=MS]]\n\
     \x20      reproduce refute [same as characterize, minus --list] \
     [--model COSTS_JSON] [--abs-tol X] [--rel-tol X] [--fixtures DIR] \
     [--max-refutations N]\n\
     \x20      reproduce serve [--addr HOST:PORT] [--root DIR] [--jobs N] \
     [--retries N] [--max-connections N] [--quiet|--verbose]"
        .to_string()
}

/// Parse the full argument list (without the program name), dispatching on
/// the optional `diff` subcommand.
///
/// # Errors
/// Returns a message describing the first invalid flag or value; the caller
/// should print it and the [`usage`], and exit nonzero.
pub fn parse_command(args: &[String]) -> Result<Command, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    match args.first().map(String::as_str) {
        Some("diff") => parse_diff_args(&args[1..]).map(Command::Diff),
        Some("bench-check") => parse_bench_check_args(&args[1..]).map(Command::BenchCheck),
        Some("resume") => parse_resume_args(&args[1..]).map(Command::Resume),
        Some("trace-check") => parse_trace_check_args(&args[1..]).map(Command::TraceCheck),
        Some("characterize") => {
            parse_characterize_args(&args[1..], false).map(Command::Characterize)
        }
        Some("refute") => parse_characterize_args(&args[1..], true).map(Command::Refute),
        Some("serve") => parse_serve_args(&args[1..]).map(Command::Serve),
        _ => parse_args(args).map(Command::Run),
    }
}

/// Parse `reproduce characterize` / `reproduce refute` arguments (after
/// the subcommand word). `refute` unlocks the model/fixture flags and
/// locks `--list`.
pub fn parse_characterize_args(
    args: &[String],
    refute: bool,
) -> Result<CharacterizeOptions, String> {
    let cmd = if refute { "refute" } else { "characterize" };
    let mut opts = CharacterizeOptions::default();
    let mut common = CommonOpts::default();
    let mut i = 0;
    while i < args.len() {
        if common.try_parse(args, &mut i)? {
            continue;
        }
        match args[i].as_str() {
            "--opcodes" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| "--opcodes requires a comma-separated list".to_string())?;
                for mn in raw.split(',').filter(|s| !s.is_empty()) {
                    if vax_arch::Opcode::from_mnemonic(mn).is_none() {
                        return Err(format!("unknown opcode '{mn}' in --opcodes"));
                    }
                    opts.opcodes.push(mn.to_uppercase());
                }
                if opts.opcodes.is_empty() {
                    return Err("--opcodes requires at least one mnemonic".to_string());
                }
            }
            "--modes" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| "--modes requires a comma-separated list".to_string())?;
                for key in raw.split(',').filter(|s| !s.is_empty()) {
                    if vax_asm::probe::mode_from_key(key).is_none() {
                        return Err(format!(
                            "unknown addressing mode '{key}' in --modes (e.g. register, \
                             byte_disp, pc_relative_deferred)"
                        ));
                    }
                    opts.modes.push(key.to_string());
                }
                if opts.modes.is_empty() {
                    return Err("--modes requires at least one mode key".to_string());
                }
            }
            "--reps" => {
                i += 1;
                let n = parse_u64("--reps", args.get(i))?;
                if n == 0 || n > u64::from(vax_asm::probe::MAX_REPS) {
                    return Err(format!(
                        "--reps must be between 1 and {}",
                        vax_asm::probe::MAX_REPS
                    ));
                }
                opts.reps = n as u32;
            }
            "--iters" => {
                i += 1;
                opts.iters = parse_u64("--iters", args.get(i))?;
                if opts.iters == 0 {
                    return Err("--iters must be at least 1".to_string());
                }
            }
            "--warmup" => {
                i += 1;
                opts.warmup = parse_u64("--warmup", args.get(i))?;
            }
            "--out" => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or_else(|| "--out requires a directory".to_string())?;
                opts.out = Some(PathBuf::from(dir));
            }
            "--list" if !refute => opts.list = true,
            "--model" if refute => {
                i += 1;
                let file = args
                    .get(i)
                    .ok_or_else(|| "--model requires a costs.json path".to_string())?;
                opts.model = Some(PathBuf::from(file));
            }
            "--abs-tol" if refute => {
                i += 1;
                opts.abs_tol = parse_f64("--abs-tol", args.get(i))?;
            }
            "--rel-tol" if refute => {
                i += 1;
                opts.rel_tol = parse_f64("--rel-tol", args.get(i))?;
            }
            "--fixtures" if refute => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or_else(|| "--fixtures requires a directory".to_string())?;
                opts.fixtures = Some(PathBuf::from(dir));
            }
            "--max-refutations" if refute => {
                i += 1;
                opts.max_refutations = parse_u64("--max-refutations", args.get(i))? as usize;
            }
            other => return Err(format!("unknown argument '{other}' for {cmd}")),
        }
        i += 1;
    }
    opts.verbosity = common.verbosity()?;
    if let Some(jobs) = common.jobs {
        opts.jobs = jobs;
    }
    if let Some(retries) = common.retries {
        opts.retries = retries;
    }
    opts.trace_out = common.trace_out;
    opts.progress_ms = common.progress_ms;
    Ok(opts)
}

/// Parse `reproduce serve` arguments (after the subcommand word).
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut common = CommonOpts::default();
    let mut i = 0;
    while i < args.len() {
        if common.try_parse(args, &mut i)? {
            continue;
        }
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                let addr = args
                    .get(i)
                    .ok_or_else(|| "--addr requires HOST:PORT".to_string())?;
                if !addr.contains(':') {
                    return Err(format!(
                        "invalid value for --addr: '{addr}' (expected HOST:PORT)"
                    ));
                }
                opts.addr = addr.clone();
            }
            "--root" => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or_else(|| "--root requires a directory".to_string())?;
                opts.root = PathBuf::from(dir);
            }
            "--max-connections" => {
                i += 1;
                let n = parse_u64("--max-connections", args.get(i))?;
                if n == 0 {
                    return Err(
                        "invalid value for --max-connections: '0' (expected at least 1)"
                            .to_string(),
                    );
                }
                opts.max_connections = n as usize;
            }
            other => return Err(format!("unknown argument '{other}' for serve")),
        }
        i += 1;
    }
    if common.trace_out.is_some() || common.progress_ms.is_some() {
        return Err(
            "serve manages tracing per job; --trace-out/--progress are not accepted".to_string(),
        );
    }
    opts.verbosity = common.verbosity()?;
    if let Some(jobs) = common.jobs {
        opts.jobs = jobs;
    }
    if let Some(retries) = common.retries {
        opts.retries = retries;
    }
    Ok(opts)
}

/// Parse `reproduce trace-check` arguments: exactly one trace file.
pub fn parse_trace_check_args(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [file] if !file.starts_with("--") => Ok(PathBuf::from(file)),
        [] => Err("trace-check requires a trace file".to_string()),
        _ => Err("trace-check takes exactly one trace file".to_string()),
    }
}

/// Parse the `--inject-panic W:S:N` test hook.
fn parse_inject_panic(value: Option<&String>) -> Result<(u64, u64, u32), String> {
    let raw = value.ok_or_else(|| "--inject-panic requires a value".to_string())?;
    let parts: Vec<&str> = raw.split(':').collect();
    let parsed: Option<(u64, u64, u32)> = match parts.as_slice() {
        [w, s, n] => w
            .parse()
            .ok()
            .zip(s.parse().ok())
            .zip(n.parse().ok())
            .map(|((w, s), n)| (w, s, n)),
        _ => None,
    };
    parsed.ok_or_else(|| {
        format!("invalid value for --inject-panic: '{raw}' (expected WORKLOAD:SHARD:ATTEMPTS)")
    })
}

/// Parse `reproduce resume` arguments (after the subcommand word).
pub fn parse_resume_args(args: &[String]) -> Result<ResumeOptions, String> {
    let mut dir: Option<PathBuf> = None;
    let (mut shard_timeout_secs, mut strict) = (None, false);
    let mut common = CommonOpts::default();
    let mut i = 0;
    while i < args.len() {
        if common.try_parse(args, &mut i)? {
            continue;
        }
        match args[i].as_str() {
            "--shard-timeout" => {
                i += 1;
                shard_timeout_secs = Some(parse_shard_timeout(args.get(i))?);
            }
            "--strict" => strict = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument '{flag}' for resume"))
            }
            path => {
                if dir.replace(PathBuf::from(path)).is_some() {
                    return Err(format!(
                        "resume takes exactly one run directory (got extra '{path}')"
                    ));
                }
            }
        }
        i += 1;
    }
    Ok(ResumeOptions {
        verbosity: common.verbosity()?,
        dir: dir.ok_or_else(|| "resume requires a run directory".to_string())?,
        jobs: common.jobs.unwrap_or(1),
        retries: common.retries.unwrap_or(0),
        shard_timeout_secs,
        strict,
        trace_out: common.trace_out,
        progress_ms: common.progress_ms,
    })
}

/// Parse `reproduce bench-check` arguments (after the subcommand word).
pub fn parse_bench_check_args(
    args: &[String],
) -> Result<crate::benchcheck::BenchCheckOptions, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut max_regression = 0.30;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regression" => {
                i += 1;
                max_regression = parse_f64("--max-regression", args.get(i))?;
                if max_regression >= 1.0 {
                    return Err(format!(
                        "invalid value for --max-regression: '{max_regression}' \
                         (expected a fraction below 1.0)"
                    ));
                }
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument '{flag}' for bench-check"))
            }
            path => paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    if paths.len() != 2 {
        return Err(format!(
            "bench-check takes a baseline report and a candidate report or \
             directory (got {} paths)",
            paths.len()
        ));
    }
    let candidate = paths.pop().unwrap();
    let baseline = paths.pop().unwrap();
    Ok(crate::benchcheck::BenchCheckOptions {
        baseline,
        candidate,
        max_regression,
    })
}

/// Parse `reproduce diff` arguments (after the subcommand word).
pub fn parse_diff_args(args: &[String]) -> Result<DiffOptions, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut abs_tol = 0.0;
    let mut rel_tol = 0.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--abs-tol" => {
                i += 1;
                abs_tol = parse_f64("--abs-tol", args.get(i))?;
            }
            "--rel-tol" => {
                i += 1;
                rel_tol = parse_f64("--rel-tol", args.get(i))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument '{flag}' for diff"))
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
        i += 1;
    }
    if dirs.len() != 2 {
        return Err(format!(
            "diff takes exactly two run directories (got {})",
            dirs.len()
        ));
    }
    let candidate = dirs.pop().unwrap();
    let baseline = dirs.pop().unwrap();
    Ok(DiffOptions {
        baseline,
        candidate,
        abs_tol,
        rel_tol,
    })
}

/// Parse run-mode arguments (without the program name).
///
/// # Errors
/// Returns a message describing the first invalid flag or value; the caller
/// should print it and exit nonzero.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut common = CommonOpts::default();
    let mut i = 0;
    while i < args.len() {
        if common.try_parse(args, &mut i)? {
            continue;
        }
        match args[i].as_str() {
            "--instructions" => {
                i += 1;
                opts.instructions = parse_u64("--instructions", args.get(i))?;
                if opts.instructions == 0 {
                    return Err("--instructions must be at least 1".to_string());
                }
            }
            "--seed" => {
                i += 1;
                opts.seed = parse_u64("--seed", args.get(i))?;
            }
            "--shards" => {
                i += 1;
                opts.shards = parse_u64("--shards", args.get(i))?;
                if opts.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                if opts.shards > MAX_GRID {
                    return Err(format!("--shards must be at most {MAX_GRID}"));
                }
            }
            "--interval-cycles" => {
                i += 1;
                opts.interval_cycles = parse_u64("--interval-cycles", args.get(i))?;
                if opts.interval_cycles == 0 {
                    return Err("--interval-cycles must be at least 1".to_string());
                }
            }
            "--experiment" => {
                i += 1;
                let e = args
                    .get(i)
                    .ok_or_else(|| "--experiment requires a value".to_string())?;
                if !EXPERIMENTS.contains(&e.as_str()) {
                    return Err(format!(
                        "unknown experiment '{e}' (expected one of: {})",
                        EXPERIMENTS.join(", ")
                    ));
                }
                opts.experiment = e.clone();
            }
            "--format" => {
                i += 1;
                let f = args
                    .get(i)
                    .ok_or_else(|| "--format requires a value".to_string())?;
                opts.format = match f.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format '{other}' (expected text|json)")),
                };
            }
            "--out" => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or_else(|| "--out requires a directory".to_string())?;
                opts.out = Some(PathBuf::from(dir));
            }
            "--bench-out" => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or_else(|| "--bench-out requires a directory".to_string())?;
                opts.bench_out = Some(PathBuf::from(dir));
            }
            "--top" => {
                i += 1;
                let n = parse_u64("--top", args.get(i))?;
                if n == 0 {
                    return Err("--top must be at least 1".to_string());
                }
                opts.top = n as usize;
            }
            "--flight-recorder" => {
                i += 1;
                opts.flight_recorder = parse_u64("--flight-recorder", args.get(i))? as usize;
            }
            "--fault-seed" => {
                i += 1;
                opts.fault_seed = Some(parse_u64("--fault-seed", args.get(i))?);
            }
            "--fault-classes" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| "--fault-classes requires a value".to_string())?;
                opts.fault_classes = vax780::parse_classes(raw)?;
            }
            "--shard-timeout" => {
                i += 1;
                opts.shard_timeout_secs = Some(parse_shard_timeout(args.get(i))?);
            }
            "--inject-panic" => {
                i += 1;
                opts.inject_panic = Some(parse_inject_panic(args.get(i))?);
            }
            "--strict" => opts.strict = true,
            "--per-workload" => opts.per_workload = true,
            "--profile" => opts.profile = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    match opts.fault_seed {
        // Classes without a seed would silently inject nothing.
        None if !opts.fault_classes.is_empty() => {
            return Err("--fault-classes requires --fault-seed".to_string());
        }
        Some(_) if opts.fault_classes.is_empty() => {
            opts.fault_classes = FaultClass::ALL.to_vec();
        }
        _ => {}
    }
    opts.verbosity = common.verbosity()?;
    if let Some(jobs) = common.jobs {
        opts.jobs = jobs;
    }
    if let Some(retries) = common.retries {
        opts.retries = retries;
    }
    opts.trace_out = common.trace_out;
    opts.progress_ms = common.progress_ms;
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    fn parse_cmd(args: &[&str]) -> Result<Command, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_command(&v)
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.instructions, crate::DEFAULT_INSTRUCTIONS);
        assert_eq!(o.seed, crate::DEFAULT_SEED);
        assert_eq!(o.jobs, 1);
        assert_eq!(o.shards, 1);
        assert_eq!(o.experiment, "all");
        assert_eq!(o.format, Format::Text);
        assert!(o.out.is_none());
        assert!(!o.profile);
        assert_eq!(o.top, 20);
        assert_eq!(o.flight_recorder, 0);
        assert_eq!(o.verbosity, Verbosity::Normal);
        assert!(o.bench_out.is_none());
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&[
            "--instructions",
            "5000",
            "--seed",
            "7",
            "--jobs",
            "4",
            "--shards",
            "2",
            "--experiment",
            "table8",
            "--per-workload",
            "--format",
            "json",
            "--out",
            "/tmp/x",
            "--interval-cycles",
            "1000",
            "--profile",
            "--top",
            "5",
            "--flight-recorder",
            "64",
            "--verbose",
            "--bench-out",
            "/tmp/bench",
        ])
        .unwrap();
        assert_eq!(o.instructions, 5000);
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.shards, 2);
        assert_eq!(o.experiment, "table8");
        assert!(o.per_workload);
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.out.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(o.interval_cycles, 1000);
        assert!(o.profile);
        assert_eq!(o.top, 5);
        assert_eq!(o.flight_recorder, 64);
        assert_eq!(o.verbosity, Verbosity::Verbose);
        assert_eq!(
            o.bench_out.as_deref(),
            Some(std::path::Path::new("/tmp/bench"))
        );
    }

    #[test]
    fn rejects_unknown_experiment() {
        let err = parse(&["--experiment", "table99"]).unwrap_err();
        assert!(err.contains("unknown experiment 'table99'"), "{err}");
        assert!(err.contains("table9"), "message lists valid values: {err}");
    }

    #[test]
    fn rejects_malformed_numbers() {
        for flag in ["--instructions", "--seed", "--interval-cycles"] {
            let err = parse(&[flag, "12abc"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("12abc"), "{err}");
            let err = parse(&[flag]).unwrap_err();
            assert!(err.contains("requires a value"), "{err}");
        }
        assert!(
            parse(&["--instructions", "-5"]).is_err(),
            "negative rejected"
        );
    }

    #[test]
    fn rejects_zero_where_meaningless() {
        assert!(parse(&["--instructions", "0"]).is_err());
        assert!(parse(&["--interval-cycles", "0"]).is_err());
        assert!(parse(&["--top", "0"]).is_err());
        let err = parse(&["--jobs", "0"]).unwrap_err();
        assert!(err.contains("--jobs must be at least 1"), "{err}");
        let err = parse(&["--shards", "0"]).unwrap_err();
        assert!(err.contains("--shards must be at least 1"), "{err}");
        assert!(parse(&["--seed", "0"]).is_ok(), "seed zero is valid");
        assert!(
            parse(&["--flight-recorder", "0"]).is_ok(),
            "zero capacity means disabled"
        );
    }

    #[test]
    fn integers_above_the_json_range_are_rejected() {
        // manifest.json would record such a seed as a float, and no
        // checkpoint header could carry it to a resume.
        for seed in ["18446744073709551615", "9223372036854775808"] {
            let err = parse(&["--seed", seed]).unwrap_err();
            assert!(err.contains("--seed") && err.contains(seed), "{err}");
        }
        let o = parse(&["--seed", "9223372036854775807"]).unwrap();
        assert_eq!(o.seed, i64::MAX as u64);
    }

    #[test]
    fn shards_are_bounded_by_the_spec_grid() {
        let err = parse(&["--shards", "4097"]).unwrap_err();
        assert!(err.contains("--shards must be at most 4096"), "{err}");
        assert_eq!(parse(&["--shards", "4096"]).unwrap().shards, MAX_GRID);
    }

    #[test]
    fn retries_are_bounded_by_the_spec_limit() {
        // 2^32 must be refused, not cast to 0 retries.
        for n in ["4294967296", "1001"] {
            let err = parse(&["--retries", n]).unwrap_err();
            assert!(err.contains("--retries must be at most 1000"), "{err}");
            let err = parse_cmd(&["resume", "d", "--retries", n]).unwrap_err();
            assert!(err.contains("--retries must be at most 1000"), "{err}");
        }
        assert_eq!(parse(&["--retries", "1000"]).unwrap().retries, 1000);
    }

    #[test]
    fn rejects_unknown_flag_and_format() {
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(parse(&["--format", "xml"]).unwrap_err().contains("xml"));
    }

    #[test]
    fn quiet_and_verbose_conflict() {
        assert!(parse(&["--quiet", "--verbose"])
            .unwrap_err()
            .contains("mutually exclusive"));
        assert_eq!(parse(&["--quiet"]).unwrap().verbosity, Verbosity::Quiet);
    }

    #[test]
    fn fault_flags_parse() {
        let o = parse(&["--fault-seed", "7"]).unwrap();
        assert_eq!(o.fault_seed, Some(7));
        assert_eq!(o.fault_classes, FaultClass::ALL.to_vec(), "defaults to all");

        let o = parse(&["--fault-seed", "7", "--fault-classes", "parity,smc"]).unwrap();
        assert_eq!(
            o.fault_classes,
            vec![FaultClass::Parity, FaultClass::Smc],
            "canonical order, narrowed set"
        );

        let err = parse(&["--fault-classes", "parity"]).unwrap_err();
        assert!(err.contains("requires --fault-seed"), "{err}");
        assert!(parse(&["--fault-seed", "7", "--fault-classes", "bogus"]).is_err());

        let o = parse(&[]).unwrap();
        assert!(o.fault_seed.is_none());
        assert!(o.fault_classes.is_empty());
    }

    #[test]
    fn supervision_flags_parse() {
        let o = parse(&[
            "--retries",
            "2",
            "--shard-timeout",
            "1.5",
            "--strict",
            "--inject-panic",
            "1:0:2",
        ])
        .unwrap();
        assert_eq!(o.retries, 2);
        assert_eq!(o.shard_timeout_secs, Some(1.5));
        assert!(o.strict);
        assert_eq!(o.inject_panic, Some((1, 0, 2)));

        assert!(parse(&["--shard-timeout", "0"]).is_err());
        assert!(parse(&["--shard-timeout", "-1"]).is_err());
        for bad in ["1:2", "1:2:3:4", "a:0:1", ""] {
            assert!(parse(&["--inject-panic", bad]).is_err(), "{bad}");
        }
    }

    #[test]
    fn trace_flags_parse() {
        let o = parse(&["--trace-out", "/tmp/trace.json", "--progress"]).unwrap();
        assert_eq!(
            o.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/trace.json"))
        );
        assert_eq!(o.progress_ms, Some(1000), "bare --progress defaults to 1s");

        let o = parse(&["--progress=250"]).unwrap();
        assert_eq!(o.progress_ms, Some(250));
        assert!(o.trace_out.is_none());

        let o = parse(&[]).unwrap();
        assert!(o.trace_out.is_none() && o.progress_ms.is_none());

        assert!(parse(&["--trace-out"]).unwrap_err().contains("file path"));
        assert!(parse(&["--progress=0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["--progress=abc"]).unwrap_err().contains("abc"));
    }

    #[test]
    fn trace_check_subcommand_parses() {
        match parse_cmd(&["trace-check", "trace.json"]).unwrap() {
            Command::TraceCheck(p) => {
                assert_eq!(p, std::path::PathBuf::from("trace.json"));
            }
            _ => panic!("expected trace-check"),
        }
        assert!(parse_cmd(&["trace-check"])
            .unwrap_err()
            .contains("requires a trace file"));
        assert!(parse_cmd(&["trace-check", "a", "b"])
            .unwrap_err()
            .contains("exactly one"));
    }

    #[test]
    fn resume_accepts_trace_flags() {
        match parse_cmd(&[
            "resume",
            "/tmp/run",
            "--trace-out",
            "t.json",
            "--progress=500",
        ])
        .unwrap()
        {
            Command::Resume(r) => {
                assert_eq!(r.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
                assert_eq!(r.progress_ms, Some(500));
            }
            _ => panic!("expected resume"),
        }
    }

    #[test]
    fn resume_subcommand_parses() {
        let cmd = parse_cmd(&[
            "resume",
            "/tmp/run",
            "--jobs",
            "4",
            "--retries",
            "1",
            "--shard-timeout",
            "30",
            "--strict",
            "--quiet",
        ])
        .unwrap();
        match cmd {
            Command::Resume(r) => {
                assert_eq!(r.dir, std::path::PathBuf::from("/tmp/run"));
                assert_eq!(r.jobs, 4);
                assert_eq!(r.retries, 1);
                assert_eq!(r.shard_timeout_secs, Some(30.0));
                assert!(r.strict);
                assert_eq!(r.verbosity, Verbosity::Quiet);
            }
            _ => panic!("expected resume"),
        }

        assert!(parse_cmd(&["resume"])
            .unwrap_err()
            .contains("requires a run directory"));
        assert!(parse_cmd(&["resume", "a", "b"])
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse_cmd(&["resume", "a", "--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
    }

    #[test]
    fn diff_subcommand_parses() {
        let cmd = parse_cmd(&["diff", "a", "b", "--rel-tol", "0.01"]).unwrap();
        match cmd {
            Command::Diff(d) => {
                assert_eq!(d.baseline, std::path::PathBuf::from("a"));
                assert_eq!(d.candidate, std::path::PathBuf::from("b"));
                assert_eq!(d.abs_tol, 0.0);
                assert_eq!(d.rel_tol, 0.01);
            }
            _ => panic!("expected diff"),
        }
        match parse_cmd(&["--profile"]).unwrap() {
            Command::Run(o) => assert!(o.profile),
            _ => panic!("expected run"),
        }
    }

    #[test]
    fn bench_check_subcommand_parses() {
        let cmd =
            parse_cmd(&["bench-check", "base.json", "out", "--max-regression", "0.5"]).unwrap();
        match cmd {
            Command::BenchCheck(o) => {
                assert_eq!(o.baseline, std::path::PathBuf::from("base.json"));
                assert_eq!(o.candidate, std::path::PathBuf::from("out"));
                assert_eq!(o.max_regression, 0.5);
            }
            _ => panic!("expected bench-check"),
        }
        match parse_cmd(&["bench-check", "a", "b"]).unwrap() {
            Command::BenchCheck(o) => assert_eq!(o.max_regression, 0.30),
            _ => panic!("expected bench-check"),
        }
    }

    #[test]
    fn bench_check_rejects_bad_shapes() {
        assert!(parse_cmd(&["bench-check", "a"])
            .unwrap_err()
            .contains("baseline report"));
        assert!(parse_cmd(&["bench-check", "a", "b", "c"])
            .unwrap_err()
            .contains("got 3"));
        assert!(parse_cmd(&["bench-check", "a", "b", "--max-regression", "1.5"]).is_err());
        assert!(parse_cmd(&["bench-check", "a", "b", "--max-regression", "-1"]).is_err());
        assert!(parse_cmd(&["bench-check", "a", "b", "--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
    }

    #[test]
    fn characterize_subcommand_parses() {
        let cmd = parse_cmd(&[
            "characterize",
            "--opcodes",
            "movl,ADDL2",
            "--modes",
            "register,byte_disp",
            "--reps",
            "4",
            "--iters",
            "32",
            "--warmup",
            "500",
            "--jobs",
            "4",
            "--out",
            "/tmp/ch",
            "--list",
        ])
        .unwrap();
        match cmd {
            Command::Characterize(o) => {
                assert_eq!(o.opcodes, vec!["MOVL", "ADDL2"]);
                assert_eq!(o.modes, vec!["register", "byte_disp"]);
                assert_eq!(o.reps, 4);
                assert_eq!(o.iters, 32);
                assert_eq!(o.warmup, 500);
                assert_eq!(o.jobs, 4);
                assert_eq!(o.out.as_deref(), Some(std::path::Path::new("/tmp/ch")));
                assert!(o.list);
            }
            _ => panic!("expected characterize"),
        }

        // Defaults.
        match parse_cmd(&["characterize"]).unwrap() {
            Command::Characterize(o) => {
                assert!(o.opcodes.is_empty() && o.modes.is_empty());
                assert_eq!((o.reps, o.iters, o.warmup), (8, 64, 2000));
                assert!(!o.list);
            }
            _ => panic!("expected characterize"),
        }
    }

    #[test]
    fn characterize_rejects_bad_values() {
        assert!(parse_cmd(&["characterize", "--opcodes", "NOPE"])
            .unwrap_err()
            .contains("unknown opcode 'NOPE'"));
        assert!(parse_cmd(&["characterize", "--modes", "sideways"])
            .unwrap_err()
            .contains("unknown addressing mode"));
        assert!(parse_cmd(&["characterize", "--reps", "0"])
            .unwrap_err()
            .contains("--reps"));
        assert!(parse_cmd(&["characterize", "--reps", "99"])
            .unwrap_err()
            .contains("--reps"));
        assert!(parse_cmd(&["characterize", "--iters", "0"]).is_err());
        // Refute-only flags are rejected outside refute.
        assert!(parse_cmd(&["characterize", "--model", "m.json"])
            .unwrap_err()
            .contains("--model"));
        assert!(parse_cmd(&["characterize", "--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
    }

    #[test]
    fn refute_subcommand_parses() {
        let cmd = parse_cmd(&[
            "refute",
            "--opcodes",
            "movl",
            "--model",
            "costs.json",
            "--abs-tol",
            "0.25",
            "--rel-tol",
            "0.05",
            "--fixtures",
            "/tmp/fx",
            "--max-refutations",
            "3",
        ])
        .unwrap();
        match cmd {
            Command::Refute(o) => {
                assert_eq!(o.opcodes, vec!["MOVL"]);
                assert_eq!(o.model.as_deref(), Some(std::path::Path::new("costs.json")));
                assert_eq!(o.abs_tol, 0.25);
                assert_eq!(o.rel_tol, 0.05);
                assert_eq!(o.fixtures.as_deref(), Some(std::path::Path::new("/tmp/fx")));
                assert_eq!(o.max_refutations, 3);
            }
            _ => panic!("expected refute"),
        }
        // --list is characterize-only.
        assert!(parse_cmd(&["refute", "--list"])
            .unwrap_err()
            .contains("--list"));
    }

    #[test]
    fn serve_subcommand_parses() {
        match parse_cmd(&[
            "serve",
            "--addr",
            "0.0.0.0:8080",
            "--root",
            "/tmp/jobs",
            "--jobs",
            "4",
            "--retries",
            "1",
            "--max-connections",
            "8",
            "--quiet",
        ])
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.addr, "0.0.0.0:8080");
                assert_eq!(s.root, std::path::PathBuf::from("/tmp/jobs"));
                assert_eq!(s.jobs, 4);
                assert_eq!(s.retries, 1);
                assert_eq!(s.max_connections, 8);
                assert_eq!(s.verbosity, Verbosity::Quiet);
            }
            _ => panic!("expected serve"),
        }
        match parse_cmd(&["serve"]).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.addr, "127.0.0.1:4780");
                assert_eq!(s.jobs, 1);
                assert_eq!(s.max_connections, 64);
            }
            _ => panic!("expected serve"),
        }
        assert!(parse_cmd(&["serve", "--addr", "nocolon"])
            .unwrap_err()
            .contains("HOST:PORT"));
        assert!(parse_cmd(&["serve", "--jobs", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_cmd(&["serve", "--max-connections", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_cmd(&["serve", "--trace-out", "t.json"])
            .unwrap_err()
            .contains("per job"));
        assert!(parse_cmd(&["serve", "--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
    }

    #[test]
    fn diff_rejects_bad_shapes() {
        assert!(parse_cmd(&["diff", "a"]).unwrap_err().contains("two run"));
        assert!(parse_cmd(&["diff", "a", "b", "c"])
            .unwrap_err()
            .contains("two run"));
        assert!(parse_cmd(&["diff", "a", "b", "--abs-tol", "-1"]).is_err());
        assert!(parse_cmd(&["diff", "a", "b", "--abs-tol", "nanx"]).is_err());
        assert!(parse_cmd(&["diff", "a", "b", "--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
    }
}
