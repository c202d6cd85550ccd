//! Argument parsing for the `reproduce` binary.
//!
//! Lives in the library so the parsing rules are unit-testable: unknown
//! experiments and malformed numbers must be rejected up front with a clear
//! message (and a nonzero exit in the binary), never silently defaulted —
//! a bad flag would otherwise waste a five-workload measurement run.
//!
//! Seven commands: the default measurement run; `diff`, which compares
//! two exported run directories for CI gating; `resume`, which completes
//! an interrupted run from its checkpoints; `trace-check`, which validates
//! a Chrome-trace file; `characterize` and `refute`, the probe-grid cost
//! table and its counter cross-checks; and `serve`, the HTTP job daemon.
//!
//! The command line is the second syntax of a [`JobSpec`]. Each spec flag
//! is a field of the `crate::jobspec` tables, and `parse_spec` turns the
//! flags into a spec object that decodes the way an HTTP body does, so
//! both syntaxes share one validator. [`usage`] lists the spec flags from
//! the same tables. Only the frontend flags — output paths and format,
//! narration, tracing, the shard watchdog, test hooks, the daemon's
//! address — are hand-written arms here.

use std::path::PathBuf;

use vax780::CancelToken;
use vax_analysis::Json;

use crate::jobspec::{self, flag, Field, JobSpec, Kind, RefuteSpec, RunSpec, Syntax};
use crate::options::{parse_f64, parse_shard_timeout, parse_u64, value, Args, CommonOpts};
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

/// Parsed command line for `reproduce`: the run's spec plus the
/// frontend's own knobs.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// The experiment definition and the runtime fields.
    pub spec: RunSpec,
    /// Output format.
    pub format: Format,
    /// Directory for machine-readable artifacts (manifest, tables, time
    /// series, validation report). Created if absent.
    pub out: Option<PathBuf>,
    /// Stderr narration level (`--quiet` / `--verbose`).
    pub verbosity: Verbosity,
    /// Per-attempt wall-clock budget in seconds for one shard; exceeded ⇒
    /// the shard's watchdog trips and the attempt counts as failed.
    pub shard_timeout_secs: Option<f64>,
    /// Test hook: make cell `(workload, shard)` panic on its first N
    /// attempts (`--inject-panic W:S:N`), exercising the supervisor.
    pub inject_panic: Option<(u64, u64, u32)>,
    /// Write a Chrome Trace Event file of the whole run here
    /// (`--trace-out FILE`; opens in Perfetto). Enables the tracer.
    pub trace_out: Option<PathBuf>,
    /// Emit a machine-readable progress heartbeat on stderr every N ms
    /// (`--progress` = 1000, `--progress=MS`). Enables the tracer.
    pub progress_ms: Option<u64>,
    /// Cooperative cancel token: every cell's machine reads it every
    /// 2,048 steps, and the pool before each claim. The CLI leaves it
    /// inert (no flag sets it); the serve daemon installs a live token so
    /// `POST /jobs/:id/cancel` and `deadline_secs` can stop the grid
    /// inside a cell.
    pub cancel: CancelToken,
}

impl Options {
    /// Worker threads for the sharded execution engine (the spec's, else
    /// 1). Changes wall-clock time only, never results: exports are
    /// byte-identical at any job count.
    pub fn jobs(&self) -> usize {
        self.spec.jobs.map_or(1, |j| j as usize)
    }

    /// Extra attempts for a shard whose run panics or times out (the
    /// spec's, else 0).
    pub fn retries(&self) -> u32 {
        self.spec.retries.map_or(0, |r| r as u32)
    }
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
#[derive(Debug, Clone, Default)]
pub struct CharacterizeOptions {
    /// The probe grid and, for refute, the model tolerances. `spec.model`
    /// stays `None`: the model to refute is `model_file`.
    pub spec: RefuteSpec,
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
    pub cancel: CancelToken,
    /// Cost table to refute (`refute --model costs.json`).
    pub model_file: Option<PathBuf>,
    /// Directory for minimized refutation fixtures (refute only).
    pub fixtures: Option<PathBuf>,
}

impl CharacterizeOptions {
    /// Worker threads for the probe grid (the spec's, else 1).
    pub fn jobs(&self) -> usize {
        self.spec.probe.jobs.map_or(1, |j| j as usize)
    }

    /// Retry budget per cell (the spec's, else 0).
    pub fn retries(&self) -> u32 {
        self.spec.probe.retries.map_or(0, |r| r as u32)
    }
}

/// A parsed invocation: the measurement run, the run-directory diff, the
/// checkpoint resume, the trace validator, the characterization
/// observatory (cost tables / counter refutation), or the daemon.
#[derive(Debug, Clone)]
pub enum Command {
    /// The default five-workload measurement run.
    Run(Options),
    /// `reproduce diff BASELINE CANDIDATE`.
    Diff(DiffOptions),
    /// `reproduce resume DIR`: `out` is DIR, and only the runtime knobs
    /// (parallelism, supervision, narration) are set; the experiment
    /// definition comes from the checkpoint header
    /// ([`crate::resume::options_from_header`]).
    Resume(Options),
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

/// Which flags of its spec kind's table a subcommand accepts.
type Accept = fn(&Field) -> bool;

/// Every flag of the spec kind's table.
fn every_flag(_: &Field) -> bool {
    true
}

/// The run fields a resume chooses anew; the rest of the definition comes
/// from the checkpoint header.
fn resume_flag(f: &Field) -> bool {
    matches!(f.key, "jobs" | "retries" | "strict")
}

/// The run fields whose daemon-wide defaults `serve` takes.
fn serve_flag(f: &Field) -> bool {
    matches!(f.key, "jobs" | "retries")
}

/// The usage text. Every spec flag in it comes from the field tables.
pub fn usage() -> String {
    const NARRATION: &str = "[--quiet|--verbose] [--trace-out FILE] [--progress[=MS]]";
    format!(
        "usage: reproduce {} [--format text|json] [--out DIR] \
         [--shard-timeout SECS] [--inject-panic W:S:N] {NARRATION}\n\
         \x20      reproduce diff BASELINE_DIR CANDIDATE_DIR [--abs-tol X] [--rel-tol X]\n\
         \x20      reproduce resume DIR {} [--shard-timeout SECS] {NARRATION}\n\
         \x20      reproduce trace-check TRACE_JSON\n\
         \x20      reproduce characterize {} [--out DIR] [--list] {NARRATION}\n\
         \x20      reproduce refute {} [--out DIR] [--model COSTS_JSON] [--fixtures DIR] \
         {NARRATION}\n\
         \x20      reproduce serve [--addr HOST:PORT] [--root DIR] {} [--max-connections N] \
         [--quiet|--verbose]",
        spec_usage("run", every_flag),
        spec_usage("run", resume_flag),
        spec_usage("characterize", every_flag),
        spec_usage("refute", every_flag),
        spec_usage("run", serve_flag),
    )
}

/// The usage of the flags of the `kind` fields that `accept` admits, in
/// table order.
fn spec_usage(kind: &str, accept: Accept) -> String {
    let flags: Vec<String> = jobspec::fields(kind)
        .filter(|f| accept(f))
        .filter_map(|f| match f.arg? {
            "" => Some(format!("[{}]", flag(f.key))),
            arg => Some(format!("[{} {arg}]", flag(f.key))),
        })
        .collect();
    flags.join(" ")
}

/// Parse `args` as a spec of `kind`: the command-line syntax of
/// `JobSpec::read`. Each flag of a `kind` field that `accept` admits
/// becomes a member of a spec object (a repeated flag replaces the
/// earlier value), and the object decodes as an HTTP body does. Every
/// other argument goes to the shared [`CommonOpts`], and failing those to
/// `other`, with the arguments after it.
fn parse_spec<'a>(
    kind: &str,
    args: &'a [String],
    accept: Accept,
    mut other: impl FnMut(&'a str, &mut Args<'a>) -> Result<(), String>,
) -> Result<(JobSpec, CommonOpts), String> {
    let mut members = vec![("kind".to_string(), Json::from(kind))];
    let mut common = CommonOpts::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let field =
            jobspec::fields(kind).find(|f| f.arg.is_some() && accept(f) && *arg == flag(f.key));
        let Some(f) = field else {
            if !common.try_parse(arg, &mut rest)? {
                other(arg, &mut rest)?;
            }
            continue;
        };
        let value = match f.kind {
            Kind::Switch => Json::Bool(true),
            kind => kind.parse_arg(f.key, rest.next())?,
        };
        members.retain(|(key, _)| key != f.key);
        members.push((f.key.to_string(), value));
    }
    Ok((JobSpec::read(&Json::Obj(members), Syntax::Argv)?, common))
}

/// Parse the full argument list (without the program name), dispatching on
/// the optional subcommand.
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
    let (spec, common) = parse_spec(cmd, args, every_flag, |arg, rest| {
        match arg {
            "--out" => opts.out = Some(value(arg, rest, "a directory")?.into()),
            "--list" if !refute => opts.list = true,
            "--model" if refute => {
                opts.model_file = Some(value(arg, rest, "a costs.json path")?.into());
            }
            "--fixtures" if refute => opts.fixtures = Some(value(arg, rest, "a directory")?.into()),
            other => return Err(format!("unknown argument '{other}' for {cmd}")),
        }
        Ok(())
    })?;
    opts.spec = spec.to_characterize_options(1, 0).spec;
    opts.verbosity = common.verbosity()?;
    opts.trace_out = common.trace_out;
    opts.progress_ms = common.progress_ms;
    Ok(opts)
}

/// Parse `reproduce serve` arguments (after the subcommand word).
pub fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let (spec, common) = parse_spec("run", args, serve_flag, |arg, rest| {
        match arg {
            "--addr" => {
                let addr = value(arg, rest, "HOST:PORT")?;
                if !addr.contains(':') {
                    return Err(format!(
                        "invalid value for --addr: '{addr}' (expected HOST:PORT)"
                    ));
                }
                opts.addr = addr.clone();
            }
            "--root" => opts.root = value(arg, rest, "a directory")?.into(),
            "--max-connections" => {
                let n = parse_u64(arg, rest.next())?;
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
        Ok(())
    })?;
    if common.trace_out.is_some() || common.progress_ms.is_some() {
        return Err(
            "serve manages tracing per job; --trace-out/--progress are not accepted".to_string(),
        );
    }
    let defaults = spec.to_run_options(opts.jobs, opts.retries);
    opts.jobs = defaults.jobs();
    opts.retries = defaults.retries();
    opts.verbosity = common.verbosity()?;
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

/// Parse `reproduce resume` arguments (after the subcommand word) into
/// the resumed run's [`Options`]: `out` is the run directory, and its spec
/// carries only the runtime fields a resume chooses anew.
pub fn parse_resume_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let (spec, common) = parse_spec("run", args, resume_flag, |arg, rest| {
        match arg {
            "--shard-timeout" => opts.shard_timeout_secs = Some(parse_shard_timeout(rest.next())?),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown argument '{flag}' for resume"))
            }
            path => {
                if opts.out.replace(PathBuf::from(path)).is_some() {
                    return Err(format!(
                        "resume takes exactly one run directory (got extra '{path}')"
                    ));
                }
            }
        }
        Ok(())
    })?;
    opts.spec = spec.to_run_options(1, 0).spec;
    opts.verbosity = common.verbosity()?;
    if opts.out.is_none() {
        return Err("resume requires a run directory".to_string());
    }
    opts.trace_out = common.trace_out;
    opts.progress_ms = common.progress_ms;
    Ok(opts)
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
    let (spec, common) = parse_spec("run", args, every_flag, |arg, rest| {
        match arg {
            "--format" => {
                opts.format = match value(arg, rest, "a value")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format '{other}' (expected text|json)")),
                }
            }
            "--out" => opts.out = Some(value(arg, rest, "a directory")?.into()),
            "--shard-timeout" => opts.shard_timeout_secs = Some(parse_shard_timeout(rest.next())?),
            "--inject-panic" => opts.inject_panic = Some(parse_inject_panic(rest.next())?),
            other => return Err(format!("unknown argument '{other}'")),
        }
        Ok(())
    })?;
    opts.spec = spec.to_run_options(1, 0).spec;
    opts.verbosity = common.verbosity()?;
    opts.trace_out = common.trace_out;
    opts.progress_ms = common.progress_ms;
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobspec::MAX_GRID;
    use vax780::FaultClass;

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
        assert_eq!(o.spec.instructions, crate::DEFAULT_INSTRUCTIONS);
        assert_eq!(o.spec.seed, crate::DEFAULT_SEED);
        assert_eq!(o.jobs(), 1);
        assert_eq!(o.spec.shards, 1);
        assert_eq!(o.spec.experiment, "all");
        assert_eq!(o.format, Format::Text);
        assert!(o.out.is_none());
        assert!(!o.spec.profile);
        assert_eq!(o.spec.top, 20);
        assert_eq!(o.spec.flight_recorder, 0);
        assert_eq!(o.verbosity, Verbosity::Normal);
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
        ])
        .unwrap();
        assert_eq!(o.spec.instructions, 5000);
        assert_eq!(o.spec.seed, 7);
        assert_eq!(o.jobs(), 4);
        assert_eq!(o.spec.shards, 2);
        assert_eq!(o.spec.experiment, "table8");
        assert!(o.spec.per_workload);
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.out.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(o.spec.interval_cycles, 1000);
        assert!(o.spec.profile);
        assert_eq!(o.spec.top, 5);
        assert_eq!(o.spec.flight_recorder, 64);
        assert_eq!(o.verbosity, Verbosity::Verbose);
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
        assert_eq!(o.spec.seed, i64::MAX as u64);
    }

    #[test]
    fn shards_are_bounded_by_the_spec_grid() {
        let err = parse(&["--shards", "4097"]).unwrap_err();
        assert!(err.contains("--shards must be at most 4096"), "{err}");
        assert_eq!(parse(&["--shards", "4096"]).unwrap().spec.shards, MAX_GRID);
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
        assert_eq!(parse(&["--retries", "1000"]).unwrap().retries(), 1000);
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
        assert_eq!(o.spec.fault_seed, Some(7));
        assert_eq!(
            o.spec.fault_classes,
            FaultClass::ALL.to_vec(),
            "defaults to all"
        );

        let o = parse(&["--fault-seed", "7", "--fault-classes", "parity,smc"]).unwrap();
        assert_eq!(
            o.spec.fault_classes,
            vec![FaultClass::Parity, FaultClass::Smc],
            "canonical order, narrowed set"
        );

        let err = parse(&["--fault-classes", "parity"]).unwrap_err();
        assert!(err.contains("requires --fault-seed"), "{err}");
        assert!(parse(&["--fault-seed", "7", "--fault-classes", "bogus"]).is_err());

        let o = parse(&[]).unwrap();
        assert!(o.spec.fault_seed.is_none());
        assert!(o.spec.fault_classes.is_empty());
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
        assert_eq!(o.retries(), 2);
        assert_eq!(o.shard_timeout_secs, Some(1.5));
        assert!(o.spec.strict);
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
                assert_eq!(r.out.as_deref(), Some(std::path::Path::new("/tmp/run")));
                assert_eq!(r.jobs(), 4);
                assert_eq!(r.retries(), 1);
                assert_eq!(r.shard_timeout_secs, Some(30.0));
                assert!(r.spec.strict);
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
            Command::Run(o) => assert!(o.spec.profile),
            _ => panic!("expected run"),
        }
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
                assert_eq!(o.spec.probe.opcodes, vec!["MOVL", "ADDL2"]);
                assert_eq!(o.spec.probe.modes, vec!["register", "byte_disp"]);
                assert_eq!(o.spec.probe.reps, 4);
                assert_eq!(o.spec.probe.iters, 32);
                assert_eq!(o.spec.probe.warmup, 500);
                assert_eq!(o.jobs(), 4);
                assert_eq!(o.out.as_deref(), Some(std::path::Path::new("/tmp/ch")));
                assert!(o.list);
            }
            _ => panic!("expected characterize"),
        }

        // Defaults.
        match parse_cmd(&["characterize"]).unwrap() {
            Command::Characterize(o) => {
                assert!(o.spec.probe.opcodes.is_empty() && o.spec.probe.modes.is_empty());
                assert_eq!(
                    (o.spec.probe.reps, o.spec.probe.iters, o.spec.probe.warmup),
                    (8, 64, 2000)
                );
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
        // Past the probe bound, iters x period would wrap a u64.
        let err = parse_cmd(&["characterize", "--iters", "461168601842738791"]).unwrap_err();
        assert!(
            err.contains("--iters must be at most 461168601842738790"),
            "{err}"
        );
        match parse_cmd(&["refute", "--iters", "461168601842738790"]).unwrap() {
            Command::Refute(o) => assert_eq!(o.spec.probe.iters, jobspec::MAX_PROBE_ITERS),
            _ => panic!("expected refute"),
        }
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
                assert_eq!(o.spec.probe.opcodes, vec!["MOVL"]);
                assert_eq!(
                    o.model_file.as_deref(),
                    Some(std::path::Path::new("costs.json"))
                );
                assert_eq!(o.spec.abs_tol, 0.25);
                assert_eq!(o.spec.rel_tol, 0.05);
                assert_eq!(o.fixtures.as_deref(), Some(std::path::Path::new("/tmp/fx")));
                assert_eq!(o.spec.max_refutations, 3);
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

    #[test]
    fn flight_recorder_is_bounded() {
        // The ring is reserved up front in every cell: an unbounded
        // capacity aborted the run (exit 101) instead of exiting 2.
        let err = parse(&["--flight-recorder", "9223372036854775807"]).unwrap_err();
        assert!(
            err.contains("--flight-recorder must be at most 4096"),
            "{err}"
        );
        let o = parse(&["--flight-recorder", "4096"]).unwrap();
        assert_eq!(o.spec.flight_recorder, jobspec::MAX_FLIGHT_RECORDER);
    }

    #[test]
    fn shard_timeout_is_bounded_on_run_and_resume() {
        // Past MAX_DEADLINE_SECS the watchdog's Duration conversion
        // panicked in every attempt, quarantining every cell.
        for args in [
            &["--shard-timeout", "1e300"][..],
            &["resume", "d", "--shard-timeout", "1e300"],
        ] {
            let err = parse_cmd(args).unwrap_err();
            assert!(
                err.contains("--shard-timeout must be at most 1e9"),
                "{args:?}: {err}"
            );
        }
        match parse_cmd(&["resume", "d", "--shard-timeout", "1e9"]).unwrap() {
            Command::Resume(r) => assert_eq!(r.shard_timeout_secs, Some(1e9)),
            _ => panic!("expected resume"),
        }
    }

    #[test]
    fn jobs_are_bounded_by_the_spec_grid_everywhere() {
        for cmd in [
            &[][..],
            &["resume", "d"],
            &["characterize"],
            &["refute"],
            &["serve"],
        ] {
            let args: Vec<&str> = cmd.iter().copied().chain(["--jobs", "4097"]).collect();
            let err = parse_cmd(&args).unwrap_err();
            assert!(
                err.contains("--jobs must be at most 4096"),
                "{args:?}: {err}"
            );
        }
        assert_eq!(parse(&["--jobs", "4096"]).unwrap().jobs(), 4096);
    }

    #[test]
    fn list_flags_reject_empty_items() {
        for args in [
            &["characterize", "--opcodes", "MOVL,"][..],
            &["characterize", "--modes", "register,,byte_disp"],
            &["--fault-seed", "7", "--fault-classes", "parity,,smc"],
        ] {
            let err = parse_cmd(args).unwrap_err();
            assert!(err.contains("has an empty item"), "{args:?}: {err}");
        }
    }

    /// The subcommands that take spec flags: argv before the flags, the
    /// start of their usage line, their spec kind, and the flags of that
    /// kind they accept.
    const SPEC_COMMANDS: [(&[&str], &str, &str, Accept); 5] = [
        (&[], "usage: reproduce [", "run", every_flag),
        (
            &["characterize"],
            "reproduce characterize",
            "characterize",
            every_flag,
        ),
        (&["refute"], "reproduce refute", "refute", every_flag),
        (&["resume", "d"], "reproduce resume", "run", resume_flag),
        (&["serve"], "reproduce serve", "run", serve_flag),
    ];

    /// `(argv text, JSON value)` pairs; the argv text of a switch is "".
    type Values = Vec<(String, Json)>;

    /// Values of a field at its bounds, which it accepts, and one past
    /// them, which it rejects. `MAX_JSON_INT + 1` is no JSON integer, so
    /// it is left out.
    fn bounds(kind: Kind) -> (Values, Values) {
        let int = |n: u64| (n.to_string(), Json::from(n));
        let text = |t: &str, v: Json| (t.to_string(), v);
        match kind {
            Kind::Int(min, max) => (
                vec![int(min), int(max)],
                [
                    min.checked_sub(1),
                    (max < jobspec::MAX_JSON_INT).then_some(max + 1),
                ]
                .into_iter()
                .flatten()
                .map(int)
                .collect(),
            ),
            Kind::Num => (
                vec![text("0", Json::Num(0.0)), text("2.5", Json::Num(2.5))],
                vec![text("-1", Json::Num(-1.0))],
            ),
            Kind::Switch => (vec![text("", Json::Bool(true))], vec![]),
            Kind::Text(names) => (
                vec![text(names[0], names[0].into())],
                vec![text("nonsense", "nonsense".into())],
            ),
            Kind::List(_) => (
                vec![],
                vec![text("nonsense", Json::arr(["nonsense".into()]))],
            ),
            Kind::Secs | Kind::Object => (vec![], vec![]),
        }
    }

    #[test]
    fn the_field_table_drives_both_syntaxes() {
        let usage = usage();
        for (cmd, head, kind, accept) in SPEC_COMMANDS {
            let line = usage.lines().find(|l| l.trim_start().starts_with(head));
            let line = line.unwrap_or_else(|| panic!("no usage line for {head}"));
            for f in jobspec::fields(kind).filter(|f| f.arg.is_some() && accept(f)) {
                let flag = flag(f.key);
                assert!(
                    line.contains(&format!("[{flag}")),
                    "{head}: no {flag} in {line}"
                );
                let argv = |raw: &str| -> Vec<String> {
                    let value = (!raw.is_empty()).then(|| raw.to_string());
                    [flag.clone()].into_iter().chain(value).collect()
                };
                let from_argv = |raw: &str| {
                    let stray = |a: &str, _: &mut Args| Err(format!("stray '{a}'"));
                    parse_spec(kind, &argv(raw), every_flag, stray).map(|(spec, _)| spec)
                };
                let from_json = |v: &Json| {
                    let body = Json::obj([("kind", kind.into()), (f.key, v.clone())]);
                    JobSpec::read(&body, Syntax::Json)
                };
                let (ok, bad) = bounds(f.kind);
                for (raw, v) in ok {
                    assert_eq!(from_argv(&raw), from_json(&v), "{kind} {flag} {raw}");
                }
                for (raw, v) in bad {
                    let argv_err = from_argv(&raw).unwrap_err();
                    let json_err = from_json(&v).unwrap_err();
                    let quoted = format!("'{}'", f.key);
                    assert_eq!(json_err.replace(&quoted, &flag), argv_err, "{kind} {raw}");
                    // The subcommand's own parser says the same.
                    let args = cmd.iter().map(|a| a.to_string()).chain(argv(&raw));
                    let args: Vec<String> = args.collect();
                    let err = parse_command(&args).unwrap_err();
                    assert_eq!(err, argv_err, "{args:?}");
                }
            }
        }
    }
}
