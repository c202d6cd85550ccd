//! The typed job description shared by every frontend.
//!
//! A [`JobSpec`] is the experiment definition — workload grid, seed,
//! shards, fault plan, probe grid, tolerances — validated independently of
//! argv. The CLI subcommands parse flags into the same option structs a
//! decoded spec produces, and `reproduce serve` accepts a spec as a JSON
//! body, so a job submitted over HTTP runs the exact engine code path the
//! CLI runs: byte-identical artifacts by construction.
//!
//! Deliberately *not* in the spec: anything host-local or runtime-only —
//! output directories, trace files, narration levels, heartbeat periods,
//! bench-meter paths. Those belong to whoever runs the job (the daemon
//! picks the job directory; `--jobs`/`--retries` may be suggested by the
//! spec but are clamped by the server's own limits). The checkpoint
//! header of a `--out` run (`crate::resume`) *is* a run spec, written by
//! [`RunSpec::from_options`] with the runtime-only fields unset and the
//! output format stored beside it. So one codec carries the experiment
//! definition everywhere: HTTP bodies, the daemon journal, `spec.json`
//! and `checkpoints/run.json`.
//!
//! The codec is canonical: [`JobSpec::encode`] always emits every field of
//! the spec's kind, in a fixed order, with defaults materialized — so
//! encode → decode → encode is byte-stable (property-tested). The decoder
//! rejects unknown keys, wrong types, and out-of-range values with typed
//! messages, on top of the byte-offset syntax errors (and duplicate-key
//! detection) from `vax_analysis::Json::parse`; the server maps every
//! decode error to a 400.

use vax780::FaultClass;
use vax_analysis::Json;

use crate::cli::{CharacterizeOptions, Options, EXPERIMENTS};

/// Spec format version accepted and emitted.
pub const JOBSPEC_FORMAT_VERSION: u64 = 1;

/// Upper bound on `jobs` and `shards` in a spec. The CLI trusts its local
/// operator with `--jobs`; a service must not let one request spawn an
/// absurd grid. `--shards` shares the bound, because it is part of the
/// definition every `--out` run writes into its checkpoint header.
pub const MAX_GRID: u64 = 4096;

/// Upper bound on `retries` in a spec and on `--retries`.
pub const MAX_RETRIES: u64 = 1_000;

/// Largest integer a spec field or a CLI flag accepts. `Json::Int` is an
/// `i64`, so a larger value could not round-trip through the spec, the
/// checkpoint header or `manifest.json`.
pub const MAX_JSON_INT: u64 = i64::MAX as u64;

/// Upper bound on `deadline_secs` (~31.7 years). Anything larger is a
/// client bug, and huge values would overflow `Duration`/`Instant`
/// arithmetic when the deadline is armed.
pub const MAX_DEADLINE_SECS: f64 = 1e9;

/// A validated job description: one measurement run, one characterization
/// sweep, or one refutation sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// The five-workload composite measurement (the `reproduce` default).
    Run(RunSpec),
    /// The per-opcode × addressing-mode cost-table sweep.
    Characterize(ProbeSpec),
    /// Adversarial counter cross-checks over the probe grid.
    Refute(RefuteSpec),
}

/// Experiment definition for a measurement run (see [`Options`] for field
/// semantics; this is the argv-independent subset).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Suggested worker threads (`None` = the runner's default). Never
    /// changes results, only wall-clock time.
    pub jobs: Option<u64>,
    /// Suggested retry budget per cell (`None` = the runner's default).
    pub retries: Option<u64>,
    /// Wall-clock budget in seconds (> 0, ≤ [`MAX_DEADLINE_SECS`]),
    /// measured from job start; the
    /// serve daemon ends the job with terminal status `deadline_exceeded`
    /// at the next cell boundary once elapsed. `None` = no deadline.
    /// Runtime-only: never changes results, only whether the job is
    /// allowed to finish.
    pub deadline_secs: Option<f64>,
    /// Instructions measured per workload (≥ 1).
    pub instructions: u64,
    /// Root RNG seed.
    pub seed: u64,
    /// Replica shards per workload (1..=[`MAX_GRID`]).
    pub shards: u64,
    /// Which table/figure to emit (one of [`EXPERIMENTS`]).
    pub experiment: String,
    /// Also report the five constituent per-workload CPIs.
    pub per_workload: bool,
    /// Interval-sampler period in cycles (≥ 1).
    pub interval_cycles: u64,
    /// Emit the µPC attribution profile.
    pub profile: bool,
    /// Rows in the hot-routine report (≥ 1).
    pub top: u64,
    /// Flight-recorder capacity in instructions; 0 disables it.
    pub flight_recorder: u64,
    /// Fault-injection seed; `None` = no faults.
    pub fault_seed: Option<u64>,
    /// Fault classes (canonical order; empty iff `fault_seed` is `None`,
    /// defaulted to all classes when a seed is given without classes).
    pub fault_classes: Vec<FaultClass>,
    /// Fail the job when any cell was quarantined.
    pub strict: bool,
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        RunSpec::from_options(&Options::default())
    }
}

impl RunSpec {
    /// The experiment definition of run `opts`: the inverse of
    /// [`JobSpec::to_run_options`] on the definition fields. The
    /// runtime-only fields (`jobs`, `retries`, `deadline_secs`, `strict`)
    /// stay unset, because they never change what a run measures.
    pub fn from_options(opts: &Options) -> RunSpec {
        RunSpec {
            jobs: None,
            retries: None,
            deadline_secs: None,
            instructions: opts.instructions,
            seed: opts.seed,
            shards: opts.shards,
            experiment: opts.experiment.clone(),
            per_workload: opts.per_workload,
            interval_cycles: opts.interval_cycles,
            profile: opts.profile,
            top: opts.top as u64,
            flight_recorder: opts.flight_recorder as u64,
            fault_seed: opts.fault_seed,
            fault_classes: opts.fault_classes.clone(),
            strict: false,
        }
    }
}

/// Experiment definition for the probe grid (characterize and the grid
/// half of refute); see [`CharacterizeOptions`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSpec {
    /// Suggested worker threads (`None` = the runner's default).
    pub jobs: Option<u64>,
    /// Suggested retry budget per cell (`None` = the runner's default).
    pub retries: Option<u64>,
    /// Wall-clock budget in seconds (see [`RunSpec::deadline_secs`]).
    pub deadline_secs: Option<f64>,
    /// Opcode filter (upper-cased mnemonics); empty = the full table.
    pub opcodes: Vec<String>,
    /// Addressing-mode filter (mode keys); empty = all modes.
    pub modes: Vec<String>,
    /// Probe copies per loop iteration (1..=`vax_asm::probe::MAX_REPS`).
    pub reps: u64,
    /// Measured loop iterations per cell (≥ 1).
    pub iters: u64,
    /// Warmup instructions per cell.
    pub warmup: u64,
}

impl Default for ProbeSpec {
    fn default() -> ProbeSpec {
        let o = CharacterizeOptions::default();
        ProbeSpec {
            jobs: None,
            retries: None,
            deadline_secs: None,
            opcodes: Vec::new(),
            modes: Vec::new(),
            reps: o.reps as u64,
            iters: o.iters,
            warmup: o.warmup,
        }
    }
}

/// Experiment definition for a refutation sweep: the probe grid plus the
/// model comparison knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RefuteSpec {
    /// The probe grid to sweep.
    pub probe: ProbeSpec,
    /// Absolute cost-model tolerance, cycles per instruction.
    pub abs_tol: f64,
    /// Relative cost-model tolerance.
    pub rel_tol: f64,
    /// Minimize and record at most this many refutations.
    pub max_refutations: u64,
    /// Inline cost table to refute (`vax-characterize/v1` object);
    /// `None` = invariant checks only.
    pub model: Option<Json>,
}

impl Default for RefuteSpec {
    fn default() -> RefuteSpec {
        let o = CharacterizeOptions::default();
        RefuteSpec {
            probe: ProbeSpec::default(),
            abs_tol: o.abs_tol,
            rel_tol: o.rel_tol,
            max_refutations: o.max_refutations as u64,
            model: None,
        }
    }
}

impl JobSpec {
    /// The spec's kind string (`run` / `characterize` / `refute`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Run(_) => "run",
            JobSpec::Characterize(_) => "characterize",
            JobSpec::Refute(_) => "refute",
        }
    }

    /// Suggested worker threads, if the spec carries one.
    pub fn jobs(&self) -> Option<u64> {
        match self {
            JobSpec::Run(s) => s.jobs,
            JobSpec::Characterize(s) => s.jobs,
            JobSpec::Refute(s) => s.probe.jobs,
        }
    }

    /// Suggested retry budget, if the spec carries one.
    pub fn retries(&self) -> Option<u64> {
        match self {
            JobSpec::Run(s) => s.retries,
            JobSpec::Characterize(s) => s.retries,
            JobSpec::Refute(s) => s.probe.retries,
        }
    }

    /// Wall-clock budget in seconds, if the spec carries one.
    pub fn deadline_secs(&self) -> Option<f64> {
        match self {
            JobSpec::Run(s) => s.deadline_secs,
            JobSpec::Characterize(s) => s.deadline_secs,
            JobSpec::Refute(s) => s.probe.deadline_secs,
        }
    }

    /// Canonical encoding: every field of the kind, fixed order, defaults
    /// materialized. `encode(decode(encode(x)))` is byte-identical to
    /// `encode(x)`.
    pub fn encode(&self) -> Json {
        let mut m: Vec<(String, Json)> = vec![
            ("format_version".into(), JOBSPEC_FORMAT_VERSION.into()),
            ("kind".into(), self.kind().into()),
            ("jobs".into(), opt_u64_json(self.jobs())),
            ("retries".into(), opt_u64_json(self.retries())),
            (
                "deadline_secs".into(),
                self.deadline_secs().map_or(Json::Null, Json::from),
            ),
        ];
        match self {
            JobSpec::Run(s) => {
                m.push(("instructions".into(), s.instructions.into()));
                m.push(("seed".into(), s.seed.into()));
                m.push(("shards".into(), s.shards.into()));
                m.push(("experiment".into(), s.experiment.as_str().into()));
                m.push(("per_workload".into(), s.per_workload.into()));
                m.push(("interval_cycles".into(), s.interval_cycles.into()));
                m.push(("profile".into(), s.profile.into()));
                m.push(("top".into(), s.top.into()));
                m.push(("flight_recorder".into(), s.flight_recorder.into()));
                m.push(("fault_seed".into(), opt_u64_json(s.fault_seed)));
                m.push((
                    "fault_classes".into(),
                    Json::arr(s.fault_classes.iter().map(|c| c.name().into())),
                ));
                m.push(("strict".into(), s.strict.into()));
            }
            JobSpec::Characterize(s) => push_probe(&mut m, s),
            JobSpec::Refute(s) => {
                push_probe(&mut m, &s.probe);
                m.push(("abs_tol".into(), s.abs_tol.into()));
                m.push(("rel_tol".into(), s.rel_tol.into()));
                m.push(("max_refutations".into(), s.max_refutations.into()));
                m.push(("model".into(), s.model.clone().unwrap_or(Json::Null)));
            }
        }
        Json::Obj(m)
    }

    /// Decode and validate a spec from JSON text.
    ///
    /// # Errors
    /// Returns a typed message: syntax errors carry the byte offset (and
    /// duplicate keys are rejected) via `Json::parse`; structural errors
    /// name the offending field and the accepted range.
    pub fn decode(text: &str) -> Result<JobSpec, String> {
        let json = Json::parse(text)?;
        JobSpec::from_json(&json)
    }

    /// [`JobSpec::decode`] from an already-parsed value.
    ///
    /// # Errors
    /// See [`JobSpec::decode`].
    pub fn from_json(json: &Json) -> Result<JobSpec, String> {
        let members = match json {
            Json::Obj(members) => members,
            _ => return Err("jobspec: the body must be a JSON object".to_string()),
        };
        let version =
            field_u64(json, "format_version", 0, u64::MAX)?.unwrap_or(JOBSPEC_FORMAT_VERSION);
        if version != JOBSPEC_FORMAT_VERSION {
            return Err(format!(
                "jobspec: unsupported format_version {version} (this build speaks \
                 {JOBSPEC_FORMAT_VERSION})"
            ));
        }
        let kind = match json.get("kind") {
            None => "run".to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err("jobspec: 'kind' must be a string".to_string()),
        };
        const COMMON: &[&str] = &["format_version", "kind", "jobs", "retries", "deadline_secs"];
        const RUN: &[&str] = &[
            "instructions",
            "seed",
            "shards",
            "experiment",
            "per_workload",
            "interval_cycles",
            "profile",
            "top",
            "flight_recorder",
            "fault_seed",
            "fault_classes",
            "strict",
        ];
        const PROBE: &[&str] = &["opcodes", "modes", "reps", "iters", "warmup"];
        const REFUTE_EXTRA: &[&str] = &["abs_tol", "rel_tol", "max_refutations", "model"];
        let allowed: Vec<&str> = match kind.as_str() {
            "run" => [COMMON, RUN].concat(),
            "characterize" => [COMMON, PROBE].concat(),
            "refute" => [COMMON, PROBE, REFUTE_EXTRA].concat(),
            other => {
                return Err(format!(
                    "jobspec: unknown kind '{other}' (expected run, characterize, or refute)"
                ))
            }
        };
        for (key, _) in members {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("jobspec: unknown field '{key}' for kind '{kind}'"));
            }
        }
        let jobs = field_u64(json, "jobs", 1, MAX_GRID)?;
        let retries = field_u64(json, "retries", 0, MAX_RETRIES)?;
        let deadline_secs = field_f64(json, "deadline_secs")?;
        if deadline_secs == Some(0.0) {
            return Err("jobspec: 'deadline_secs' must be greater than zero".to_string());
        }
        if deadline_secs.is_some_and(|d| d > MAX_DEADLINE_SECS) {
            // An absurd budget is a client bug, and unbounded values can
            // overflow Duration/Instant arithmetic downstream — reject at
            // the validation boundary like every other field.
            return Err(format!(
                "jobspec: 'deadline_secs' must be at most {MAX_DEADLINE_SECS:e}"
            ));
        }
        match kind.as_str() {
            "run" => {
                let mut spec = RunSpec {
                    jobs,
                    retries,
                    deadline_secs,
                    ..RunSpec::default()
                };
                if let Some(v) = field_u64(json, "instructions", 1, u64::MAX)? {
                    spec.instructions = v;
                }
                if let Some(v) = field_u64(json, "seed", 0, u64::MAX)? {
                    spec.seed = v;
                }
                if let Some(v) = field_u64(json, "shards", 1, MAX_GRID)? {
                    spec.shards = v;
                }
                if let Some(v) = json.get("experiment") {
                    let e = v
                        .as_str()
                        .ok_or_else(|| "jobspec: 'experiment' must be a string".to_string())?;
                    if !EXPERIMENTS.contains(&e) {
                        return Err(format!(
                            "jobspec: unknown experiment '{e}' (expected one of: {})",
                            EXPERIMENTS.join(", ")
                        ));
                    }
                    spec.experiment = e.to_string();
                }
                if let Some(v) = field_bool(json, "per_workload")? {
                    spec.per_workload = v;
                }
                if let Some(v) = field_u64(json, "interval_cycles", 1, u64::MAX)? {
                    spec.interval_cycles = v;
                }
                if let Some(v) = field_bool(json, "profile")? {
                    spec.profile = v;
                }
                if let Some(v) = field_u64(json, "top", 1, u64::MAX)? {
                    spec.top = v;
                }
                if let Some(v) = field_u64(json, "flight_recorder", 0, u64::MAX)? {
                    spec.flight_recorder = v;
                }
                spec.fault_seed = field_u64(json, "fault_seed", 0, u64::MAX)?;
                let classes = field_str_arr(json, "fault_classes")?;
                if !classes.is_empty() && spec.fault_seed.is_none() {
                    return Err("jobspec: 'fault_classes' requires 'fault_seed'".to_string());
                }
                if spec.fault_seed.is_some() {
                    spec.fault_classes = if classes.is_empty() {
                        FaultClass::ALL.to_vec()
                    } else {
                        vax780::parse_classes(&classes.join(","))
                            .map_err(|e| format!("jobspec: {e}"))?
                    };
                }
                if let Some(v) = field_bool(json, "strict")? {
                    spec.strict = v;
                }
                Ok(JobSpec::Run(spec))
            }
            "characterize" => Ok(JobSpec::Characterize(probe_from_json(
                json,
                jobs,
                retries,
                deadline_secs,
            )?)),
            "refute" => {
                let probe = probe_from_json(json, jobs, retries, deadline_secs)?;
                let mut spec = RefuteSpec {
                    probe,
                    ..RefuteSpec::default()
                };
                if let Some(v) = field_f64(json, "abs_tol")? {
                    spec.abs_tol = v;
                }
                if let Some(v) = field_f64(json, "rel_tol")? {
                    spec.rel_tol = v;
                }
                if let Some(v) = field_u64(json, "max_refutations", 0, u64::MAX)? {
                    spec.max_refutations = v;
                }
                spec.model = match json.get("model") {
                    None | Some(Json::Null) => None,
                    Some(m @ Json::Obj(_)) => Some(m.clone()),
                    Some(_) => {
                        return Err(
                            "jobspec: 'model' must be a vax-characterize/v1 object or null"
                                .to_string(),
                        )
                    }
                };
                Ok(JobSpec::Refute(spec))
            }
            _ => unreachable!("kind validated above"),
        }
    }

    /// Materialize run [`Options`] from a run spec. Runtime knobs (out,
    /// format, verbosity, tracing) stay at their defaults for the caller
    /// to fill in; `jobs`/`retries` fall back to `default_jobs` /
    /// `default_retries` when the spec doesn't suggest them.
    ///
    /// # Panics
    /// Panics if the spec is not `kind = run`.
    pub fn to_run_options(&self, default_jobs: usize, default_retries: u32) -> Options {
        let JobSpec::Run(s) = self else {
            panic!("to_run_options on a {} spec", self.kind());
        };
        Options {
            instructions: s.instructions,
            seed: s.seed,
            jobs: s.jobs.map_or(default_jobs, |j| j as usize),
            shards: s.shards,
            experiment: s.experiment.clone(),
            per_workload: s.per_workload,
            interval_cycles: s.interval_cycles,
            profile: s.profile,
            top: s.top as usize,
            flight_recorder: s.flight_recorder as usize,
            fault_seed: s.fault_seed,
            fault_classes: s.fault_classes.clone(),
            retries: s.retries.map_or(default_retries, |r| r as u32),
            strict: s.strict,
            ..Options::default()
        }
    }

    /// Materialize [`CharacterizeOptions`] from a characterize or refute
    /// spec (see [`JobSpec::to_run_options`] for the knob split). For a
    /// refute spec the inline model is *not* handled here — the caller
    /// writes it to a file and sets `model` on the result.
    ///
    /// # Panics
    /// Panics if the spec is `kind = run`.
    pub fn to_characterize_options(
        &self,
        default_jobs: usize,
        default_retries: u32,
    ) -> CharacterizeOptions {
        let (probe, refute) = match self {
            JobSpec::Characterize(p) => (p, None),
            JobSpec::Refute(r) => (&r.probe, Some(r)),
            JobSpec::Run(_) => panic!("to_characterize_options on a run spec"),
        };
        let mut opts = CharacterizeOptions {
            opcodes: probe.opcodes.clone(),
            modes: probe.modes.clone(),
            reps: probe.reps as u32,
            iters: probe.iters,
            warmup: probe.warmup,
            jobs: probe.jobs.map_or(default_jobs, |j| j as usize),
            retries: probe.retries.map_or(default_retries, |r| r as u32),
            ..CharacterizeOptions::default()
        };
        if let Some(r) = refute {
            opts.abs_tol = r.abs_tol;
            opts.rel_tol = r.rel_tol;
            opts.max_refutations = r.max_refutations as usize;
        }
        opts
    }
}

fn opt_u64_json(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::from)
}

fn push_probe(m: &mut Vec<(String, Json)>, s: &ProbeSpec) {
    m.push((
        "opcodes".into(),
        Json::arr(s.opcodes.iter().map(|o| o.as_str().into())),
    ));
    m.push((
        "modes".into(),
        Json::arr(s.modes.iter().map(|k| k.as_str().into())),
    ));
    m.push(("reps".into(), s.reps.into()));
    m.push(("iters".into(), s.iters.into()));
    m.push(("warmup".into(), s.warmup.into()));
}

fn probe_from_json(
    json: &Json,
    jobs: Option<u64>,
    retries: Option<u64>,
    deadline_secs: Option<f64>,
) -> Result<ProbeSpec, String> {
    let mut spec = ProbeSpec {
        jobs,
        retries,
        deadline_secs,
        ..ProbeSpec::default()
    };
    for mn in field_str_arr(json, "opcodes")? {
        if vax_arch::Opcode::from_mnemonic(&mn).is_none() {
            return Err(format!("jobspec: unknown opcode '{mn}' in 'opcodes'"));
        }
        spec.opcodes.push(mn.to_uppercase());
    }
    for key in field_str_arr(json, "modes")? {
        if vax_asm::probe::mode_from_key(&key).is_none() {
            return Err(format!(
                "jobspec: unknown addressing mode '{key}' in 'modes'"
            ));
        }
        spec.modes.push(key);
    }
    if let Some(v) = field_u64(json, "reps", 1, u64::from(vax_asm::probe::MAX_REPS))? {
        spec.reps = v;
    }
    if let Some(v) = field_u64(json, "iters", 1, u64::MAX)? {
        spec.iters = v;
    }
    if let Some(v) = field_u64(json, "warmup", 0, u64::MAX)? {
        spec.warmup = v;
    }
    Ok(spec)
}

/// An optional integer field, range-checked. `null` counts as absent.
fn field_u64(json: &Json, key: &str, min: u64, max: u64) -> Result<Option<u64>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_i64()
                .filter(|&n| n >= 0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("jobspec: '{key}' must be a non-negative integer"))?;
            if n < min || n > max {
                return Err(if max == u64::MAX {
                    format!("jobspec: '{key}' must be at least {min}")
                } else {
                    format!("jobspec: '{key}' must be between {min} and {max}")
                });
            }
            Ok(Some(n))
        }
    }
}

/// An optional boolean field.
fn field_bool(json: &Json, key: &str) -> Result<Option<bool>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("jobspec: '{key}' must be a boolean")),
    }
}

/// An optional finite non-negative number field.
fn field_f64(json: &Json, key: &str) -> Result<Option<f64>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let x = v
                .as_f64()
                .or_else(|| v.as_i64().map(|n| n as f64))
                .ok_or_else(|| format!("jobspec: '{key}' must be a number"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!(
                    "jobspec: '{key}' must be a finite non-negative number"
                ));
            }
            Ok(Some(x))
        }
    }
}

/// An optional array-of-strings field (absent or `null` = empty).
fn field_str_arr(json: &Json, key: &str) -> Result<Vec<String>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("jobspec: '{key}' must contain only strings"))
            })
            .collect(),
        Some(_) => Err(format!("jobspec: '{key}' must be an array of strings")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_bodies_decode_with_defaults() {
        let spec = JobSpec::decode(r#"{"kind": "run"}"#).unwrap();
        assert_eq!(spec, JobSpec::Run(RunSpec::default()));
        let spec = JobSpec::decode("{}").unwrap();
        assert_eq!(spec.kind(), "run", "kind defaults to run");
        let spec = JobSpec::decode(r#"{"kind": "characterize"}"#).unwrap();
        assert_eq!(spec, JobSpec::Characterize(ProbeSpec::default()));
        let spec = JobSpec::decode(r#"{"kind": "refute"}"#).unwrap();
        assert_eq!(spec, JobSpec::Refute(RefuteSpec::default()));
    }

    #[test]
    fn run_round_trip_preserves_everything() {
        let spec = JobSpec::Run(RunSpec {
            jobs: Some(4),
            retries: Some(1),
            deadline_secs: Some(2.5),
            instructions: 60_000,
            seed: 7,
            shards: 2,
            experiment: "table2".to_string(),
            per_workload: true,
            interval_cycles: 10_000,
            profile: true,
            top: 5,
            flight_recorder: 64,
            fault_seed: Some(9),
            fault_classes: vec![FaultClass::Parity, FaultClass::Smc],
            strict: true,
        });
        let text = spec.encode().to_string_pretty();
        assert_eq!(JobSpec::decode(&text).unwrap(), spec);
    }

    #[test]
    fn fault_seed_defaults_classes_to_all() {
        let spec = JobSpec::decode(r#"{"kind": "run", "fault_seed": 3}"#).unwrap();
        match spec {
            JobSpec::Run(s) => assert_eq!(s.fault_classes, FaultClass::ALL.to_vec()),
            _ => panic!("expected run"),
        }
        let err = JobSpec::decode(r#"{"kind": "run", "fault_classes": ["parity"]}"#).unwrap_err();
        assert!(err.contains("requires 'fault_seed'"), "{err}");
    }

    #[test]
    fn rejects_unknown_fields_per_kind() {
        let err = JobSpec::decode(r#"{"kind": "run", "frobnicate": 1}"#).unwrap_err();
        assert!(err.contains("unknown field 'frobnicate'"), "{err}");
        // A run-only field is unknown for characterize.
        let err = JobSpec::decode(r#"{"kind": "characterize", "shards": 2}"#).unwrap_err();
        assert!(err.contains("unknown field 'shards'"), "{err}");
        // A refute-only field is unknown for characterize.
        let err = JobSpec::decode(r#"{"kind": "characterize", "abs_tol": 1}"#).unwrap_err();
        assert!(err.contains("unknown field 'abs_tol'"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_grid_values() {
        for body in [
            r#"{"kind": "run", "jobs": 0}"#,
            r#"{"kind": "run", "jobs": 5000}"#,
            r#"{"kind": "run", "shards": 0}"#,
            r#"{"kind": "run", "shards": 99999}"#,
            r#"{"kind": "run", "instructions": 0}"#,
            r#"{"kind": "characterize", "reps": 0}"#,
            r#"{"kind": "characterize", "iters": 0}"#,
            r#"{"kind": "run", "deadline_secs": 0}"#,
            r#"{"kind": "run", "deadline_secs": -1}"#,
            // Values past MAX_DEADLINE_SECS pass the finite/non-negative
            // check but would overflow Duration/Instant arithmetic when
            // the deadline is armed — they must die here, not panic the
            // serve worker.
            r#"{"kind": "run", "deadline_secs": 1e15}"#,
            r#"{"kind": "run", "deadline_secs": 1e30}"#,
            r#"{"kind": "run", "deadline_secs": 1e300}"#,
        ] {
            assert!(JobSpec::decode(body).is_err(), "{body} must be rejected");
        }
        let ok = format!(r#"{{"kind": "run", "deadline_secs": {MAX_DEADLINE_SECS}}}"#);
        assert!(JobSpec::decode(&ok).is_ok(), "the bound itself is valid");
    }

    #[test]
    fn deadline_is_a_common_field() {
        for kind in ["run", "characterize", "refute"] {
            let body = format!(r#"{{"kind": "{kind}", "deadline_secs": 1.5}}"#);
            let spec = JobSpec::decode(&body).unwrap();
            assert_eq!(spec.deadline_secs(), Some(1.5), "{kind}");
            let text = spec.encode().to_string_pretty();
            assert_eq!(JobSpec::decode(&text).unwrap(), spec, "{kind} round-trip");
        }
    }

    #[test]
    fn rejects_wrong_types_with_field_names() {
        let err = JobSpec::decode(r#"{"kind": "run", "seed": "seven"}"#).unwrap_err();
        assert!(err.contains("'seed'"), "{err}");
        let err = JobSpec::decode(r#"{"kind": "run", "strict": 1}"#).unwrap_err();
        assert!(err.contains("'strict'"), "{err}");
        let err = JobSpec::decode(r#"{"kind": "characterize", "opcodes": [1]}"#).unwrap_err();
        assert!(err.contains("'opcodes'"), "{err}");
        let err = JobSpec::decode(r#"{"kind": "refute", "model": 5}"#).unwrap_err();
        assert!(err.contains("'model'"), "{err}");
    }

    #[test]
    fn rejects_unknown_grid_content() {
        let err = JobSpec::decode(r#"{"kind": "characterize", "opcodes": ["NOPE"]}"#).unwrap_err();
        assert!(err.contains("unknown opcode 'NOPE'"), "{err}");
        let err =
            JobSpec::decode(r#"{"kind": "characterize", "modes": ["sideways"]}"#).unwrap_err();
        assert!(err.contains("unknown addressing mode"), "{err}");
        let err = JobSpec::decode(r#"{"kind": "run", "experiment": "table99"}"#).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
        let err = JobSpec::decode(r#"{"kind": "launder"}"#).unwrap_err();
        assert!(err.contains("unknown kind 'launder'"), "{err}");
    }

    #[test]
    fn version_gate() {
        assert!(JobSpec::decode(r#"{"format_version": 1, "kind": "run"}"#).is_ok());
        let err = JobSpec::decode(r#"{"format_version": 2, "kind": "run"}"#).unwrap_err();
        assert!(err.contains("unsupported format_version 2"), "{err}");
    }

    #[test]
    fn options_materialization_uses_defaults() {
        let spec = JobSpec::decode(r#"{"kind": "run", "instructions": 5000}"#).unwrap();
        let opts = spec.to_run_options(3, 2);
        assert_eq!(opts.instructions, 5000);
        assert_eq!((opts.jobs, opts.retries), (3, 2), "daemon defaults");
        let spec = JobSpec::decode(r#"{"kind": "run", "jobs": 2, "retries": 0}"#).unwrap();
        let opts = spec.to_run_options(3, 2);
        assert_eq!((opts.jobs, opts.retries), (2, 0), "spec overrides");
    }
}
