//! The typed job description shared by every frontend, and its two
//! syntaxes.
//!
//! A [`JobSpec`] is the experiment definition — workload grid, seed,
//! shards, fault plan, probe grid, tolerances. Each field is declared
//! once, in the field tables of this module (`fields`): its JSON key,
//! the `Kind` of value it accepts with its bounds, and the placeholder
//! of its command-line flag, which is `--` plus the key with `-` for `_`
//! (`flag`). Those tables drive the codec, the argv parsers and the
//! usage text.
//!
//! A spec has two syntaxes and one validator, `JobSpec::read`. The JSON
//! syntax carries it through HTTP bodies, the daemon journal, `spec.json`
//! and `checkpoints/run.json`. On the command line, `crate::cli` turns
//! each table flag into the JSON value it stands for (`Kind::parse_arg`)
//! and decodes the resulting object like an HTTP body. Errors name the
//! field the way its syntax spells it: `'key'` in JSON, `--flag` on the
//! command line. So a CLI run and a served job of the same definition are
//! the same spec, run by the same engine code: byte-identical artifacts
//! by construction.
//!
//! Deliberately *not* in the spec: anything host-local — output
//! directories, trace files, narration levels, heartbeat periods, the
//! shard watchdog, bench-meter paths. Those belong to whoever runs the
//! job. The runtime fields (`jobs`, `retries`, `deadline_secs`, `strict`)
//! are in the spec but never change what a run measures: the daemon
//! fills unset `jobs`/`retries` from its own defaults, and the checkpoint
//! header of a `--out` run (`crate::resume`) is the run's spec with them
//! unset.
//!
//! The codec is canonical: [`JobSpec::encode`] always emits every field of
//! the spec's kind, in table order, with defaults materialized — so
//! encode → decode → encode is byte-stable (property-tested), and the
//! bytes themselves are pinned (`tests/jobspec_roundtrip.rs`). The decoder
//! rejects unknown keys, wrong types, and out-of-range values with typed
//! messages, on top of the byte-offset syntax errors (and duplicate-key
//! detection) from `vax_analysis::Json::parse`; the server maps every
//! decode error to a 400.

use vax780::FaultClass;
use vax_analysis::characterize::DEFAULT_WARMUP;
use vax_analysis::Json;
use vax_asm::probe::{MAX_REPS, SCAFFOLD_INSNS};

use crate::cli::{CharacterizeOptions, Options, EXPERIMENTS};
use crate::options::parse_u64;
use Kind::{Int, List, Num, Object, Secs, Switch, Text};

/// Spec format version accepted and emitted.
pub const JOBSPEC_FORMAT_VERSION: u64 = 1;

/// Upper bound on `jobs` and `shards`: a service must not let one request
/// spawn an absurd grid, and the command line shares the bound, so every
/// run it accepts has a spec.
pub const MAX_GRID: u64 = 4096;

/// Upper bound on `flight_recorder`, in instructions per cell. Every cell
/// reserves its ring up front, so an unbounded capacity would abort the
/// process that runs it — a daemon included, on every journal replay.
/// The golden run and CI use 64.
pub const MAX_FLIGHT_RECORDER: u64 = 4096;

/// Upper bound on `retries`.
pub const MAX_RETRIES: u64 = 1_000;

/// Largest integer a spec field accepts. `Json::Int` is an `i64`, so a
/// larger value could not round-trip through the spec, the checkpoint
/// header or `manifest.json`.
pub const MAX_JSON_INT: u64 = i64::MAX as u64;

/// Upper bound on a probe's `iters`: a probe measures `iters` loop
/// periods of up to `SCAFFOLD_INSNS + MAX_REPS` instructions, and that
/// instruction count must stay a JSON integer too, or it would wrap.
pub const MAX_PROBE_ITERS: u64 = MAX_JSON_INT / (SCAFFOLD_INSNS + MAX_REPS) as u64;

/// Upper bound on a duration in seconds (`deadline_secs`,
/// `--shard-timeout`; ~31.7 years). Anything larger is a client bug, and
/// huge values would overflow `Duration`/`Instant` arithmetic.
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

/// Experiment definition for a measurement run. Bounds are in the field
/// tables (`fields`).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Worker threads (`None` = the runner's default). Never changes
    /// results, only wall-clock time.
    pub jobs: Option<u64>,
    /// Extra attempts for a cell whose run panics or times out (`None` =
    /// the runner's default). Each attempt builds a fresh system from the
    /// same shard seed, so a retry that succeeds is byte-identical to a
    /// first-attempt success.
    pub retries: Option<u64>,
    /// Wall-clock budget in seconds, measured from job start; once it
    /// elapses the serve daemon stops the job's running cells within
    /// 2,048 steps, discards them, and ends the job with terminal status
    /// `deadline_exceeded`. `None` = no deadline. Never changes results,
    /// only whether the job is allowed to finish.
    pub deadline_secs: Option<f64>,
    /// Instructions measured per workload.
    pub instructions: u64,
    /// Root RNG seed; each `(workload, shard)` cell runs with a
    /// SplitMix64-split stream of it (`vax_workload::rte::shard_seed`).
    pub seed: u64,
    /// Replica shards per workload: each measures `instructions` with its
    /// own seed stream, and the shards merge into the workload's
    /// measurement.
    pub shards: u64,
    /// Which table/figure to emit (one of [`EXPERIMENTS`]).
    pub experiment: String,
    /// Also report the five constituent per-workload CPIs.
    pub per_workload: bool,
    /// Interval-sampler period in cycles for the telemetry time series.
    pub interval_cycles: u64,
    /// Emit the µPC attribution profile (hot-routine report, folded
    /// stacks, profile.json).
    pub profile: bool,
    /// Rows in the hot-routine report.
    pub top: u64,
    /// Flight-recorder capacity in instructions; 0 disables it.
    pub flight_recorder: u64,
    /// Fault-injection seed: when set, every cell runs under a
    /// deterministic [`vax780::FaultPlan`] split from it.
    pub fault_seed: Option<u64>,
    /// Fault classes (canonical order; empty iff `fault_seed` is `None`,
    /// defaulted to all classes when a seed is given without classes).
    pub fault_classes: Vec<FaultClass>,
    /// Fail the job when any cell was quarantined (partial results are
    /// still exported either way).
    pub strict: bool,
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        RunSpec {
            jobs: None,
            retries: None,
            deadline_secs: None,
            instructions: crate::DEFAULT_INSTRUCTIONS,
            seed: crate::DEFAULT_SEED,
            shards: 1,
            experiment: "all".to_string(),
            per_workload: false,
            interval_cycles: 500_000,
            profile: false,
            top: 20,
            flight_recorder: 0,
            fault_seed: None,
            fault_classes: Vec::new(),
            strict: false,
        }
    }
}

/// Experiment definition for the probe grid (characterize and the grid
/// half of refute).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSpec {
    /// Worker threads (`None` = the runner's default).
    pub jobs: Option<u64>,
    /// Retry budget per cell (`None` = the runner's default).
    pub retries: Option<u64>,
    /// Wall-clock budget in seconds (see [`RunSpec::deadline_secs`]).
    pub deadline_secs: Option<f64>,
    /// Opcode filter (upper-cased mnemonics); empty = the full table.
    pub opcodes: Vec<String>,
    /// Addressing-mode filter (mode keys); empty = all modes.
    pub modes: Vec<String>,
    /// Probe copies per loop iteration.
    pub reps: u64,
    /// Measured loop iterations per cell.
    pub iters: u64,
    /// Warmup instructions per cell.
    pub warmup: u64,
}

impl Default for ProbeSpec {
    fn default() -> ProbeSpec {
        ProbeSpec {
            jobs: None,
            retries: None,
            deadline_secs: None,
            opcodes: Vec::new(),
            modes: Vec::new(),
            reps: 8,
            iters: 64,
            warmup: DEFAULT_WARMUP,
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
    /// Minimize and record at most this many refutations (the rest are
    /// still counted and reported).
    pub max_refutations: u64,
    /// Inline cost table to refute (`vax-characterize/v1` object);
    /// `None` = invariant checks only. JSON only: the command line names
    /// a file instead (`--model`).
    pub model: Option<Json>,
}

impl Default for RefuteSpec {
    fn default() -> RefuteSpec {
        RefuteSpec {
            probe: ProbeSpec::default(),
            abs_tol: 0.5,
            rel_tol: 0.01,
            max_refutations: 8,
            model: None,
        }
    }
}

/// What a spec field accepts. Integer bounds are inclusive.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A finite non-negative number.
    Num,
    /// A duration in seconds, `0 < x ≤ MAX_DEADLINE_SECS`.
    Secs,
    /// A boolean; on the command line a flag without a value sets it.
    Switch,
    /// One of these names.
    Text(&'static [&'static str]),
    /// A list of names, comma-separated on the command line. The function
    /// returns one item's canonical form, or an error naming it; it gets
    /// the field's name for that error.
    List(fn(&str, &str) -> Result<String, String>),
    /// A JSON object; JSON only.
    Object,
}

/// One spec field.
pub(crate) struct Field {
    /// The JSON key; the flag is [`flag`] of it.
    pub key: &'static str,
    /// What the field accepts.
    pub kind: Kind,
    /// Placeholder of the flag's value in the usage (`""` for a switch);
    /// `None` = no flag, the field is JSON only.
    pub arg: Option<&'static str>,
    /// Where the field lives in a spec of its kind.
    slot: fn(&mut JobSpec) -> &mut dyn Slot,
}

const fn field(
    key: &'static str,
    kind: Kind,
    arg: Option<&'static str>,
    slot: fn(&mut JobSpec) -> &mut dyn Slot,
) -> Field {
    Field {
        key,
        kind,
        arg,
        slot,
    }
}

/// The runtime fields every kind carries, first in its encoding.
#[rustfmt::skip]
const COMMON: &[Field] = &[
    field("jobs", Int(1, MAX_GRID), Some("N"), |s| runtime(s).0),
    field("retries", Int(0, MAX_RETRIES), Some("N"), |s| runtime(s).1),
    field("deadline_secs", Secs, None, |s| runtime(s).2),
];

/// The fields of a measurement run.
#[rustfmt::skip]
const RUN: &[Field] = &[
    field("instructions", Int(1, MAX_JSON_INT), Some("N"), |s| &mut run(s).instructions),
    field("seed", Int(0, MAX_JSON_INT), Some("S"), |s| &mut run(s).seed),
    field("shards", Int(1, MAX_GRID), Some("K"), |s| &mut run(s).shards),
    field("experiment", Text(EXPERIMENTS), Some("fig1|table1..table9|events|all"),
          |s| &mut run(s).experiment),
    field("per_workload", Switch, Some(""), |s| &mut run(s).per_workload),
    field("interval_cycles", Int(1, MAX_JSON_INT), Some("N"), |s| &mut run(s).interval_cycles),
    field("profile", Switch, Some(""), |s| &mut run(s).profile),
    field("top", Int(1, MAX_JSON_INT), Some("N"), |s| &mut run(s).top),
    field("flight_recorder", Int(0, MAX_FLIGHT_RECORDER), Some("K"),
          |s| &mut run(s).flight_recorder),
    field("fault_seed", Int(0, MAX_JSON_INT), Some("S"), |s| &mut run(s).fault_seed),
    field("fault_classes", List(fault_class), Some("C1,C2,.."), |s| &mut run(s).fault_classes),
    field("strict", Switch, Some(""), |s| &mut run(s).strict),
];

/// The fields of the probe grid (characterize, and the grid of refute).
#[rustfmt::skip]
const PROBE: &[Field] = &[
    field("opcodes", List(opcode), Some("M1,M2,.."), |s| &mut probe(s).opcodes),
    field("modes", List(mode), Some("K1,K2,.."), |s| &mut probe(s).modes),
    field("reps", Int(1, MAX_REPS as u64), Some("N"), |s| &mut probe(s).reps),
    field("iters", Int(1, MAX_PROBE_ITERS), Some("N"), |s| &mut probe(s).iters),
    field("warmup", Int(0, MAX_JSON_INT), Some("N"), |s| &mut probe(s).warmup),
];

/// The model comparison fields of a refutation sweep.
#[rustfmt::skip]
const REFUTE: &[Field] = &[
    field("abs_tol", Num, Some("X"), |s| &mut refute(s).abs_tol),
    field("rel_tol", Num, Some("X"), |s| &mut refute(s).rel_tol),
    field("max_refutations", Int(0, MAX_JSON_INT), Some("N"), |s| &mut refute(s).max_refutations),
    field("model", Object, None, |s| &mut refute(s).model),
];

/// The fields of spec kind `kind`, in canonical order (none for an
/// unknown kind).
pub(crate) fn fields(kind: &str) -> impl Iterator<Item = &'static Field> {
    let tables: &[&[Field]] = match kind {
        "run" => &[COMMON, RUN],
        "characterize" => &[COMMON, PROBE],
        "refute" => &[COMMON, PROBE, REFUTE],
        _ => &[],
    };
    tables.iter().flat_map(|t| t.iter())
}

/// The command-line flag of field `key`: `--` plus the key with `-` for
/// `_`.
pub(crate) fn flag(key: &str) -> String {
    format!("--{}", key.replace('_', "-"))
}

/// The syntax a spec arrived in, which error messages name fields in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Syntax {
    /// A JSON object: fields are `'key'`.
    Json,
    /// Command-line flags: fields are `--flag`.
    Argv,
}

impl Syntax {
    /// How this syntax names field `key`.
    pub(crate) fn name(self, key: &str) -> String {
        match self {
            Syntax::Json => format!("'{key}'"),
            Syntax::Argv => flag(key),
        }
    }
}

impl Kind {
    /// Check `v`, the value of field `key` in `syntax`, and return it in
    /// canonical form.
    ///
    /// # Errors
    /// Names the field and what it accepts.
    pub(crate) fn check(self, key: &str, v: &Json, syntax: Syntax) -> Result<Json, String> {
        let name = syntax.name(key);
        match self {
            Int(min, max) => {
                let Some(n) = v.as_i64().and_then(|n| u64::try_from(n).ok()) else {
                    return Err(format!("{name} must be a non-negative integer"));
                };
                if n < min {
                    return Err(format!("{name} must be at least {min}"));
                }
                if n > max {
                    return Err(format!("{name} must be at most {max}"));
                }
            }
            Num | Secs => {
                let Some(x) = v.as_f64() else {
                    return Err(format!("{name} must be a number"));
                };
                if !x.is_finite() || x < 0.0 {
                    return Err(format!("{name} must be a finite non-negative number"));
                }
                if matches!(self, Secs) && x == 0.0 {
                    return Err(format!("{name} must be greater than zero"));
                }
                if matches!(self, Secs) && x > MAX_DEADLINE_SECS {
                    return Err(format!("{name} must be at most {MAX_DEADLINE_SECS:e}"));
                }
            }
            Switch if !matches!(v, Json::Bool(_)) => {
                return Err(format!("{name} must be a boolean"));
            }
            Text(names) => match v.as_str() {
                None => return Err(format!("{name} must be a string")),
                Some(s) if !names.contains(&s) => {
                    return Err(format!(
                        "unknown {key} '{s}' (expected one of: {})",
                        names.join(", ")
                    ));
                }
                Some(_) => {}
            },
            List(item) => {
                let items = v
                    .as_arr()
                    .ok_or_else(|| format!("{name} must be an array of strings"))?;
                return items
                    .iter()
                    .map(|i| match i.as_str() {
                        None => Err(format!("{name} must contain only strings")),
                        Some(s) if s.trim().is_empty() => Err(format!("{name} has an empty item")),
                        Some(s) => item(s, &name).map(Json::Str),
                    })
                    .collect::<Result<_, _>>()
                    .map(Json::Arr);
            }
            Object if !matches!(v, Json::Obj(_)) => {
                return Err(format!("{name} must be an object or null"));
            }
            Switch | Object => {}
        }
        Ok(v.clone())
    }

    /// The JSON value that `raw`, the command-line value of field `key`,
    /// stands for. [`Kind::check`] then validates it as it does a JSON
    /// body's. (A switch's flag takes no value and stands for `true`.)
    ///
    /// # Errors
    /// A missing value, or one that is not a number where the kind needs
    /// one.
    pub(crate) fn parse_arg(self, key: &str, raw: Option<&String>) -> Result<Json, String> {
        let flag = flag(key);
        let raw = raw.ok_or_else(|| format!("{flag} requires a value"))?;
        Ok(match self {
            Int(..) => parse_u64(&flag, Some(raw))?.into(),
            Num | Secs => {
                Json::Num(raw.parse().map_err(|_| {
                    format!("invalid value for {flag}: '{raw}' (expected a number)")
                })?)
            }
            List(_) => Json::arr(raw.split(',').map(Json::from)),
            Switch | Text(_) | Object => raw.as_str().into(),
        })
    }
}

/// An opcode mnemonic, upper-cased.
fn opcode(mn: &str, name: &str) -> Result<String, String> {
    vax_arch::Opcode::from_mnemonic(mn)
        .map(|_| mn.to_uppercase())
        .ok_or_else(|| format!("unknown opcode '{mn}' in {name}"))
}

/// An addressing-mode key.
fn mode(key: &str, name: &str) -> Result<String, String> {
    vax_asm::probe::mode_from_key(key)
        .map(|_| key.to_string())
        .ok_or_else(|| {
            format!(
                "unknown addressing mode '{key}' in {name} (e.g. register, byte_disp, \
                 pc_relative_deferred)"
            )
        })
}

/// A fault-class name.
fn fault_class(name: &str, _: &str) -> Result<String, String> {
    FaultClass::parse(name.trim()).map(|c| c.name().to_string())
}

/// How a field's value is stored in its spec struct.
trait Slot {
    /// Store `v`, a value its field's [`Kind::check`] accepted.
    fn load(&mut self, v: Json);
    /// The canonical encoding of the stored value.
    fn save(&self) -> Json;
}

/// `slot!(T, |v| load, |x| save)`: [`Slot`] for `T`, where `load` is the
/// `T` for the checked value `v` and `save` encodes `x: &T`.
macro_rules! slot {
    ($t:ty, |$v:ident| $load:expr, |$x:ident| $save:expr) => {
        impl Slot for $t {
            fn load(&mut self, $v: Json) {
                *self = $load;
            }
            fn save(&self) -> Json {
                let $x = self;
                $save
            }
        }
    };
}

slot! { u64, |v| v.as_i64().map_or(0, |n| n as u64), |x| (*x).into() }
slot! { Option<u64>, |v| v.as_i64().map(|n| n as u64), |x| x.map_or(Json::Null, Json::from) }
slot! { f64, |v| v.as_f64().unwrap_or_default(), |x| (*x).into() }
slot! { Option<f64>, |v| v.as_f64(), |x| x.map_or(Json::Null, Json::from) }
slot! { bool, |v| v == Json::Bool(true), |x| (*x).into() }
slot! { String, |v| v.as_str().unwrap_or_default().to_string(), |x| x.as_str().into() }
slot! { Vec<String>, |v| names(&v), |x| Json::arr(x.iter().map(|s| s.as_str().into())) }
slot! {
    Vec<FaultClass>,
    |v| vax780::parse_classes(&names(&v).join(",")).unwrap_or_default(),
    |x| Json::arr(x.iter().map(|c| c.name().into()))
}
slot! { Option<Json>, |v| Some(v), |x| x.clone().unwrap_or(Json::Null) }

/// The strings of a checked list value.
fn names(v: &Json) -> Vec<String> {
    v.as_arr()
        .unwrap_or_default()
        .iter()
        .filter_map(|s| s.as_str().map(str::to_string))
        .collect()
}

/// The runtime fields of any spec.
fn runtime(s: &mut JobSpec) -> (&mut Option<u64>, &mut Option<u64>, &mut Option<f64>) {
    match s {
        JobSpec::Run(r) => (&mut r.jobs, &mut r.retries, &mut r.deadline_secs),
        s => {
            let p = probe(s);
            (&mut p.jobs, &mut p.retries, &mut p.deadline_secs)
        }
    }
}

fn run(s: &mut JobSpec) -> &mut RunSpec {
    match s {
        JobSpec::Run(r) => r,
        _ => unreachable!("run fields belong to run specs"),
    }
}

fn probe(s: &mut JobSpec) -> &mut ProbeSpec {
    match s {
        JobSpec::Characterize(p) | JobSpec::Refute(RefuteSpec { probe: p, .. }) => p,
        JobSpec::Run(_) => unreachable!("probe fields belong to probe specs"),
    }
}

fn refute(s: &mut JobSpec) -> &mut RefuteSpec {
    match s {
        JobSpec::Refute(r) => r,
        _ => unreachable!("refute fields belong to refute specs"),
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

    /// Wall-clock budget in seconds, if the spec carries one.
    pub fn deadline_secs(&self) -> Option<f64> {
        match self {
            JobSpec::Run(s) => s.deadline_secs,
            JobSpec::Characterize(s) => s.deadline_secs,
            JobSpec::Refute(s) => s.probe.deadline_secs,
        }
    }

    /// Canonical encoding: every field of the kind, in table order,
    /// defaults materialized. `encode(decode(encode(x)))` is
    /// byte-identical to `encode(x)`.
    pub fn encode(&self) -> Json {
        // Slots lend `&mut` access, so the fields are read from a copy.
        let mut spec = self.clone();
        let mut m: Vec<(String, Json)> = vec![
            ("format_version".into(), JOBSPEC_FORMAT_VERSION.into()),
            ("kind".into(), self.kind().into()),
        ];
        m.extend(fields(self.kind()).map(|f| (f.key.to_string(), (f.slot)(&mut spec).save())));
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
        JobSpec::read(json, Syntax::Json).map_err(|e| format!("jobspec: {e}"))
    }

    /// Decode and validate a spec object written in `syntax`: the one
    /// validator of both syntaxes. Absent and `null` fields keep their
    /// defaults.
    ///
    /// # Errors
    /// Names the offending field as `syntax` spells it.
    pub(crate) fn read(json: &Json, syntax: Syntax) -> Result<JobSpec, String> {
        let Json::Obj(members) = json else {
            return Err("the body must be a JSON object".to_string());
        };
        let version = match json.get("format_version") {
            None | Some(Json::Null) => JOBSPEC_FORMAT_VERSION,
            Some(v) => Int(0, MAX_JSON_INT)
                .check("format_version", v, syntax)?
                .as_i64()
                .map_or(0, |n| n as u64),
        };
        if version != JOBSPEC_FORMAT_VERSION {
            return Err(format!(
                "unsupported format_version {version} (this build speaks \
                 {JOBSPEC_FORMAT_VERSION})"
            ));
        }
        let kind = match json.get("kind") {
            None => "run",
            Some(Json::Str(s)) => s.as_str(),
            Some(_) => return Err(format!("{} must be a string", syntax.name("kind"))),
        };
        let mut spec = match kind {
            "run" => JobSpec::Run(RunSpec::default()),
            "characterize" => JobSpec::Characterize(ProbeSpec::default()),
            "refute" => JobSpec::Refute(RefuteSpec::default()),
            other => {
                return Err(format!(
                    "unknown kind '{other}' (expected run, characterize, or refute)"
                ))
            }
        };
        if let Some((key, _)) = members.iter().find(|(key, _)| {
            key != "format_version" && key != "kind" && !fields(kind).any(|f| f.key == key)
        }) {
            return Err(format!(
                "unknown field {} for kind '{kind}'",
                syntax.name(key)
            ));
        }
        for f in fields(kind) {
            if let Some(v) = json.get(f.key).filter(|v| **v != Json::Null) {
                let v = f.kind.check(f.key, v, syntax)?;
                (f.slot)(&mut spec).load(v);
            }
        }
        if let JobSpec::Run(r) = &mut spec {
            match r.fault_seed {
                // Classes without a seed would silently inject nothing.
                None if !r.fault_classes.is_empty() => {
                    return Err(format!(
                        "{} requires {}",
                        syntax.name("fault_classes"),
                        syntax.name("fault_seed")
                    ));
                }
                Some(_) if r.fault_classes.is_empty() => r.fault_classes = FaultClass::ALL.to_vec(),
                _ => {}
            }
        }
        Ok(spec)
    }

    /// Materialize run [`Options`] from a run spec. Runtime knobs (out,
    /// format, verbosity, tracing) stay at their defaults for the caller
    /// to fill in; `jobs`/`retries` fall back to `default_jobs` /
    /// `default_retries` when the spec leaves them unset.
    ///
    /// # Panics
    /// Panics if the spec is not `kind = run`.
    pub fn to_run_options(&self, default_jobs: usize, default_retries: u32) -> Options {
        let JobSpec::Run(s) = self else {
            panic!("to_run_options on a {} spec", self.kind());
        };
        let mut spec = s.clone();
        spec.jobs.get_or_insert(default_jobs as u64);
        spec.retries.get_or_insert(u64::from(default_retries));
        Options {
            spec,
            ..Options::default()
        }
    }

    /// Materialize [`CharacterizeOptions`] from a characterize or refute
    /// spec (see [`JobSpec::to_run_options`] for the knob split). For a
    /// refute spec the inline model is *not* carried over: the caller
    /// writes it to a file and sets `model_file` on the result.
    ///
    /// # Panics
    /// Panics if the spec is `kind = run`.
    pub fn to_characterize_options(
        &self,
        default_jobs: usize,
        default_retries: u32,
    ) -> CharacterizeOptions {
        let mut spec = match self {
            JobSpec::Characterize(probe) => RefuteSpec {
                probe: probe.clone(),
                ..RefuteSpec::default()
            },
            JobSpec::Refute(r) => RefuteSpec {
                model: None,
                ..r.clone()
            },
            JobSpec::Run(_) => panic!("to_characterize_options on a run spec"),
        };
        spec.probe.jobs.get_or_insert(default_jobs as u64);
        spec.probe.retries.get_or_insert(u64::from(default_retries));
        CharacterizeOptions {
            spec,
            ..CharacterizeOptions::default()
        }
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

        // Past the bound, a probe's measured length, iters x
        // (SCAFFOLD_INSNS + reps) instructions, would wrap a u64.
        assert_eq!(MAX_PROBE_ITERS, 461_168_601_842_738_790);
        for kind in ["characterize", "refute"] {
            let iters = |n: u64| JobSpec::decode(&format!(r#"{{"kind": "{kind}", "iters": {n}}}"#));
            let over = iters(MAX_PROBE_ITERS + 1).unwrap_err();
            assert!(
                over.contains("'iters' must be at most 461168601842738790"),
                "{over}"
            );
            match iters(MAX_PROBE_ITERS).unwrap() {
                JobSpec::Characterize(p) => assert_eq!(p.iters, MAX_PROBE_ITERS),
                JobSpec::Refute(r) => assert_eq!(r.probe.iters, MAX_PROBE_ITERS),
                JobSpec::Run(_) => panic!("expected a probe spec"),
            }
        }
    }

    #[test]
    fn flight_recorder_is_bounded() {
        // An unbounded ring reservation aborted the daemon's worker, and
        // the journal replayed the abort on every restart.
        let over = MAX_FLIGHT_RECORDER + 1;
        let err = JobSpec::decode(&format!(r#"{{"flight_recorder": {over}}}"#)).unwrap_err();
        assert!(
            err.contains("'flight_recorder' must be at most 4096"),
            "{err}"
        );
        let err =
            JobSpec::decode(&format!(r#"{{"flight_recorder": {MAX_JSON_INT}}}"#)).unwrap_err();
        assert!(err.contains("'flight_recorder'"), "{err}");
        let at = format!(r#"{{"flight_recorder": {MAX_FLIGHT_RECORDER}}}"#);
        match JobSpec::decode(&at).unwrap() {
            JobSpec::Run(s) => assert_eq!(s.flight_recorder, MAX_FLIGHT_RECORDER),
            _ => panic!("expected run"),
        }
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
        assert_eq!(opts.spec.instructions, 5000);
        assert_eq!((opts.jobs(), opts.retries()), (3, 2), "daemon defaults");
        let spec = JobSpec::decode(r#"{"kind": "run", "jobs": 2, "retries": 0}"#).unwrap();
        let opts = spec.to_run_options(3, 2);
        assert_eq!((opts.jobs(), opts.retries()), (2, 0), "spec overrides");
    }
}
