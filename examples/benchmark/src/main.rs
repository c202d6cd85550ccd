//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--spans DIR] [--json FILE]
//! benchmark --compare A B      # bound rule, one row per (workload, metric)
//! benchmark --pairs A B        # gain rule over same-seed parent/change pairs
//! benchmark --list             # the workloads and why each was chosen
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run (`--trace
//! 1`) prints the per-layer ledger. Either way the correctness checks run,
//! the last stdout line is the one-line JSON result, and the exit code is
//! nonzero if any check failed. See README.md.

mod compare;
mod daemon;
mod kernels;
mod reference;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use vax_analysis::Json;
use vax_bench::jobspec::JobSpec;
use vax_trace::{ArgValue, Event, EventKind, Tracer};

use crate::daemon::Daemon;
use crate::reference::{Normalizer, Timings, Work};
use crate::replay::Replay;
use crate::report::Report;
use crate::spans::{Recorder, Span};
use crate::stats::{fnv1a64, median, quartiles, tail};
use crate::workloads::Def;

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--spans DIR] [--json FILE]\n       benchmark --compare A B | --pairs A B | --list";

/// Where jobs write their artifacts; removed when the run ends.
const SCRATCH: &str = ".bench_out";
/// Share of a traced run's window spent on engine jobs and the replays
/// that alternate with them; the micro-kernels take the rest.
const TRACED_SHARE: f64 = 0.85;
/// Every how many probe cells the characterize replay visits.
const PROBE_REPLAY_STRIDE: usize = 8;
/// The calls of one probe cell, which the engine's `probe` span covers.
const PROBE_CHAIN: [&str; 6] = [
    "codegen",
    "boot",
    "rehydrate",
    "measure",
    "reduce",
    "validate",
];
/// The factor by which the replay's simulation time may stray from the
/// engine's before the replay no longer describes the computation the
/// engine does. The two are timed seconds apart, one after the other, and
/// on a shared host a slow spell that lands on one side alone moves their
/// ratio by up to ~40% where a run holds only one or two pairs
/// (`characterize`, `composite-long`); a replay left behind by a pipeline
/// change is off by more.
const REPLAY_RATIO_LIMIT: f64 = 2.0;
/// Least share of the replays' time that layer spans must account for.
const MIN_COVERAGE: f64 = 0.95;
/// Artifacts that differ between a served job and an in-process run by
/// design: wall-clock roll-up and serve-only bookkeeping.
const SERVE_ONLY: &[&str] = &["runtime.json", "spec.json", "status.json", "output.txt"];

struct Args {
    def: &'static Def,
    seed: u64,
    seconds: u64,
    traced: bool,
    spans: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (vax_bench::DEFAULT_SEED, 20u64, false);
    let (mut spans, mut json) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--json" => json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let def = workloads::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|d| d.name).collect();
        format!(
            "unknown workload '{name}' (expected one of: {})",
            names.join(", ")
        )
    })?;
    Ok(Args {
        def,
        seed,
        seconds,
        traced,
        spans,
        json,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let two = |argv: &[String]| match argv {
        [_, a, b] => Ok((PathBuf::from(a), PathBuf::from(b))),
        _ => Err(format!("{} takes two record files or directories", argv[0])),
    };
    let outcome = match argv.first().map(String::as_str) {
        Some("--compare") => two(&argv)
            .and_then(|(a, b)| compare::compare(&a, &b))
            .map(|worse| {
                if worse {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }),
        Some("--pairs") => two(&argv)
            .and_then(|(a, b)| compare::pairs(&a, &b))
            .map(|()| ExitCode::SUCCESS),
        Some("--list") => {
            for d in &workloads::WORKLOADS {
                println!("{:<15} {}", d.name, d.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => parse(&argv).and_then(|args| run(&args)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let scratch = Path::new(SCRATCH).join(format!("{}-{}", args.def.name, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut report = Report::new(args.def.name, args.seed, args.seconds, args.traced);
    let mut rec = Recorder::new(args.traced);
    let result = if args.def.served {
        serve(args, &scratch, &mut report, &mut rec)
    } else {
        in_process(args, &scratch, &mut report, &mut rec)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    result?;
    if args.traced {
        for k in kernels::run_all() {
            report.gated_spread(k.name, k.median_ns, (k.q1_ns, k.q3_ns, k.repeats));
        }
    }
    report.check_complete();
    if let Some(dir) = &args.spans {
        let path = dir.join(format!("{}.spans.json", args.def.name));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(rec.spans()).to_string_pretty()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json().to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    report.print_ledger();
    println!("{}", report.result_line());
    Ok(if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// End-to-end metrics shared by every untraced run: the gated set-up and
/// job times at the reference host speed, and their wall times beside them.
fn end_to_end(report: &mut Report, setup: &Timings, jobs: &Timings, instructions: u64) {
    report.gated_samples("setup_s", &setup.normalized);
    report.extra_samples("setup_wall_s", "s", "lower", &setup.wall);
    let ms = |v: &[f64]| -> Vec<f64> { v.iter().map(|s| s * 1e3).collect() };
    report.gated_samples("job_p50_ms", &ms(&jobs.normalized));
    let wall_ms = ms(&jobs.wall);
    report.extra_samples("job_wall_p50_ms", "ms", "lower", &wall_ms);
    let rates: Vec<f64> = jobs.wall.iter().map(|s| instructions as f64 / s).collect();
    report.extra_samples("instr_per_s", "instr/s", "higher", &rates);
    if let Some((p, v)) = tail(&wall_ms) {
        report.extra("job_tail_ms", "ms", "lower", v);
        report.extra("job_tail_percentile", "%", "none", f64::from(p));
    }
    report.extra("jobs", "count", "none", jobs.wall.len() as f64);
    report.extra(
        "instructions_per_job",
        "instr",
        "exact",
        instructions as f64,
    );
}

/// The process's peak resident set so far (`VmHWM`).
fn peak_rss(report: &mut Report) {
    if let Some(bytes) = vax_bench::meter::peak_rss_bytes() {
        report.gated("peak_rss_mb", bytes as f64 / (1024.0 * 1024.0));
    }
}

/// The artifact digest, printed so a speed-only change can be seen to leave
/// simulated output unchanged.
fn digest(report: &mut Report, spec: &JobSpec, bytes: &str) {
    report.digest = Some(format!(
        "{} fnv1a64:{:016x}",
        workloads::primary_artifact(spec),
        fnv1a64(bytes.as_bytes())
    ));
}

fn in_process(
    args: &Args,
    scratch: &Path,
    report: &mut Report,
    rec: &mut Recorder,
) -> Result<(), String> {
    let spec = workloads::decode(args.def, args.seed);
    let out = scratch.join("job");
    let mut first: Option<String> = None;
    let mut instructions = 0;
    let mut job = |report: &mut Report, tracer: Option<&Tracer>| {
        let (wall, outcome) = workloads::execute(&spec, &out, tracer);
        let bytes = workloads::check_job(report, &spec, &out, &outcome, first.as_deref());
        if first.is_none() {
            if let Some(b) = bytes {
                instructions = workloads::job_instructions(&spec, &b);
                digest(report, &spec, &b);
                if let Ok(tables) = std::fs::read_to_string(out.join("tables.json")) {
                    workloads::accuracy(report, &tables);
                }
                first = Some(b);
            }
        }
        wall
    };
    if !args.traced {
        let mut norm = Normalizer::new();
        let units = workloads::setup_units(&spec);
        let mut setup = Timings::default();
        workloads::setup(|pass| {
            let (wall, normalized) = norm.time(Work::Build, || {
                let t = Instant::now();
                workloads::prime(&spec, pass as u64 % units);
                t.elapsed().as_secs_f64() * units as f64
            });
            setup.push(wall, normalized);
            Ok(wall)
        })?;
        let mut jobs = Timings::default();
        workloads::closed_loop(args.seconds as f64, 2, |_| {
            let (wall, normalized) = norm.time(Work::Interpret, || job(report, None));
            jobs.push(wall, normalized);
            wall
        });
        end_to_end(report, &setup, &jobs, instructions);
        peak_rss(report);
        let (interpret, build) = norm.gauges_ms();
        report.extra_samples("host.interpret_ms", "ms", "none", &interpret);
        report.extra_samples("host.build_ms", "ms", "none", &build);
        return Ok(());
    }

    // Traced: engine jobs with the engine's tracer on, each followed by a
    // replay of its work under the benchmark's spans, so every replay has
    // an engine job measured next to it under the same host conditions.
    // One untimed job first, so that neither side of the first pair pays
    // for the process's first use of the allocator and caches.
    job(report, None);
    let workers = match &spec {
        JobSpec::Run(r) => r.jobs.unwrap_or(1).min(5 * r.shards) as usize,
        JobSpec::Characterize(p) => p.jobs.unwrap_or(1) as usize,
        JobSpec::Refute(_) => 1,
    };
    let (mut engine, mut replays) = (Vec::new(), Vec::new());
    workloads::closed_loop(args.seconds as f64 * TRACED_SHARE, 1, |_| {
        let start = Instant::now();
        let tracer = Tracer::enabled();
        let wall = job(report, Some(&tracer));
        engine.push(EngineJob::from_tracer(&tracer, wall));
        replays.push(match &spec {
            JobSpec::Run(r) => replay::run(r, workers, rec),
            JobSpec::Characterize(p) => replay::probes(p, PROBE_REPLAY_STRIDE, workers, rec),
            JobSpec::Refute(_) => unreachable!("no workload refutes"),
        });
        start.elapsed().as_secs_f64()
    });
    let engine_bytes = first.unwrap_or_default();
    for r in &replays {
        if let JobSpec::Run(_) = &spec {
            report.check(
                "replay-identical",
                r.measurement_json == engine_bytes,
                || {
                    format!(
                        "replayed measurement.json {:016x} != engine {:016x}",
                        fnv1a64(r.measurement_json.as_bytes()),
                        fnv1a64(engine_bytes.as_bytes())
                    )
                },
            );
        }
        for record in &r.records {
            let same = engine_bytes.contains(&replay::record_text(record));
            report.check("replay-identical", same, || {
                format!(
                    "replayed {} {:?} is not in the engine's costs.json",
                    record.opcode.mnemonic(),
                    record.mode
                )
            });
        }
    }
    let probe = matches!(spec, JobSpec::Characterize(_));
    layers(report, rec, &replays, &engine, workers as f64, probe);
    Ok(())
}

/// What one traced engine job reported: its wall time, phase totals and
/// counters (the data of its `runtime.json`).
struct EngineJob {
    wall_ms: f64,
    phases: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
    /// Each cell's simulation time, µs, by cell: its `simulate` (or
    /// `probe`) span. A `runtime.json` keeps only phase totals, so served
    /// jobs have none.
    cells_us: BTreeMap<String, f64>,
}

impl EngineJob {
    fn from_tracer(tracer: &Tracer, wall_s: f64) -> EngineJob {
        EngineJob {
            wall_ms: wall_s * 1e3,
            cells_us: engine_cells_us(tracer),
            phases: tracer
                .phase_totals()
                .into_iter()
                .map(|(k, t)| (k, (t.count, t.total_us)))
                .collect(),
            counters: tracer
                .counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    fn from_runtime_json(text: &str, wall_s: f64) -> Option<EngineJob> {
        let j = Json::parse(text).ok()?;
        let Json::Obj(phases) = j.get("phases")? else {
            return None;
        };
        let Json::Obj(counters) = j.get("counters")? else {
            return None;
        };
        Some(EngineJob {
            wall_ms: wall_s * 1e3,
            cells_us: BTreeMap::new(),
            phases: phases
                .iter()
                .filter_map(|(k, v)| {
                    let n = v.get("count")?.as_i64()? as u64;
                    Some((k.clone(), (n, v.get("total_us")?.as_i64()? as u64)))
                })
                .collect(),
            counters: counters
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_i64()? as u64)))
                .collect(),
        })
    }

    fn phase_us(&self, name: &str) -> (u64, f64) {
        self.phases
            .get(name)
            .map_or((0, 0.0), |&(n, us)| (n, us as f64))
    }

    fn run_ms(&self) -> f64 {
        self.phase_us("run").1 / 1e3
    }
}

/// Each cell's simulation time in a traced engine job, µs, keyed as the
/// replay keys its cells: `simulate` spans by their `cell` span's workload
/// and shard, `probe` spans by opcode and addressing mode.
fn engine_cells_us(tracer: &Tracer) -> BTreeMap<String, f64> {
    let arg = |e: &Event, key: &str| {
        e.args.iter().find(|a| a.0 == key).map(|a| match &a.1 {
            ArgValue::Str(s) => s.clone(),
            ArgValue::Int(i) => i.to_string(),
        })
    };
    let keys: BTreeMap<u64, String> = tracer
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .filter_map(|e| {
            let key = match e.name.as_str() {
                "cell" => format!("{}/{}", arg(e, "workload")?, arg(e, "shard")?),
                "probe" => format!("{} {}", arg(e, "opcode")?, arg(e, "mode")?),
                _ => return None,
            };
            Some((e.span, key))
        })
        .collect();
    tracer
        .spans()
        .iter()
        .filter_map(|s| {
            let cell = match s.name.as_str() {
                "simulate" => s.parent,
                "probe" => s.id,
                _ => return None,
            };
            Some((keys.get(&cell)?.clone(), s.dur_us() as f64))
        })
        .collect()
}

/// Each replayed cell's simulation time, µs, by cell id: the self time of
/// its `measure` span, or for probes of its codegen-to-validate chain.
fn replay_cells_us(spans: &[Span], root: usize, probe: bool) -> BTreeMap<String, f64> {
    let names: &[&str] = if probe { &PROBE_CHAIN } else { &["measure"] };
    let selfs = spans::self_times(spans);
    let mut cells = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(c) = s.parent else { continue };
        let cell = &spans[c];
        if cell.name == "cell" && cell.parent == Some(root) && names.contains(&s.name) {
            if let Some(id) = &cell.cell {
                *cells.entry(id.clone()).or_insert(0.0) += selfs[i] as f64 / 1e3;
            }
        }
    }
    cells
}

/// The replay's simulation time over the engine's: the median, over every
/// cell of every pair of an engine job and the replay right after it, of
/// the replayed cell's time over the same cell's in the engine, so a slow
/// spell that lands on a few cells does not move it. Served jobs leave only
/// phase totals, so there each replay's `measure` total is set against the
/// job's `simulate` total instead.
fn measure_vs_engine(spans: &[Span], replays: &[Replay], engine: &[EngineJob], probe: bool) -> f64 {
    let ratios: Vec<f64> = replays
        .iter()
        .zip(engine)
        .flat_map(|(r, j)| {
            if j.cells_us.is_empty() {
                let measure = spans::self_by_name(spans, &[r.root])
                    .get("measure")
                    .map_or(0.0, |e| e.1 as f64);
                return vec![measure / (j.phase_us("simulate").1 * 1e3)];
            }
            replay_cells_us(spans, r.root, probe)
                .into_iter()
                .filter_map(|(id, us)| Some(us / j.cells_us.get(&id)?))
                .collect()
        })
        .collect();
    median(&ratios)
}

/// The per-layer ledger of a traced run. Times are pooled over every
/// replay; counts describe one job's simulated work, which repeats exactly.
fn layers(
    report: &mut Report,
    rec: &Recorder,
    replays: &[Replay],
    engine: &[EngineJob],
    workers: f64,
    probe: bool,
) {
    let spans = rec.spans();
    let roots: Vec<usize> = replays.iter().map(|r| r.root).collect();
    let by = spans::self_by_name(spans, &roots);
    let ns = |name: &str| by.get(name).map_or(0.0, |e| e.1 as f64);
    let ms = |name: &str| ns(name) / 1e6;
    let total = |count: fn(&Replay) -> u64| replays.iter().map(count).sum::<u64>().max(1) as f64;
    let cells = total(|r| r.cells);
    let jobs = replays.len().max(1) as f64;
    let Some(first) = replays.first() else {
        report.check("replayed", false, || "no replay ran".to_string());
        return;
    };

    report.gated("workload.codegen.ms_per_cell", ms("codegen") / cells);
    report.gated("workload.boot.ms_per_cell", ms("boot") / cells);
    report.gated("core.rehydrate.ms_per_cell", ms("rehydrate") / cells);
    report.gated(
        "core.measure.ns_per_instr",
        ns("measure") / total(|r| r.steps),
    );
    report.gated(
        "core.measure.ns_per_cycle",
        ns("measure") / total(|r| r.cycles),
    );
    let busy: u64 = by.values().map(|e| e.1).sum();
    report.gated(
        "core.measure.self_share",
        ns("measure") / busy.max(1) as f64,
    );
    report.gated("core.merge.ms", ms("merge") / jobs);
    report.gated("core.sampler.samples", first.samples as f64);
    report.gated("core.sampler.bytes", first.sample_bytes as f64);
    report.gated("analysis.reduce.ms", ms("reduce") / jobs);
    report.gated("analysis.validate.ms", ms("validate") / jobs);
    report.gated("analysis.export.ms", ms("export") / jobs);
    report.gated("analysis.export.bytes", first.export_bytes as f64);
    let ic = first.icache;
    report.gated(
        "cpu.icache.hit_ratio",
        ic.hits as f64 / (ic.hits + ic.misses).max(1) as f64,
    );
    report.gated(
        "cpu.icache.misses_per_kinstr",
        1e3 * ic.misses as f64 / first.steps.max(1) as f64,
    );
    report.gated("cpu.icache.flushes", ic.flushes as f64);
    let coverage = spans::coverage(spans, &roots, &["cell"]);
    report.gated("bench.trace.coverage", coverage);
    report.check("trace-coverage", coverage >= MIN_COVERAGE, || {
        format!("layer spans cover {coverage:.3} of the replays, below {MIN_COVERAGE}")
    });
    for r in replays {
        report.check(
            "replay-repeat-identical",
            r.counts() == first.counts(),
            || {
                format!(
                    "replay counts {:?} differ from the first replay's {:?}",
                    r.counts(),
                    first.counts()
                )
            },
        );
        report.check("replay-validation-clean", r.unclean_cells == 0, || {
            format!(
                "{} replayed cell(s) broke a conservation invariant",
                r.unclean_cells
            )
        });
    }
    if probe {
        report.extra(
            "analysis.attribute.us_per_cell",
            "us",
            "lower",
            ns("attribute") / 1e3 / cells,
        );
    }

    let med = |f: &dyn Fn(&EngineJob) -> f64| median(&engine.iter().map(f).collect::<Vec<_>>());
    let per = |j: &EngineJob, name: &str| {
        let (n, us) = j.phase_us(name);
        us / n.max(1) as f64
    };
    report.gated("bench.engine.run_ms_per_job", med(&|j| j.run_ms()));
    report.gated(
        "bench.engine.overhead_ms_per_job",
        med(&|j| j.wall_ms - j.run_ms()),
    );
    report.gated("bench.pool.job_us_per_cell", med(&|j| per(j, "job")));
    report.gated(
        "bench.pool.busy_frac",
        med(&|j| j.phase_us("job").1 / (j.phase_us("run").1 * workers).max(1.0)),
    );
    let count = |j: &EngineJob, name: &str| j.counters.get(name).copied().unwrap_or(0) as f64;
    report.gated(
        "bench.cache.workload_hits_per_job",
        med(&|j| count(j, "workload_cache_hits")),
    );
    report.gated(
        "bench.cache.boot_hits_per_job",
        med(&|j| count(j, "boot_cache_hits")),
    );
    report.extra_samples(
        "job_wall_p50_ms",
        "ms",
        "lower",
        &engine.iter().map(|j| j.wall_ms).collect::<Vec<_>>(),
    );
    report.extra(
        "bench.pool.queue_wait_us",
        "us",
        "lower",
        med(&|j| per(j, "queue-wait")),
    );
    for phase in [
        "codegen",
        "boot",
        "simulate",
        "merge",
        "export",
        "probe",
        "attribute",
        "baseline",
    ] {
        if engine.iter().any(|j| j.phases.contains_key(phase)) {
            report.extra(
                &format!("engine.{phase}.us_per_span"),
                "us",
                "lower",
                med(&|j| per(j, phase)),
            );
        }
    }
    let ratio = measure_vs_engine(spans, replays, engine, probe);
    report.extra("bench.trace.measure_vs_engine", "ratio", "none", ratio);
    report.check(
        "replay-time-matches-engine",
        (1.0 / REPLAY_RATIO_LIMIT..=REPLAY_RATIO_LIMIT).contains(&ratio),
        || {
            format!(
                "the replay's simulation takes {ratio:.3} of the engine's time \
                 (allowed within a factor of {REPLAY_RATIO_LIMIT})"
            )
        },
    );

    let m = &first.measured;
    let instr = m.instructions().max(1) as f64;
    let paper = vax_analysis::paper::TABLE8_COLUMN_TOTALS;
    for (name, value, reference) in [
        (
            "cpu.ib.stall_cpi",
            first.ib_stall_cycles as f64 / instr,
            paper[5],
        ),
        (
            "mem.cache.read_misses_per_instr",
            m.mem_stats.total_read_misses() as f64 / instr,
            vax_analysis::paper::CACHE_MISSES_PER_INSTR.0,
        ),
        (
            "mem.tb.misses_per_instr",
            m.mem_stats.total_tb_misses() as f64 / instr,
            vax_analysis::paper::TB_MISSES_PER_INSTR.0,
        ),
        (
            "mem.read_stall_cpi",
            m.mem_stats.read_stall_cycles as f64 / instr,
            paper[2],
        ),
        (
            "mem.writebuf.stall_cpi",
            m.mem_stats.write_stall_cycles as f64 / instr,
            paper[4],
        ),
    ] {
        report.extra(name, "cycles/instr", "exact", value);
        report.extra(&format!("{name}.paper"), "cycles/instr", "none", reference);
    }
}

fn serve(
    args: &Args,
    scratch: &Path,
    report: &mut Report,
    rec: &mut Recorder,
) -> Result<(), String> {
    let spec_text = workloads::spec_text(args.def, args.seed);
    let spec = workloads::decode(args.def, args.seed);
    let JobSpec::Run(run) = &spec else {
        unreachable!("serve-warm submits a run spec")
    };

    // Served times are set by the daemon's poll period more than by the
    // host's speed, so they are reported as measured, not normalized.
    let setup = if args.traced {
        Vec::new()
    } else {
        workloads::setup(|pass| {
            let (d, ready) = Daemon::spawn(&scratch.join(format!("setup-{pass}")))?;
            let code = d.shutdown();
            report.check("daemon-drained", code == 0, || {
                format!("daemon exited {code}")
            });
            Ok(ready)
        })?
    };
    let (server, _) = Daemon::spawn(&scratch.join("serve"))?;

    let job = |report: &mut Report, rec: &mut Recorder| -> (String, f64) {
        match server.run_job(&spec_text, rec) {
            Ok((id, state, secs)) => {
                let status = state.get("status").and_then(Json::as_str).unwrap_or("?");
                let code = state.get("code").and_then(Json::as_i64);
                report.check("job-exit-0", status == "done" && code == Some(0), || {
                    format!("job {id} ended {status} with code {code:?}")
                });
                (id, secs)
            }
            Err(e) => {
                report.check("job-exit-0", false, || e);
                (String::new(), 0.0)
            }
        }
    };
    let (cold_id, cold_s) = job(report, rec);
    report.extra("job_cold_ms", "ms", "lower", cold_s * 1e3);

    let window = args.seconds as f64 * if args.traced { TRACED_SHARE } else { 1.0 };
    let mut ids = Vec::new();
    let mut replays = Vec::new();
    let walls = workloads::closed_loop(window, 1, |i| {
        let start = Instant::now();
        rec.begin("job", Some(&format!("warm-{i}")));
        let (id, secs) = job(report, rec);
        rec.end();
        ids.push((id, secs));
        if !args.traced {
            return secs;
        }
        match rec.time("healthz", || {
            daemon::http(&server.addr, "GET", "/healthz", "")
        }) {
            Ok((s, _)) => report.check("healthz", s == 200, || format!("healthz answered {s}")),
            Err(e) => report.check("healthz", false, || e),
        }
        replays.push(replay::run(run, 1, rec));
        start.elapsed().as_secs_f64()
    });

    if !args.traced {
        // The serving process's peak, before the in-process reference run
        // below adds the benchmark's own allocations to it.
        peak_rss(report);
    }

    // The served artifacts must be byte-identical to an in-process engine
    // run of the same spec (the cold job and the last warm one).
    let reference = scratch.join("reference");
    let (_, outcome) = workloads::execute(&spec, &reference, None);
    let ref_bytes =
        workloads::check_job(report, &spec, &reference, &outcome, None).unwrap_or_default();
    let instructions = workloads::job_instructions(&spec, &ref_bytes);
    digest(report, &spec, &ref_bytes);
    if let Ok(tables) = std::fs::read_to_string(reference.join("tables.json")) {
        workloads::accuracy(report, &tables);
    }
    let last_id = ids.last().map(|(id, _)| id.clone()).unwrap_or_default();
    for id in [&cold_id, &last_id] {
        let served = server.artifacts(id);
        let ok = served.as_ref().is_ok_and(|files| {
            let served: Vec<_> = files
                .iter()
                .filter(|(n, _)| !SERVE_ONLY.contains(&n.as_str()))
                .collect();
            let local = list_files(&reference);
            served.len() == local.len()
                && served
                    .iter()
                    .all(|(n, bytes)| std::fs::read(reference.join(n)).is_ok_and(|l| &l == bytes))
        });
        report.check("served-identical", ok, || match &served {
            Ok(files) => format!(
                "job {id}: served artifacts {:?} differ from the in-process run",
                files.iter().map(|f| &f.0).collect::<Vec<_>>()
            ),
            Err(e) => format!("job {id}: {e}"),
        });
    }

    if args.traced {
        let jobs = ids.len();
        let (engine, replays): (Vec<EngineJob>, Vec<Replay>) = ids
            .iter()
            .zip(replays)
            .filter_map(|((id, secs), r)| {
                let text =
                    std::fs::read_to_string(server.root.join(id).join("runtime.json")).ok()?;
                Some((EngineJob::from_runtime_json(&text, *secs)?, r))
            })
            .unzip();
        report.check("served-runtime-json", engine.len() == jobs, || {
            format!(
                "{} of {jobs} jobs left a readable runtime.json",
                engine.len()
            )
        });
        serve_layers(report, rec, &engine);
        for r in &replays {
            report.check("replay-identical", r.measurement_json == ref_bytes, || {
                "replayed measurement.json differs from the served one".to_string()
            });
        }
        layers(report, rec, &replays, &engine, 1.0, false);
    }
    let code = server.shutdown();
    report.check("daemon-drained", code == 0, || {
        format!("daemon exited {code}")
    });
    if !args.traced {
        let (setup, jobs) = (Timings::as_measured(setup), Timings::as_measured(walls));
        end_to_end(report, &setup, &jobs, instructions);
    }
    Ok(())
}

/// Serve-only extras: HTTP endpoint latencies seen by the client and the
/// engine's share of each job.
fn serve_layers(report: &mut Report, rec: &Recorder, engine: &[EngineJob]) {
    let durations = |name: &str| -> Vec<f64> {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    };
    for (metric, span) in [
        ("serve.http.healthz_ms_p50", "healthz"),
        ("serve.submit_ms_p50", "submit"),
        ("serve.poll_ms_p50", "poll"),
    ] {
        report.extra_samples(metric, "ms", "lower", &durations(span));
    }
    let engine_ms: Vec<f64> = engine.iter().map(EngineJob::run_ms).collect();
    let overhead: Vec<f64> = engine.iter().map(|j| j.wall_ms - j.run_ms()).collect();
    report.extra_samples("serve.engine_ms_p50", "ms", "lower", &engine_ms);
    report.extra_samples("serve.overhead_ms_p50", "ms", "lower", &overhead);
    let polls = durations("poll").len() as f64 / engine.len().max(1) as f64;
    report.extra("serve.polls_per_job", "count", "lower", polls);
    let (q1, q3) = quartiles(&overhead);
    report.extra("serve.overhead_iqr_ms", "ms", "none", q3 - q1);
}

fn list_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| !SERVE_ONLY.contains(&n.as_str()))
                .collect()
        })
        .unwrap_or_default()
}
