//! The five workloads: how each is generated from the seed, how it is set
//! up, and how its jobs run through the job engine.
//!
//! Every workload is closed-loop with one client: the next job starts only
//! after the previous one finished. In-process jobs go through the path the
//! daemon uses — `JobSpec::decode`, then `to_run_options` /
//! `to_characterize_options`, then `JobEngine::execute` — with a fresh
//! engine per job, as a `reproduce` invocation has, so every cell pays its
//! own codegen and boot.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use vax_analysis::Json;
use vax_arch::Opcode;
use vax_asm::probe::{probe_loop, ProbeTarget};
use vax_bench::cli::Format;
use vax_bench::engine::{JobEngine, JobOutcome, JobRequest};
use vax_bench::jobspec::{JobSpec, ProbeSpec};
use vax_bench::progress::Verbosity;
use vax_trace::Tracer;
use vax_workload::rte::{boot_image, shard_processes, shard_seed, PROCESSES_PER_WORKLOAD};
use vax_workload::Workload;

use crate::report::Report;
use crate::stats::{fnv1a64, median};

pub struct Def {
    pub name: &'static str,
    /// Submitted over HTTP to an in-process daemon rather than executed on
    /// the engine directly.
    pub served: bool,
    pub why: &'static str,
}

pub const WORKLOADS: [Def; 5] = [
    Def {
        name: "composite-long",
        served: false,
        why: "5 workloads x 2M instr, 1 worker: the simulation hot loop does ~96% of the work; the one run long enough to compare CPI and Table 8 with the paper",
    },
    Def {
        name: "fault-storm",
        served: false,
        why: "the 1M grid under tb-storm + smc faults: code writes beside code reads flush the decode cache, so a block cache that wins only without invalidation shows",
    },
    Def {
        name: "cells-short",
        served: false,
        why: "5 x 16 shards x 4k instr on 2 workers: codegen, boot and rehydrate per cell outweigh simulation, and every cell misses the warm caches",
    },
    Def {
        name: "characterize",
        served: false,
        why: "the directed-probe grid (2380 cells, EDIV excluded): short periodic loops with tiny working sets plus a probe-system build per cell",
    },
    Def {
        name: "serve-warm",
        served: true,
        why: "an in-process daemon on loopback, one client repeating a small warm run job (5 cells x 1k instr): HTTP accept, journal, warm-cache hits, rehydrate and export",
    },
];

pub fn find(name: &str) -> Option<&'static Def> {
    WORKLOADS.iter().find(|d| d.name == name)
}

/// Opcodes left out of the probe grid because their probes do not finish:
/// every EDIV cell panics in the simulator ("µPC offset 24 out of routine").
pub const PROBE_EXCLUDED: &[&str] = &["EDIV"];

/// The job spec a workload submits, generated from the seed; the program
/// only ever receives this text.
pub fn spec_text(def: &Def, seed: u64) -> String {
    let run = |extra: &str, instructions: u64| {
        format!(
            r#"{{"kind": "run", "seed": {seed}, "instructions": {instructions}, "experiment": "all"{extra}}}"#
        )
    };
    match def.name {
        "composite-long" => run(r#", "shards": 1, "jobs": 1"#, 2_000_000),
        "fault-storm" => run(
            &format!(
                r#", "shards": 1, "jobs": 1, "fault_seed": {seed}, "fault_classes": ["tb-storm", "smc"]"#
            ),
            1_000_000,
        ),
        "cells-short" => run(r#", "shards": 16, "jobs": 2"#, 4_000),
        // The probe grid is directed, not random: the seed does not change it.
        "characterize" => {
            let opcodes: Vec<String> = vax_arch::opcode::OPCODE_TABLE
                .iter()
                .map(|info| info.opcode.mnemonic())
                .filter(|m| !PROBE_EXCLUDED.contains(m))
                .map(|m| format!("\"{m}\""))
                .collect();
            format!(
                r#"{{"kind": "characterize", "jobs": 2, "opcodes": [{}]}}"#,
                opcodes.join(", ")
            )
        }
        // A warm run job with every option at its default and 1,000
        // instructions per cell. The daemon answers a connection only on
        // its 50 ms accept tick, so a job's latency is a whole number of
        // ticks: two while its work fits in one tick, three past it.
        // Golden-small's work (2,000 instructions with the profile and the
        // flight recorder) takes ~40-50 ms on the baseline host, right on
        // that edge, so its median flipped between 100 and 150 ms from run
        // to run; this job's ~30 ms stays inside one tick through slow
        // spells of up to ~1.5x.
        "serve-warm" => format!(r#"{{"kind": "run", "instructions": 1000, "seed": {seed}}}"#),
        other => unreachable!("unknown workload {other}"),
    }
}

/// The engine request a spec materializes into — the same runtime knobs
/// the daemon sets: JSON artifacts into `out`, quiet narration.
fn request(spec: &JobSpec, out: &Path) -> JobRequest {
    match spec {
        JobSpec::Run(_) => {
            let mut o = spec.to_run_options(1, 0);
            o.format = Format::Json;
            o.out = Some(out.to_path_buf());
            o.verbosity = Verbosity::Quiet;
            JobRequest::Run(o)
        }
        JobSpec::Characterize(_) | JobSpec::Refute(_) => {
            let mut o = spec.to_characterize_options(1, 0);
            o.out = Some(out.to_path_buf());
            o.verbosity = Verbosity::Quiet;
            JobRequest::Characterize(o)
        }
    }
}

/// One in-process job on a fresh engine; with a tracer, the engine records
/// its phase spans (the `--trace-out` path). Returns wall seconds.
pub fn execute(spec: &JobSpec, out: &Path, tracer: Option<&Tracer>) -> (f64, JobOutcome) {
    let start = Instant::now();
    let engine = JobEngine::new();
    let req = request(spec, out);
    let outcome = match tracer {
        Some(t) => engine.execute_traced(&req, t),
        None => engine.execute(&req),
    };
    (start.elapsed().as_secs_f64(), outcome)
}

/// The probe targets of a characterize spec, grid order.
pub fn probe_targets(p: &ProbeSpec) -> Vec<ProbeTarget> {
    let opcodes: Vec<Opcode> = p
        .opcodes
        .iter()
        .filter_map(|m| Opcode::from_mnemonic(m))
        .collect();
    vax_analysis::select_grid(&opcodes, &[]).0
}

/// Measured instructions of one characterize job: every cell and the
/// baseline run `iters` whole loop periods (one instruction per step).
fn probe_instructions(p: &ProbeSpec, targets: &[ProbeTarget]) -> u64 {
    let period = |t: Option<&ProbeTarget>, reps: u32| {
        u64::from(probe_loop(t, reps).expect("grid probes assemble").period)
    };
    let cells: u64 = targets.iter().map(|t| period(Some(t), p.reps as u32)).sum();
    p.iters * (cells + period(None, 0))
}

/// Probe-system slices `characterize` set-up is timed in.
const PROBE_UNITS: u64 = 8;

/// Set-up is timed in units, each between two reference samples taken
/// close together: one shard of every workload for a run spec, one slice of
/// the probe systems for characterize. A unit's time × the number of units
/// is one estimate of the whole set-up.
pub fn setup_units(spec: &JobSpec) -> u64 {
    match spec {
        JobSpec::Run(r) => r.shards,
        JobSpec::Characterize(_) => PROBE_UNITS,
        JobSpec::Refute(_) => unreachable!("no workload refutes"),
    }
}

/// Build the inputs of one set-up unit: codegen + boot image of shard
/// `unit` of every workload, or assembly + probe system of every 32nd probe
/// cell in slice `unit`. The measured jobs still build their own.
pub fn prime(spec: &JobSpec, unit: u64) {
    match spec {
        JobSpec::Run(r) => {
            for (w, &workload) in Workload::ALL.iter().enumerate() {
                let seed = shard_seed(r.seed, w as u64, unit);
                let specs = shard_processes(workload, PROCESSES_PER_WORKLOAD, seed);
                black_box(boot_image(specs));
            }
        }
        JobSpec::Characterize(p) => {
            let targets = probe_targets(p);
            let slice = targets.iter().step_by(32).skip(unit as usize);
            for t in slice.step_by(PROBE_UNITS as usize) {
                let probe = probe_loop(Some(t), p.reps as u32).expect("grid probes assemble");
                black_box(vax_workload::probe_system(&probe));
            }
        }
        JobSpec::Refute(_) => unreachable!("no workload refutes"),
    }
}

/// Set-up passes per run: at least this many, and more until they have
/// taken `SETUP_MIN_S`. `setup_s` is their median, which a slow first pass
/// of a cold process does not move.
const SETUP_MIN_PASSES: usize = 3;
const SETUP_MIN_S: f64 = 1.5;

/// Repeat a set-up pass, which returns its wall seconds; returns them all.
pub fn setup(mut pass: impl FnMut(usize) -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < SETUP_MIN_PASSES || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        walls.push(pass(walls.len())?);
    }
    Ok(walls)
}

/// The artifact whose bytes must repeat exactly, and its digest.
pub fn primary_artifact(spec: &JobSpec) -> &'static str {
    match spec {
        JobSpec::Run(_) => "measurement.json",
        _ => "costs.json",
    }
}

/// Check one finished in-process job and its artifacts; returns the
/// primary artifact's bytes.
pub fn check_job(
    report: &mut Report,
    spec: &JobSpec,
    out: &Path,
    outcome: &JobOutcome,
    first: Option<&str>,
) -> Option<String> {
    report.check(
        "job-exit-0",
        outcome.code == 0 && outcome.canceled.is_none(),
        || {
            format!(
                "exit code {}, canceled {:?}",
                outcome.code, outcome.canceled
            )
        },
    );
    if let JobSpec::Run(_) = spec {
        let clean = std::fs::read_to_string(out.join("validation.json"))
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .and_then(|j| j.get("clean").cloned());
        report.check("validation-clean", clean == Some(Json::Bool(true)), || {
            format!("validation.json clean = {clean:?}")
        });
    }
    let name = primary_artifact(spec);
    let bytes = std::fs::read_to_string(out.join(name)).ok();
    report.check("artifact-present", bytes.is_some(), || {
        format!("{name} missing")
    });
    if let (Some(first), Some(now)) = (first, &bytes) {
        report.check("repeat-identical", first == now, || {
            format!(
                "{name} digest {:016x} differs from the first job's {:016x}",
                fnv1a64(now.as_bytes()),
                fnv1a64(first.as_bytes())
            )
        });
    }
    bytes
}

/// Measured instructions in one job's primary artifact (run specs) or
/// from the probe geometry (characterize).
pub fn job_instructions(spec: &JobSpec, artifact: &str) -> u64 {
    match spec {
        JobSpec::Run(_) => Json::parse(artifact)
            .ok()
            .and_then(|j| j.get("instructions").and_then(Json::as_i64))
            .unwrap_or(0) as u64,
        JobSpec::Characterize(p) => probe_instructions(p, &probe_targets(p)),
        JobSpec::Refute(_) => 0,
    }
}

/// Model accuracy against the paper's Table 8 (held out: workloads are
/// calibrated to Tables 1-5 only), read from an exported `tables.json`.
/// These repeat exactly for a seed; compare mode flags any change.
pub fn accuracy(report: &mut Report, tables: &str) {
    let Ok(j) = Json::parse(tables) else { return };
    let Some(t8) = j.get("table8_instruction_timing") else {
        return;
    };
    let cpi = t8
        .get("cpi")
        .and_then(|c| c.get("measured"))
        .and_then(Json::as_f64);
    let paper = t8
        .get("cpi")
        .and_then(|c| c.get("paper"))
        .and_then(Json::as_f64);
    if let (Some(cpi), Some(paper)) = (cpi, paper) {
        report.extra("model.cpi", "cycles/instr", "exact", cpi);
        report.extra(
            "model.cpi_err_pct",
            "%",
            "exact",
            100.0 * (cpi - paper).abs() / paper,
        );
    }
    let l1: f64 = t8
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| {
            let m = r.get("total").and_then(Json::as_f64)?;
            let p = r.get("paper_total").and_then(Json::as_f64)?;
            Some((m - p).abs())
        })
        .sum();
    report.extra("model.table8_l1", "cycles/instr", "exact", l1);
}

/// Run jobs closed-loop until the next one would end past `seconds`
/// (at least `min_jobs`); `job` returns its wall seconds.
pub fn closed_loop(seconds: f64, min_jobs: usize, mut job: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(job(walls.len()));
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= min_jobs && elapsed + median(&walls) > seconds {
            return walls;
        }
    }
}

/// Decode a workload's spec the way the daemon does.
pub fn decode(def: &Def, seed: u64) -> JobSpec {
    JobSpec::decode(&spec_text(def, seed)).expect("generated specs are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_decodes_and_depends_on_the_seed_where_random() {
        for def in &WORKLOADS {
            let a = decode(def, 1);
            let b = decode(def, 2);
            assert_eq!(a == b, def.name == "characterize", "{}", def.name);
            assert_eq!(
                decode(def, 7),
                decode(def, 7),
                "{} is a function of the seed",
                def.name
            );
        }
        let JobSpec::Characterize(p) = decode(&WORKLOADS[3], 1) else {
            panic!("characterize decodes to a probe spec")
        };
        assert!(!p.opcodes.iter().any(|m| m == "EDIV"));
        assert_eq!(
            p.reps,
            ProbeSpec::default().reps,
            "reproduce characterize defaults"
        );
    }

    /// BENCHMARK.json at the repository root names these workloads, in
    /// this order, with these reasons.
    #[test]
    fn workloads_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String)> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|d| (d.name.to_string(), d.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
