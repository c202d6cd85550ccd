//! Warm-cache correctness: a run served from the boot-image cache must be
//! byte-identical to a cold run, and the daemon's engine must actually hit
//! the cache on a repeated experiment definition, generating each process
//! once however many machines share its image. A one-shot engine
//! (`JobEngine::new`, behind every CLI run) keeps no image at all. Hits and
//! misses are read where a run records them: the `runtime.json` counters
//! of a traced execution.
//!
//! Referenced by `crate::cache`'s module docs as the property test for
//! "cached and uncached runs are byte-identical by construction".

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vax780::System;
use vax_analysis::Json;
use vax_bench::cache::WarmCaches;
use vax_bench::cli::{Format, Options};
use vax_bench::engine::{JobEngine, JobRequest};
use vax_bench::jobspec::RunSpec;
use vax_bench::progress::Verbosity;
use vax_trace::{Tracer, MAIN_TID};
use vax_workload::rte::{boot_image, shard_processes, PROCESSES_PER_WORKLOAD};
use vax_workload::Workload;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("warm-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small traced run into `out`: its trace goes beside the directory, so
/// the directory holds the artifacts and `runtime.json`.
fn small_run(out: &Path) -> Options {
    Options {
        spec: RunSpec {
            instructions: 2_000,
            seed: 42,
            shards: 2,
            ..RunSpec::default()
        },
        format: Format::Json,
        out: Some(out.to_path_buf()),
        trace_out: Some(out.with_extension("trace.json")),
        verbosity: Verbosity::Quiet,
        ..Options::default()
    }
}

/// A traced run's `runtime.json` counters.
fn counters(dir: &Path) -> Json {
    let runtime = std::fs::read_to_string(dir.join("runtime.json")).unwrap();
    let runtime = Json::parse(&runtime).unwrap();
    runtime.get("counters").unwrap().clone()
}

/// A traced run's boot-image cache (hits, misses); one lookup decides a
/// cell's whole setup, so the workload cache counts the same.
fn cache_counts(dir: &Path) -> (i64, i64) {
    let counters = counters(dir);
    let count = |key| counters.get(key).and_then(Json::as_i64).unwrap();
    let boot = (count("boot_cache_hits"), count("boot_cache_misses"));
    let workload = (count("workload_cache_hits"), count("workload_cache_misses"));
    assert_eq!(boot, workload);
    boot
}

/// Every file of a run directory but `runtime.json` (wall-clock totals).
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = read_dir_files(dir);
    files.remove("runtime.json");
    files
}

/// Remove a run directory and its trace.
fn remove_run(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(dir.with_extension("trace.json"));
}

/// An engine built the way the daemon's worker builds its one.
fn daemon_engine() -> JobEngine {
    JobEngine::with_caches(Arc::new(WarmCaches::new()))
}

fn read_dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .map(|e| {
            let name = e.file_name().into_string().unwrap();
            let body = std::fs::read(e.path()).unwrap();
            (name, body)
        })
        .collect()
}

#[test]
fn warm_run_is_byte_identical_to_cold_run() {
    let cold_dir = scratch("cold");
    let warm_dir = scratch("warm");

    // One daemon engine, two executions of the same experiment
    // definition: the first populates the cache (all misses), the second
    // runs entirely from it (all hits).
    let engine = daemon_engine();
    let cold = engine.execute(&JobRequest::Run(small_run(&cold_dir)));
    assert_eq!(cold.code, 0, "cold run failed");
    let cells = 5 * 2; // 5 workloads × 2 shards
    assert_eq!(
        cache_counts(&cold_dir),
        (0, cells),
        "a cold run must miss every cell"
    );

    let warm = engine.execute(&JobRequest::Run(small_run(&warm_dir)));
    assert_eq!(warm.code, 0, "warm run failed");
    assert_eq!(
        cache_counts(&warm_dir),
        (cells, 0),
        "a repeated run must hit every cell's boot image"
    );

    let cold_files = artifacts(&cold_dir);
    let warm_files = artifacts(&warm_dir);
    assert!(
        cold_files.contains_key("measurement.json"),
        "run exported no measurement.json: {:?}",
        cold_files.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        cold_files.keys().collect::<Vec<_>>(),
        warm_files.keys().collect::<Vec<_>>(),
        "cold and warm runs exported different artifact sets"
    );
    for (name, cold_body) in &cold_files {
        assert_eq!(
            cold_body, &warm_files[name],
            "artifact {name} differs between cold and warm runs"
        );
    }

    remove_run(&cold_dir);
    remove_run(&warm_dir);
}

#[test]
fn distinct_experiments_do_not_cross_contaminate() {
    // Different seeds must never share cache entries — and must still
    // produce different measurements through the cached path.
    let dir_a = scratch("seed-a");
    let dir_b = scratch("seed-b");
    let engine = daemon_engine();
    let mut run_a = small_run(&dir_a);
    run_a.spec.shards = 1;
    let mut run_b = small_run(&dir_b);
    run_b.spec.shards = 1;
    run_b.spec.seed = 43;
    assert_eq!(engine.execute(&JobRequest::Run(run_a)).code, 0);
    assert_eq!(engine.execute(&JobRequest::Run(run_b)).code, 0);
    for dir in [&dir_a, &dir_b] {
        assert_eq!(
            cache_counts(dir),
            (0, 5),
            "different seeds must be distinct cache entries"
        );
    }
    let a = std::fs::read(dir_a.join("measurement.json")).unwrap();
    let b = std::fs::read(dir_b.join("measurement.json")).unwrap();
    assert_ne!(a, b, "different seeds must measure differently");
    remove_run(&dir_a);
    remove_run(&dir_b);
}

#[test]
fn a_one_shot_engine_retains_no_image_and_misses_every_cell() {
    let first_dir = scratch("one-shot-1");
    let second_dir = scratch("one-shot-2");
    let engine = JobEngine::new();
    let cells = 5 * 2; // 5 workloads × 2 shards
    for dir in [&first_dir, &second_dir] {
        assert_eq!(engine.execute(&JobRequest::Run(small_run(dir))).code, 0);
        assert_eq!(
            cache_counts(dir),
            (0, cells),
            "a repeated run on a one-shot engine misses every cell again"
        );
        assert_eq!(engine.caches().retained(), 0, "no image outlives its cell");
        // 2,200 steps per cell never switch: one process generated each.
        let generated = counters(dir)
            .get("processes_generated")
            .and_then(Json::as_i64);
        assert_eq!(generated, Some(cells));
    }
    // Everything but runtime.json repeats byte for byte.
    let first = artifacts(&first_dir);
    assert!(first.contains_key("measurement.json"));
    assert_eq!(first, artifacts(&second_dir));
    remove_run(&first_dir);
    remove_run(&second_dir);
}

#[test]
fn a_retained_image_generates_each_process_once_across_rehydrations() {
    // 66,000 steps: the kernel selects all six processes.
    let (warmup, n) = (6_000, 60_000);
    let (workload, seed) = (Workload::Commercial, 1984);
    let cold = System::from_boot_image(&boot_image(shard_processes(
        workload,
        PROCESSES_PER_WORKLOAD,
        seed,
    )))
    .measure(warmup, n);
    assert!(cold.cpu_stats.context_switches >= 5, "every process runs");

    let caches = WarmCaches::new();
    let mut generated = Vec::new();
    for want_hit in [false, true, true] {
        let (mut sys, hit) = caches.boot(
            workload,
            PROCESSES_PER_WORKLOAD,
            seed,
            &Tracer::disabled(),
            MAIN_TID,
        );
        assert_eq!(hit, want_hit);
        assert_eq!(sys.measure(warmup, n), cold, "equal to a cold boot");
        generated.push(sys.processes_generated());
    }
    assert_eq!(generated, [PROCESSES_PER_WORKLOAD as u64, 0, 0]);
}
