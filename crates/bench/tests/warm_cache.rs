//! Warm-cache correctness: a run served from the boot-image cache must be
//! byte-identical to a cold run, and the daemon's engine must actually hit
//! the cache on a repeated experiment definition. A one-shot engine
//! (`JobEngine::new`, behind every CLI run) keeps no image at all.
//!
//! Referenced by `crate::cache`'s module docs as the property test for
//! "cached and uncached runs are byte-identical by construction".

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vax_analysis::Json;
use vax_bench::cache::{CacheCounts, WarmCaches};
use vax_bench::cli::{Format, Options};
use vax_bench::engine::{JobEngine, JobRequest};
use vax_bench::jobspec::RunSpec;
use vax_bench::progress::Verbosity;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("warm-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
        verbosity: Verbosity::Quiet,
        ..Options::default()
    }
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
        engine.caches().counts(),
        CacheCounts {
            hits: 0,
            misses: cells
        },
        "a cold run must miss every cell"
    );

    let warm = engine.execute(&JobRequest::Run(small_run(&warm_dir)));
    assert_eq!(warm.code, 0, "warm run failed");
    assert_eq!(
        engine.caches().counts(),
        CacheCounts {
            hits: cells,
            misses: cells
        },
        "a repeated run must hit every cell's boot image"
    );

    let cold_files = read_dir_files(&cold_dir);
    let warm_files = read_dir_files(&warm_dir);
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

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&warm_dir);
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
    assert_eq!(
        engine.caches().counts(),
        CacheCounts {
            hits: 0,
            misses: 10
        },
        "different seeds must be distinct cache entries"
    );
    let a = std::fs::read(dir_a.join("measurement.json")).unwrap();
    let b = std::fs::read(dir_b.join("measurement.json")).unwrap();
    assert_ne!(a, b, "different seeds must measure differently");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn a_one_shot_engine_retains_no_image_and_misses_every_cell() {
    let first_dir = scratch("one-shot-1");
    let second_dir = scratch("one-shot-2");
    let trace = scratch("one-shot-trace.json");
    let engine = JobEngine::new();
    let cells = 5 * 2; // 5 workloads × 2 shards
    for (dir, misses) in [(&first_dir, cells), (&second_dir, 2 * cells)] {
        // Traced, so the run writes runtime.json beside its artifacts.
        let opts = Options {
            trace_out: Some(trace.clone()),
            ..small_run(dir)
        };
        assert_eq!(engine.execute(&JobRequest::Run(opts)).code, 0);
        assert_eq!(
            engine.caches().counts(),
            CacheCounts { hits: 0, misses },
            "a repeated run on a one-shot engine misses every cell again"
        );
        assert_eq!(engine.caches().retained(), 0, "no image outlives its cell");
        // runtime.json reports both setup phases, all misses.
        let runtime = std::fs::read_to_string(dir.join("runtime.json")).unwrap();
        let runtime = Json::parse(&runtime).unwrap();
        let counters = runtime.get("counters").unwrap();
        for (key, want) in [
            ("workload_cache_hits", 0),
            ("workload_cache_misses", cells),
            ("boot_cache_hits", 0),
            ("boot_cache_misses", cells),
        ] {
            assert_eq!(
                counters.get(key).and_then(Json::as_i64),
                Some(want as i64),
                "{key}"
            );
        }
    }
    // Everything but runtime.json (wall-clock totals) repeats byte for byte.
    let artifacts = |dir: &Path| {
        let mut files = read_dir_files(dir);
        files.remove("runtime.json");
        files
    };
    let first = artifacts(&first_dir);
    assert!(first.contains_key("measurement.json"));
    assert_eq!(first, artifacts(&second_dir));
    for path in [&first_dir, &second_dir] {
        let _ = std::fs::remove_dir_all(path);
    }
    let _ = std::fs::remove_file(&trace);
}
