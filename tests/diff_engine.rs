//! The run-diff regression engine against the committed golden fixture.
//!
//! `tests/fixtures/golden-small` is a real exported run
//! (`reproduce --instructions 2000 --seed 1984 --interval-cycles 5000
//! --format json --profile --out …`). These tests prove the CI gate works:
//! the fixture diffs clean against itself and against a fresh simulation
//! with the same parameters (fixture freshness), an injected delta is
//! caught, and the time-series export formats round-trip exactly.

use std::path::{Path, PathBuf};

use rand::prelude::{Rng, SeedableRng, StdRng};
use vax780::{IntervalSample, TimeSeries};
use vax_analysis::{diff_json, timeseries_from_json, Json, Profile, Tolerance};
use vax_bench::cache::WarmCaches;
use vax_bench::cli::Options;
use vax_bench::diffcmd::{diff_run_dirs, FileDiff};
use vax_bench::jobspec::RunSpec;
use vax_bench::progress::{Progress, Verbosity};
use vax_bench::runner;
use vax_trace::Tracer;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-small")
}

/// The parameters `golden-small` was generated with (see docs/TELEMETRY.md).
fn fixture_options() -> Options {
    Options {
        spec: RunSpec {
            instructions: 2000,
            seed: 1984,
            interval_cycles: 5000,
            ..RunSpec::default()
        },
        ..Options::default()
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vax-diff-engine-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn copy_fixture_to(dir: &Path) {
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
}

#[test]
fn fixture_diffs_clean_against_itself() {
    let diffs = diff_run_dirs(&fixture_dir(), &fixture_dir(), &Tolerance::exact()).unwrap();
    assert!(
        diffs.len() >= 5,
        "fixture should carry the full artifact set, got {}",
        diffs.len()
    );
    for d in &diffs {
        assert!(d.is_clean(), "{} not clean: {:?}", d.file, d.report);
    }
}

#[test]
fn injected_delta_is_caught_and_tolerance_releases_it() {
    let dir = scratch_dir("inject");
    copy_fixture_to(&dir);
    // Perturb one counter in measurement.json by one part in a thousand.
    let path = dir.join("measurement.json");
    let mut j = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let cycles = j.get("cycles").and_then(Json::as_i64).unwrap();
    let bumped = cycles + (cycles / 1000).max(1);
    if let Json::Obj(members) = &mut j {
        for (k, v) in members.iter_mut() {
            if k == "cycles" {
                *v = Json::Int(bumped);
            }
        }
    }
    std::fs::write(&path, j.to_string_pretty()).unwrap();

    let diffs = diff_run_dirs(&fixture_dir(), &dir, &Tolerance::exact()).unwrap();
    let m = diffs
        .iter()
        .find(|d| d.file == "measurement.json")
        .expect("measurement compared");
    assert!(!m.is_clean(), "injected cycle drift must be flagged");
    assert!(
        diffs
            .iter()
            .filter(|d| d.file != "measurement.json")
            .all(FileDiff::is_clean),
        "only the perturbed artifact drifts"
    );
    // A 1% relative tolerance swallows a 0.1% injected delta.
    let relaxed = diff_run_dirs(&fixture_dir(), &dir, &Tolerance::new(0.0, 0.01)).unwrap();
    assert!(relaxed.iter().all(FileDiff::is_clean));
}

#[test]
fn missing_artifact_fails_even_with_loose_tolerance() {
    let dir = scratch_dir("missing");
    copy_fixture_to(&dir);
    std::fs::remove_file(dir.join("validation.json")).unwrap();
    let diffs = diff_run_dirs(&fixture_dir(), &dir, &Tolerance::new(1e9, 1.0)).unwrap();
    let v = diffs
        .iter()
        .find(|d| d.file == "validation.json")
        .expect("absence is reported, not skipped");
    assert!(!v.is_clean());
}

/// Regenerate the fixture's run in-process and diff it against the committed
/// artifacts: proves the golden fixture is fresh, i.e. the simulator still
/// produces byte-identical telemetry for the recorded parameters. If this
/// fails after an intentional model change, regenerate the fixture (see
/// docs/TELEMETRY.md).
#[test]
fn committed_fixture_matches_a_fresh_run() {
    let opts = fixture_options();
    let progress = Progress::new(Verbosity::Quiet);
    let out = runner::run_composite(&opts, &progress, &Tracer::disabled(), &WarmCaches::new());
    assert!(out.conservation_err.is_none());
    assert!(out.validation.is_clean());

    let manifest = vax_analysis::RunManifest {
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
    let dir = scratch_dir("fresh");
    for (name, body) in
        vax_analysis::run_artifacts(&manifest, &out.analysis, &out.series, &out.validation)
    {
        std::fs::write(dir.join(name), body).unwrap();
    }
    let profile = Profile::new(&out.cs.map, &out.analysis.m.hist);
    std::fs::write(dir.join("profile.folded"), profile.folded()).unwrap();
    std::fs::write(
        dir.join("profile.json"),
        profile.to_json().to_string_pretty(),
    )
    .unwrap();

    let diffs = diff_run_dirs(&fixture_dir(), &dir, &Tolerance::exact()).unwrap();
    for d in &diffs {
        assert!(
            d.is_clean(),
            "{} drifted from the committed golden run — regenerate the fixture \
             if the simulator changed intentionally: {:?}",
            d.file,
            d.report
        );
    }
    // The folded stacks are not JSON, so compare them directly.
    let committed = std::fs::read_to_string(fixture_dir().join("profile.folded")).unwrap();
    let fresh = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
    assert_eq!(committed, fresh, "profile.folded drifted");
}

/// Property test: a randomized-but-valid TimeSeries survives CSV export →
/// parse → re-export byte-for-byte, and the JSON artifact parses back to a
/// series whose re-export is byte-identical too.
#[test]
fn timeseries_exports_roundtrip_exactly() {
    let mut rng = StdRng::seed_from_u64(0x780);
    for case in 0..50 {
        let mut series = TimeSeries::default();
        let mut cycle = 0u64;
        let n = rng.gen_range(1usize..12);
        for _ in 0..n {
            let len = rng.gen_range(1u64..100_000);
            let mut delta = vax780::Measurement {
                cycles: len,
                ..vax780::Measurement::default()
            };
            // Instructions stay nonzero so the derived CPI column is finite.
            delta.cpu_stats.instructions = rng.gen_range(1u64..len + 1);
            delta.cpu_stats.hw_interrupts = rng.gen_range(0u64..50);
            delta.cpu_stats.context_switches = rng.gen_range(0u64..20);
            delta.mem_stats.read_stall_cycles = rng.gen_range(0u64..len / 2 + 1);
            delta.mem_stats.write_stall_cycles = rng.gen_range(0u64..len / 2 + 1);
            delta.mem_stats.i_reads = rng.gen_range(0u64..len + 1);
            delta.mem_stats.d_read_misses = rng.gen_range(0u64..1000);
            delta.mem_stats.tb_miss_d = rng.gen_range(0u64..500);
            series.samples.push(IntervalSample {
                start_cycle: cycle,
                end_cycle: cycle + len,
                delta,
            });
            cycle += len;
        }

        let csv = series.to_csv();
        let reparsed = TimeSeries::from_csv(&csv)
            .unwrap_or_else(|e| panic!("case {case}: csv parse failed: {e}"));
        assert_eq!(reparsed.to_csv(), csv, "case {case}: csv not byte-stable");

        let json = vax_analysis::timeseries_json(&series);
        let parsed = Json::parse(&json.to_string_pretty()).unwrap();
        let back = timeseries_from_json(&parsed)
            .unwrap_or_else(|e| panic!("case {case}: json parse failed: {e}"));
        assert_eq!(
            vax_analysis::timeseries_json(&back).to_string_pretty(),
            json.to_string_pretty(),
            "case {case}: json not byte-stable"
        );
        // And the two import paths agree with each other.
        assert_eq!(back.to_csv(), reparsed.to_csv(), "case {case}");
        let report = diff_json(
            &json,
            &vax_analysis::timeseries_json(&reparsed),
            &Tolerance::exact(),
        );
        assert!(report.is_clean(), "case {case}: {}", report.render());
    }
}
