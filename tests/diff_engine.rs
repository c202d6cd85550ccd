//! The run-diff regression engine against the committed golden fixtures.
//!
//! `tests/fixtures/golden-small` is a real exported run
//! (`reproduce --instructions 2000 --seed 1984 --interval-cycles 5000
//! --format json --profile --flight-recorder 64 --out …`) plus the text
//! report of the same spec (`report.txt`), and
//! `tests/fixtures/golden-checkpoints` is that run's `checkpoints/`
//! journal. These tests prove the CI gate works: the fixture diffs clean
//! against itself and against a fresh simulation with the same
//! parameters, whose files and checkpoints are its bytes (fixture
//! freshness), an injected delta is caught, and the time-series export
//! formats round-trip exactly.

use std::path::{Path, PathBuf};

use rand::prelude::{Rng, SeedableRng, StdRng};
use vax780::{IntervalSample, TimeSeries};
use vax_analysis::{diff_json, timeseries_from_json, Json, Profile, Tolerance};
use vax_bench::cache::WarmCaches;
use vax_bench::cli::{Format, Options};
use vax_bench::diffcmd::{diff_run_dirs, FileDiff};
use vax_bench::engine::fig1;
use vax_bench::jobspec::RunSpec;
use vax_bench::progress::{Progress, Verbosity};
use vax_bench::runner;
use vax_cpu::ControlStore;
use vax_trace::Tracer;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-small")
}

fn checkpoints_fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden-checkpoints")
}

/// The parameters the golden fixtures were generated with (see
/// scripts/regen-fixtures.sh), exporting to `out`.
fn fixture_options(out: &Path) -> Options {
    Options {
        spec: RunSpec {
            instructions: 2000,
            seed: 1984,
            interval_cycles: 5000,
            profile: true,
            flight_recorder: 64,
            ..RunSpec::default()
        },
        format: Format::Json,
        out: Some(out.to_path_buf()),
        ..Options::default()
    }
}

/// A directory under the system temp dir, removed when the test ends,
/// also when it panics.
struct ScratchDir(PathBuf);

impl std::ops::Deref for ScratchDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(name: &str) -> ScratchDir {
    let d = std::env::temp_dir().join(format!("vax-diff-engine-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    ScratchDir(d)
}

/// The names of the files (not directories) in `dir`, sorted.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// `fresh` holds exactly the files of `committed`, byte for byte.
fn assert_same_files(committed: &Path, fresh: &Path) {
    assert_eq!(
        file_names(committed),
        file_names(fresh),
        "file sets of {} and {} differ",
        committed.display(),
        fresh.display()
    );
    for name in file_names(committed) {
        let a = std::fs::read(committed.join(&name)).unwrap();
        let b = std::fs::read(fresh.join(&name)).unwrap();
        assert!(
            a == b,
            "{} is not the committed bytes — if the simulator changed \
             intentionally, run scripts/regen-fixtures.sh",
            fresh.join(&name).display()
        );
    }
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
/// artifacts: proves the golden fixtures are fresh, i.e. the simulator still
/// produces byte-identical telemetry, text report and checkpoint journal
/// for the recorded parameters. `reproduce diff` compares parsed values, so
/// it cannot see a reordered key or `2526` rewritten as `2526.0`; the bytes
/// are compared too. If this fails after an intentional model change,
/// regenerate the fixtures with `scripts/regen-fixtures.sh`.
#[test]
fn committed_fixture_matches_a_fresh_run() {
    let dir = scratch_dir("fresh");
    let opts = fixture_options(&dir);
    let progress = Progress::new(Verbosity::Quiet);
    let out = runner::run_composite(&opts, &progress, &Tracer::disabled(), &WarmCaches::new());
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
    for (name, body) in
        vax_analysis::run_artifacts(&manifest, &out.analysis, &out.series, &out.validation)
    {
        std::fs::write(dir.join(name), body).unwrap();
    }
    let profile = Profile::new(&ControlStore::get().map, &out.analysis.m.hist);
    std::fs::write(dir.join("profile.folded"), profile.folded()).unwrap();
    std::fs::write(
        dir.join("profile.json"),
        profile.to_json().to_string_pretty(),
    )
    .unwrap();
    // What `reproduce` prints for the same spec in text mode, without
    // `--profile`.
    let report = format!(
        "{}\n{}",
        fig1(),
        vax_analysis::print_all_tables(&out.analysis)
    );
    std::fs::write(dir.join("report.txt"), report).unwrap();

    let diffs = diff_run_dirs(&fixture_dir(), &dir, &Tolerance::exact()).unwrap();
    for d in &diffs {
        assert!(
            d.is_clean(),
            "{} drifted from the committed golden run — if the simulator changed \
             intentionally, run scripts/regen-fixtures.sh: {:?}",
            d.file,
            d.report
        );
    }
    assert_same_files(&fixture_dir(), &dir);
    assert_same_files(&checkpoints_fixture_dir(), &dir.join("checkpoints"));
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
            series.samples.push(IntervalSample {
                start_cycle: cycle,
                end_cycle: cycle + len,
                // Instructions stay nonzero so the derived CPI column is
                // finite.
                instructions: rng.gen_range(1u64..len + 1),
                read_stall_cycles: rng.gen_range(0u64..len / 2 + 1),
                write_stall_cycles: rng.gen_range(0u64..len / 2 + 1),
                ib_reads: rng.gen_range(0u64..len + 1),
                cache_read_misses: rng.gen_range(0u64..1000),
                tb_misses: rng.gen_range(0u64..500),
                interrupts: rng.gen_range(0u64..50),
                context_switches: rng.gen_range(0u64..20),
            });
            cycle += len;
        }

        let json = vax_analysis::timeseries_json(&series);
        let parsed = Json::parse(&json.to_string_pretty()).unwrap();
        let back = timeseries_from_json(&parsed)
            .unwrap_or_else(|e| panic!("case {case}: json parse failed: {e}"));
        assert_eq!(back, series, "case {case}: json lost a field");
        assert_eq!(
            vax_analysis::timeseries_json(&back).to_string_pretty(),
            json.to_string_pretty(),
            "case {case}: json not byte-stable"
        );
        // The imported series exports the same CSV.
        assert_eq!(back.to_csv(), series.to_csv(), "case {case}");
        let report = diff_json(
            &json,
            &vax_analysis::timeseries_json(&back),
            &Tolerance::exact(),
        );
        assert!(report.is_clean(), "case {case}: {}", report.render());
    }
}
