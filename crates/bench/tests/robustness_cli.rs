//! End-to-end robustness checks against the real `reproduce` binary:
//! crash-safe resume (SIGKILL mid-run, then `resume` completes the grid
//! byte-identically; a text run's stdout survives too; an old-layout
//! checkpoint header fails clearly), the strict/retry exit-code
//! contract, and the usage text on bad arguments and `--help`.
//!
//! These run the debug binary on deliberately small grids, so each test
//! costs seconds, not minutes.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use vax_analysis::Json;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("robustness-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Artifact file names in `dir` (top level only; the checkpoints journal
/// is bookkeeping, not an export).
fn artifact_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.path().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

fn count_checkpoint_cells(dir: &Path) -> usize {
    let cp = dir.join("checkpoints");
    match std::fs::read_dir(&cp) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("cell-"))
            .count(),
        Err(_) => 0,
    }
}

#[test]
fn killed_run_resumes_to_byte_identical_artifacts() {
    let clean = scratch("clean");
    let interrupted = scratch("interrupted");
    let grid = |out: &Path| {
        vec![
            "--instructions".to_string(),
            "60000".to_string(),
            "--shards".to_string(),
            "2".to_string(),
            "--seed".to_string(),
            "7".to_string(),
            "--jobs".to_string(),
            "1".to_string(),
            "--format".to_string(),
            "json".to_string(),
            "--out".to_string(),
            out.display().to_string(),
            "--quiet".to_string(),
        ]
    };

    // Reference: the same grid, never interrupted.
    let status = reproduce().args(grid(&clean)).status().unwrap();
    assert!(status.success());

    // Victim: identical invocation, killed once a couple of cells have
    // been journaled.
    let mut child = reproduce()
        .args(grid(&interrupted))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut finished_early = false;
    loop {
        if count_checkpoint_cells(&interrupted) >= 2 {
            break;
        }
        if child.try_wait().unwrap().is_some() {
            finished_early = true;
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint cells appeared within 60s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    if !finished_early {
        child.kill().unwrap(); // SIGKILL on unix: no destructors run
    }
    let _ = child.wait();

    // Resume must finish the grid (or, if the child won the race, simply
    // re-export the completed one) and reproduce the reference bytes.
    let status = reproduce()
        .args(["resume", &interrupted.display().to_string(), "--quiet"])
        .status()
        .unwrap();
    assert!(status.success(), "resume failed");

    let names = artifact_names(&clean);
    assert_eq!(names, artifact_names(&interrupted));
    assert!(names.contains(&"manifest.json".to_string()));
    for name in &names {
        let a = std::fs::read(clean.join(name)).unwrap();
        let b = std::fs::read(interrupted.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs after kill + resume");
    }

    std::fs::remove_dir_all(&clean).unwrap();
    std::fs::remove_dir_all(&interrupted).unwrap();
}

#[test]
fn text_run_resumes_to_identical_stdout() {
    // `format` lives beside the spec in the checkpoint header, and a text
    // run prints everything it makes: only a faithful header reproduces it.
    let dir = scratch("text");
    let out = dir.display().to_string();
    let first = reproduce()
        .args(["--instructions", "2000", "--seed", "7", "--format", "text"])
        .args(["--experiment", "table8", "--per-workload", "--shards", "2"])
        .args(["--out", &out, "--quiet"])
        .output()
        .unwrap();
    assert!(first.status.success());
    let stdout = String::from_utf8(first.stdout).unwrap();
    assert!(stdout.contains("Per-workload CPI"), "{stdout}");

    for (w, s) in [(0, 1), (3, 0)] {
        std::fs::remove_file(dir.join(format!("checkpoints/cell-{w}-{s}.json"))).unwrap();
    }
    let resumed = reproduce()
        .args(["resume", &out, "--quiet"])
        .output()
        .unwrap();
    assert!(resumed.status.success(), "resume failed");
    assert_eq!(String::from_utf8(resumed.stdout).unwrap(), stdout);
    assert_eq!(count_checkpoint_cells(&dir), 10, "deleted cells re-ran");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An edit of a cell's histogram triples, each `[µPC, plane, count]`.
type Edit = fn(&mut Vec<[i64; 3]>);

/// `cell` (a journaled checkpoint) with `edit` applied to its histogram
/// triples.
fn edit_histogram(cell: &str, edit: Edit) -> String {
    let mut cell = Json::parse(cell).unwrap();
    let Json::Obj(members) = &mut cell else {
        panic!("a cell is an object")
    };
    let (_, hist) = members.iter_mut().find(|(k, _)| k == "histogram").unwrap();
    let mut triples: Vec<[i64; 3]> = hist
        .as_arr()
        .unwrap()
        .iter()
        .map(|t| [0, 1, 2].map(|i| t.as_arr().unwrap()[i].as_i64().unwrap()))
        .collect();
    edit(&mut triples);
    *hist = Json::arr(
        triples
            .into_iter()
            .map(|t| Json::arr(t.into_iter().map(Json::Int))),
    );
    cell.to_string_pretty()
}

#[test]
fn a_damaged_checkpoint_cell_reruns_and_resume_matches_the_clean_run() {
    let clean = scratch("damaged-clean");
    let damaged = scratch("damaged");
    for dir in [&clean, &damaged] {
        let status = reproduce()
            .args(["--instructions", "2000", "--seed", "7", "--shards", "2"])
            .args(["--format", "json", "--out", &dir.display().to_string()])
            .arg("--quiet")
            .status()
            .unwrap();
        assert!(status.success());
    }

    // Three cells, each damaged in one way the codec must refuse; all keep
    // their JSON shape. A µPC on the board but past the control store used
    // to import and then panic the reduction.
    let edits: [(&str, Edit); 3] = [
        ("cell-1-0.json", |h| h[0][0] = 10_000),
        ("cell-2-1.json", |h| {
            let i = h.iter().position(|t| t[2] >= 2).unwrap();
            h[i][2] -= 1;
            let [upc, plane, _] = h[i];
            h.push([upc, plane, 1]);
        }),
        ("cell-4-0.json", |h| h[0][2] += 1),
    ];
    for (name, edit) in edits {
        let path = damaged.join("checkpoints").join(name);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, edit_histogram(&text, edit)).unwrap();
    }

    let out = reproduce()
        .args(["resume", &damaged.display().to_string(), "--quiet"])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "resume failed: {stderr}");
    for (name, _) in edits {
        assert!(
            stderr.contains(&format!(
                "corrupt checkpoint {}",
                damaged.join("checkpoints").join(name).display()
            )),
            "{name} not discarded: {stderr}"
        );
        // The cell re-ran and journaled the clean run's bytes again.
        let cell = |dir: &Path| std::fs::read(dir.join("checkpoints").join(name)).unwrap();
        assert_eq!(cell(&clean), cell(&damaged), "{name}");
    }
    let names = artifact_names(&clean);
    assert_eq!(names, artifact_names(&damaged));
    for name in &names {
        let a = std::fs::read(clean.join(name)).unwrap();
        let b = std::fs::read(damaged.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs after resuming over damaged cells");
    }
    std::fs::remove_dir_all(&clean).unwrap();
    std::fs::remove_dir_all(&damaged).unwrap();
}

#[test]
fn header_in_the_old_flat_layout_fails_clearly() {
    let dir = scratch("flat-header");
    std::fs::create_dir_all(dir.join("checkpoints")).unwrap();
    // The header as builds before the spec layout wrote it.
    let flat = r#"{
  "format_version": 1,
  "instructions": 2000,
  "seed": 7,
  "shards": 1,
  "experiment": "all",
  "format": "json",
  "interval_cycles": 500000,
  "per_workload": false,
  "profile": false,
  "top": 20,
  "flight_recorder": 0,
  "fault_seed": null,
  "fault_classes": []
}
"#;
    std::fs::write(dir.join("checkpoints/run.json"), flat).unwrap();
    let out = reproduce()
        .args(["resume", &dir.display().to_string(), "--quiet"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("run.json"), "{stderr}");
    assert!(stderr.contains("predates the spec layout"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn strict_mode_fails_on_quarantine_and_retries_recover() {
    let dir = scratch("strict");
    // Shard (0,0) panics more times than --retries allows: the cell is
    // quarantined, the manifest says so, and --strict turns that into a
    // nonzero exit while the partial export still lands.
    let status = reproduce()
        .args([
            "--instructions",
            "2000",
            "--seed",
            "7",
            "--format",
            "json",
            "--out",
            &dir.display().to_string(),
            "--inject-panic",
            "0:0:9",
            "--retries",
            "1",
            "--strict",
            "--quiet",
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1), "strict degraded run must exit 1");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"degraded\": true"), "{manifest}");

    // With enough retries the same injection heals invisibly.
    let status = reproduce()
        .args([
            "--instructions",
            "2000",
            "--seed",
            "7",
            "--format",
            "json",
            "--out",
            &dir.display().to_string(),
            "--inject-panic",
            "0:0:1",
            "--retries",
            "2",
            "--strict",
            "--quiet",
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "recovered run must exit 0");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"degraded\": false"), "{manifest}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_seed_runs_are_reproducible_from_the_command_line() {
    let a = scratch("fault-a");
    let b = scratch("fault-b");
    for dir in [&a, &b] {
        let status = reproduce()
            .args([
                "--instructions",
                "2000",
                "--seed",
                "7",
                "--fault-seed",
                "11",
                "--format",
                "json",
                "--out",
                &dir.display().to_string(),
                "--quiet",
            ])
            .status()
            .unwrap();
        assert!(status.success());
    }
    for name in artifact_names(&a) {
        let x = std::fs::read(a.join(&name)).unwrap();
        let y = std::fs::read(b.join(&name)).unwrap();
        assert_eq!(x, y, "{name} differs between identical --fault-seed runs");
    }
    std::fs::remove_dir_all(&a).unwrap();
    std::fs::remove_dir_all(&b).unwrap();
}

#[test]
fn every_bad_argument_prints_the_usage_once() {
    let cases: &[&[&str]] = &[
        &["--bogus-flag"],
        &["--instructions", "0"],
        &["diff", "onlyonedir"],
        &["diff", "a", "b", "--bogus-flag"],
        &["resume"],
        &["trace-check"],
        &["bench-check", "one.json"],
        &["--bench-out", "x"],
        &["characterize", "--bogus-flag"],
        &["serve", "--bogus-flag"],
    ];
    for args in cases {
        let out = reproduce().args(*args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr.matches("usage: reproduce").count(),
            1,
            "{args:?} must print the usage exactly once:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn help_prints_the_usage_to_stdout_and_exits_zero() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["diff", "--help"],
        &["--seed", "7", "-h"],
    ] {
        let out = reproduce().args(args).output().unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {:?}", out.status);
        assert!(stdout.starts_with("usage: reproduce"), "{args:?}: {stdout}");
        assert_eq!(stdout.matches("usage: reproduce").count(), 1, "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}
