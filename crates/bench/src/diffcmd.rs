//! `reproduce diff` — compare two exported run directories.
//!
//! Each directory is expected to hold the JSON artifacts a `--format json
//! --out DIR` run writes (manifest, measurement, tables, time series,
//! validation, optionally profile). Every artifact present in either
//! directory is parsed and structurally diffed with [`vax_analysis::diff_json`];
//! an artifact present on only one side is itself a failure. The binary
//! exits nonzero when any metric drifts outside tolerance, which is what
//! lets CI gate on a committed golden baseline.

use std::path::Path;

use vax_analysis::{diff_json, DiffReport, Json, Tolerance};

/// The JSON artifacts a run directory may contain, in report order. A
/// file neither side has is skipped, so the run-shape dependent ones
/// (`profile.json`, `costs.json`, `runtime.json`) are compared only when
/// at least one side has them; one side alone is a failure.
pub const COMPARED_FILES: &[&str] = &[
    "manifest.json",
    "measurement.json",
    "tables.json",
    "timeseries.json",
    "validation.json",
    "profile.json",
    "costs.json",
    "runtime.json",
];

/// Wall-clock fields inside `runtime.json` (span durations). Stripped at
/// every nesting level before comparison, so the diff gates on the
/// deterministic counts — phase counts, counters, event tallies — and
/// never on host timing.
const TIMING_KEYS: &[&str] = &["total_us"];

/// The comparison result for one artifact file.
#[derive(Debug)]
pub struct FileDiff {
    /// Artifact file name (e.g. `tables.json`).
    pub file: &'static str,
    /// The structural diff, or a message describing why the file could not
    /// be compared (missing on one side, unreadable, unparseable).
    pub report: Result<DiffReport, String>,
}

impl FileDiff {
    /// True when this artifact compared clean.
    pub fn is_clean(&self) -> bool {
        matches!(&self.report, Ok(r) if r.is_clean())
    }
}

fn load_json(dir: &Path, name: &str) -> Result<Json, String> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Recursively drop wall-clock members ([`TIMING_KEYS`]) at every level.
/// Applied to `runtime.json` only; no other artifact has timing fields.
fn strip_timing(j: Json) -> Json {
    match j {
        Json::Obj(members) => Json::Obj(
            members
                .into_iter()
                .filter(|(k, _)| !TIMING_KEYS.contains(&k.as_str()))
                .map(|(k, v)| (k, strip_timing(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_timing).collect()),
        other => other,
    }
}

/// The normalization applied to artifact `name` before diffing.
fn normalize(name: &str, j: Json) -> Json {
    if name == "runtime.json" {
        strip_timing(j)
    } else {
        j
    }
}

/// Compare the artifact sets of two run directories.
///
/// # Errors
/// Returns `Err` when a directory does not exist or the two directories
/// share no known artifacts at all (comparing nothing must not pass).
pub fn diff_run_dirs(
    baseline: &Path,
    candidate: &Path,
    tol: &Tolerance,
) -> Result<Vec<FileDiff>, String> {
    for dir in [baseline, candidate] {
        if !dir.is_dir() {
            return Err(format!("{} is not a directory", dir.display()));
        }
    }
    let mut out = Vec::new();
    for &name in COMPARED_FILES {
        let in_a = baseline.join(name).is_file();
        let in_b = candidate.join(name).is_file();
        let report = match (in_a, in_b) {
            (false, false) => continue,
            (true, false) => Err(format!("missing in candidate {}", candidate.display())),
            (false, true) => Err(format!("missing in baseline {}", baseline.display())),
            (true, true) => match (load_json(baseline, name), load_json(candidate, name)) {
                (Ok(a), Ok(b)) => Ok(diff_json(&normalize(name, a), &normalize(name, b), tol)),
                (Err(e), _) | (_, Err(e)) => Err(e),
            },
        };
        out.push(FileDiff { file: name, report });
    }
    if out.is_empty() {
        return Err(format!(
            "no comparable artifacts found in {} and {} (expected e.g. tables.json)",
            baseline.display(),
            candidate.display()
        ));
    }
    Ok(out)
}

/// Render the per-file reports as a human-readable summary.
pub fn render_dir_diff(diffs: &[FileDiff]) -> String {
    let mut s = String::new();
    let mut drifted = 0usize;
    for d in diffs {
        match &d.report {
            Ok(r) if r.is_clean() => {
                s.push_str(&format!(
                    "{:<18} ok ({} metrics compared)\n",
                    d.file, r.compared
                ));
            }
            Ok(r) => {
                drifted += 1;
                s.push_str(&format!(
                    "{:<18} DRIFT ({} of {} metrics out of tolerance)\n",
                    d.file,
                    r.failures(),
                    r.compared
                ));
                s.push_str(&r.render());
            }
            Err(msg) => {
                drifted += 1;
                s.push_str(&format!("{:<18} ERROR: {msg}\n", d.file));
            }
        }
    }
    if drifted == 0 {
        s.push_str("all artifacts within tolerance\n");
    } else {
        s.push_str(&format!("{drifted} artifact(s) drifted\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_dir(dir: &Path, files: &[(&str, &str)]) {
        std::fs::create_dir_all(dir).unwrap();
        for (name, body) in files {
            std::fs::write(dir.join(name), body).unwrap();
        }
    }

    /// A directory path under the system temp dir, removed when the test
    /// ends, also when it panics.
    struct Tmp(std::path::PathBuf);

    impl std::ops::Deref for Tmp {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Tmp {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmp(name: &str) -> Tmp {
        let d = std::env::temp_dir().join(format!("vax-diffcmd-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        Tmp(d)
    }

    #[test]
    fn identical_dirs_are_clean() {
        let a = tmp("ident-a");
        let b = tmp("ident-b");
        let body = r#"{"cpi": 10.5, "cycles": 100}"#;
        write_dir(&a, &[("tables.json", body)]);
        write_dir(&b, &[("tables.json", body)]);
        let diffs = diff_run_dirs(&a, &b, &Tolerance::exact()).unwrap();
        assert_eq!(diffs.len(), 1);
        assert!(diffs.iter().all(FileDiff::is_clean));
        assert!(render_dir_diff(&diffs).contains("all artifacts within tolerance"));
    }

    #[test]
    fn drift_and_missing_files_fail() {
        let a = tmp("drift-a");
        let b = tmp("drift-b");
        write_dir(
            &a,
            &[
                ("tables.json", r#"{"cpi": 10.5}"#),
                ("validation.json", r#"{"clean": true}"#),
            ],
        );
        write_dir(&b, &[("tables.json", r#"{"cpi": 11.9}"#)]);
        let diffs = diff_run_dirs(&a, &b, &Tolerance::exact()).unwrap();
        assert_eq!(diffs.len(), 2);
        assert!(!diffs[0].is_clean(), "cpi drifted");
        assert!(!diffs[1].is_clean(), "validation.json missing in candidate");
        let rendered = render_dir_diff(&diffs);
        assert!(rendered.contains("DRIFT"), "{rendered}");
        assert!(rendered.contains("missing in candidate"), "{rendered}");
        // A relative tolerance wide enough to cover the delta passes it.
        let diffs = diff_run_dirs(&a, &b, &Tolerance::new(0.0, 0.2)).unwrap();
        assert!(diffs[0].is_clean());
        assert!(!diffs[1].is_clean(), "missing file never passes tolerance");
    }

    #[test]
    fn empty_intersection_is_an_error() {
        let a = tmp("empty-a");
        let b = tmp("empty-b");
        write_dir(&a, &[]);
        write_dir(&b, &[]);
        assert!(diff_run_dirs(&a, &b, &Tolerance::exact()).is_err());
        assert!(diff_run_dirs(&a, Path::new("/nonexistent-xyz"), &Tolerance::exact()).is_err());
    }

    #[test]
    fn runtime_json_ignores_wall_clock_but_gates_on_counts() {
        let a = tmp("rt-a");
        let b = tmp("rt-b");
        write_dir(
            &a,
            &[(
                "runtime.json",
                r#"{"counters": {"cells_done": 5},
                    "phases": {"boot": {"count": 5, "total_us": 1111}}}"#,
            )],
        );
        // Same counts, different wall-clock: clean.
        write_dir(
            &b,
            &[(
                "runtime.json",
                r#"{"counters": {"cells_done": 5},
                    "phases": {"boot": {"count": 5, "total_us": 9999}}}"#,
            )],
        );
        let diffs = diff_run_dirs(&a, &b, &Tolerance::exact()).unwrap();
        assert!(diffs[0].is_clean(), "total_us is stripped at depth");

        // Different counts: drift, even at identical wall-clock.
        write_dir(
            &b,
            &[(
                "runtime.json",
                r#"{"counters": {"cells_done": 4},
                    "phases": {"boot": {"count": 5, "total_us": 1111}}}"#,
            )],
        );
        let diffs = diff_run_dirs(&a, &b, &Tolerance::exact()).unwrap();
        assert!(!diffs[0].is_clean(), "counts must still gate");
    }
}
