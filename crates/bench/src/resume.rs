//! Checkpoint layout and the resume protocol.
//!
//! A run with `--out DIR` journals its progress under `DIR/checkpoints/`:
//!
//! - `run.json` — the header `{"format": "text"|"json", "spec": SPEC}`,
//!   written before the grid starts. `SPEC` is the run's experiment
//!   definition as a canonical run [`JobSpec`] (the codec of HTTP bodies,
//!   the daemon journal and `spec.json`), and its `format_version` gates
//!   the header. The spec's runtime-only fields (`jobs`, `retries`,
//!   `deadline_secs`, `strict`) are null/false: they never change results,
//!   so a resume chooses them anew, as it does `--shard-timeout` and
//!   verbosity. `format` sits beside the spec rather than in it, because
//!   it shapes what the run prints, not what it measures.
//! - `cell-<w>-<s>.json` — one full-fidelity
//!   [`vax_analysis::CheckpointCell`] per completed `(workload, shard)`
//!   cell, written atomically the moment the cell finishes.
//!
//! `reproduce resume DIR` turns the header into the run's options
//! ([`options_from_header`]) and hands them to the engine as
//! `JobRequest::Resume`, which runs the measurement path of a fresh run
//! except that `crate::runner::resume_composite` first folds every
//! parseable cell as it loads it and then re-runs only the missing ones
//! (same shard seeds ⇒ same results). A damaged cell — one that does not
//! parse, names another grid index, or fails the codec's structural checks
//! against the run's control store — counts as missing and re-runs.
//! Because the counters fold to the same sums in any order, the series
//! splices by grid index, and every writer is atomic, the resumed export
//! is byte-identical to an uninterrupted run no matter when the original
//! process died.

use std::path::{Path, PathBuf};

use upc_monitor::ControlStoreMap;
use vax_analysis::{cell_from_json, CheckpointCell, Json};
use vax_workload::Workload;

use crate::cli::{Format, Options, ResumeOptions};
use crate::jobspec::{JobSpec, RunSpec};
use crate::progress::Progress;

/// The checkpoint directory of a run exporting to `out`.
pub fn checkpoints_dir(out: &Path) -> PathBuf {
    out.join("checkpoints")
}

/// Path of the run-definition header.
pub fn header_path(out: &Path) -> PathBuf {
    checkpoints_dir(out).join("run.json")
}

/// Path of one cell's checkpoint.
pub fn cell_path(out: &Path, workload: u64, shard: u64) -> PathBuf {
    checkpoints_dir(out).join(format!("cell-{workload}-{shard}.json"))
}

/// The checkpoint header of run `opts`: its output format beside its
/// experiment definition, the run's spec with the runtime fields unset
/// (see the module docs).
pub fn header_json(opts: &Options) -> Json {
    let format = match opts.format {
        Format::Text => "text",
        Format::Json => "json",
    };
    let definition = RunSpec {
        jobs: None,
        retries: None,
        deadline_secs: None,
        strict: false,
        ..opts.spec.clone()
    };
    Json::obj([
        ("format", format.into()),
        ("spec", JobSpec::Run(definition).encode()),
    ])
}

/// Rebuild the options of the run journaled under `resume.dir` from its
/// checkpoint header, taking the runtime knobs (and the output directory)
/// from the resume invocation.
///
/// # Errors
/// A missing header, a header from before the spec layout, a `format`
/// other than text|json, or a spec the [`JobSpec`] decoder rejects (or
/// that is not a run) is an error: a resume must never guess at the
/// experiment definition.
pub fn options_from_header(resume: &ResumeOptions) -> Result<Options, String> {
    let path = header_path(&resume.dir);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read checkpoint header {}: {e} (was the run started with --out?)",
            path.display()
        )
    })?;
    let header = Json::parse(&text).map_err(|e| format!("checkpoint header: {e}"))?;
    if header.get("format_version").is_some() {
        return Err(format!(
            "checkpoint header {} predates the spec layout {{\"format\", \"spec\"}}; \
             rerun the experiment with this build",
            path.display()
        ));
    }
    let format = match header.get("format").and_then(Json::as_str) {
        Some("text") => Format::Text,
        Some("json") => Format::Json,
        _ => return Err("checkpoint header: 'format' must be text|json".to_string()),
    };
    let spec = header
        .get("spec")
        .ok_or_else(|| "missing 'spec'".to_string())
        .and_then(JobSpec::from_json)
        .map_err(|e| format!("checkpoint header: {e}"))?;
    if !matches!(spec, JobSpec::Run(_)) {
        return Err(format!(
            "checkpoint header: the spec is a {} job, not a run",
            spec.kind()
        ));
    }
    let mut opts = Options {
        format,
        out: Some(resume.dir.clone()),
        verbosity: resume.verbosity,
        shard_timeout_secs: resume.shard_timeout_secs,
        trace_out: resume.trace_out.clone(),
        progress_ms: resume.progress_ms,
        ..spec.to_run_options(resume.jobs, resume.retries)
    };
    opts.spec.strict = resume.strict;
    Ok(opts)
}

/// Hand every parseable cell checkpoint of the `Workload::ALL.len() ×
/// shards` grid to `keep`, one at a time in grid-index order, with its grid
/// index; the caller holds at most one parsed cell at a time. `map` is the
/// control store the run reduces against. A missing or corrupt checkpoint
/// is skipped (the cell will be re-run); a corrupt one is also warned
/// about, since it means the journal was damaged rather than merely
/// incomplete.
pub fn load_cells(
    out: &Path,
    shards: u64,
    map: &ControlStoreMap,
    progress: &Progress,
    mut keep: impl FnMut(usize, CheckpointCell),
) {
    for w in 0..Workload::ALL.len() as u64 {
        for s in 0..shards {
            let path = cell_path(out, w, s);
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let cell = Json::parse(&text)
                .and_then(|j| cell_from_json(&j, map))
                .and_then(|c| {
                    if c.workload == w && c.shard == s {
                        Ok(c)
                    } else {
                        Err(format!(
                            "cell indices ({}, {}) disagree with file name",
                            c.workload, c.shard
                        ))
                    }
                });
            match cell {
                Ok(c) => keep((w * shards + s) as usize, c),
                Err(e) => progress.warn(&format!(
                    "discarding corrupt checkpoint {}: {e}",
                    path.display()
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::Verbosity;
    use vax780::FaultClass;

    /// A resume of `dir` whose runtime knobs differ from every default.
    fn resume_opts(dir: &Path) -> ResumeOptions {
        ResumeOptions {
            dir: dir.to_path_buf(),
            jobs: 3,
            retries: 2,
            shard_timeout_secs: Some(9.0),
            strict: true,
            verbosity: Verbosity::Quiet,
            trace_out: None,
            progress_ms: None,
        }
    }

    /// Write `text` as the checkpoint header of a fresh scratch run dir.
    fn run_dir_with_header(name: &str, text: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vax-resume-{name}-{}", std::process::id()));
        std::fs::create_dir_all(checkpoints_dir(&dir)).unwrap();
        std::fs::write(header_path(&dir), text).unwrap();
        dir
    }

    /// header → options → header: the options carry the definition back
    /// byte for byte, and take every runtime knob from the resume.
    fn round_trip(name: &str, opts: &Options) -> Options {
        let text = header_json(opts).to_string_pretty();
        let dir = run_dir_with_header(name, &text);
        let back = options_from_header(&resume_opts(&dir)).unwrap();
        assert_eq!(header_json(&back).to_string_pretty(), text);
        assert_eq!(back.format, opts.format);
        assert_eq!((back.jobs(), back.retries()), (3, 2));
        assert_eq!(back.shard_timeout_secs, Some(9.0));
        assert!(back.spec.strict);
        assert_eq!(back.verbosity, Verbosity::Quiet);
        assert_eq!(back.out.as_deref(), Some(dir.as_path()));
        assert!(back.inject_panic.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
        back
    }

    #[test]
    fn header_is_a_run_spec_that_round_trips_through_options() {
        let opts = Options {
            spec: RunSpec {
                instructions: 123_456,
                seed: 99,
                shards: 4,
                experiment: "table8".to_string(),
                interval_cycles: 7_000,
                per_workload: true,
                profile: true,
                top: 11,
                flight_recorder: 64,
                fault_seed: Some(42),
                fault_classes: vec![FaultClass::Parity, FaultClass::Smc],
                // Runtime knobs: none of them may reach the header.
                jobs: Some(8),
                retries: Some(5),
                strict: true,
                ..RunSpec::default()
            },
            format: Format::Json,
            ..Options::default()
        };
        let header = header_json(&opts);
        assert_eq!(header.get("format").and_then(Json::as_str), Some("json"));
        let spec = JobSpec::from_json(header.get("spec").unwrap()).unwrap();
        assert!(matches!(
            spec,
            JobSpec::Run(RunSpec {
                jobs: None,
                retries: None,
                deadline_secs: None,
                strict: false,
                ..
            })
        ));
        // Byte-stable, and the encoding names every definition field, so
        // the definition survives exactly.
        round_trip("definition", &opts);

        // So do the extremes the CLI accepts.
        let argv = ["--seed", "9223372036854775807", "--shards", "4096"].map(String::from);
        let back = round_trip("extremes", &crate::cli::parse_args(&argv).unwrap());
        assert_eq!((back.spec.seed, back.spec.shards), (i64::MAX as u64, 4096));
    }

    #[test]
    fn rejects_damaged_old_and_foreign_headers() {
        let good = header_json(&Options::default()).to_string_pretty();
        let edits = [
            (
                "\"experiment\": \"all\"",
                "\"experiment\": \"x\"",
                "unknown experiment",
            ),
            ("\"format\": \"text\"", "\"format\": \"xml\"", "text|json"),
            ("\"shards\": 1", "\"shards\": 0", "'shards'"),
            ("\"seed\": 1984", "\"seed\": \"x\"", "'seed'"),
            (
                "\"format_version\": 1",
                "\"format_version\": 2",
                "format_version 2",
            ),
            ("\"spec\"", "\"spec_\"", "missing 'spec'"),
        ];
        let whole = [
            (
                r#"{"format_version": 1, "seed": 1984}"#,
                "predates the spec layout",
            ),
            (
                r#"{"format": "json", "spec": {"kind": "refute"}}"#,
                "not a run",
            ),
            ("{", "checkpoint header"),
        ];
        let cases = edits
            .map(|(from, to, expect)| (good.replacen(from, to, 1), expect))
            .into_iter()
            .chain(whole.map(|(text, expect)| (text.to_string(), expect)));
        for (text, expect) in cases {
            assert_ne!(text, good, "edit for '{expect}' missed");
            let dir = run_dir_with_header("damaged", &text);
            let err = options_from_header(&resume_opts(&dir)).unwrap_err();
            assert!(err.contains(expect), "{err}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let missing = std::env::temp_dir().join(format!("vax-resume-none-{}", std::process::id()));
        let err = options_from_header(&resume_opts(&missing)).unwrap_err();
        assert!(err.contains("was the run started with --out?"), "{err}");
    }
}
