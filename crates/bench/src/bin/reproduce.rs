//! Regenerate the paper's tables: the full reproduction harness.
//!
//! `reproduce --help` prints the usage of every subcommand. Its spec
//! flags come from the field tables of `vax_bench::jobspec`, the ones a
//! served job's JSON spec is checked against, so the usage cannot drift
//! from what the parsers accept.
//!
//! `--experiment` is one of fig1, table1..table9, events, all (default
//! `all`).
//! `--per-workload` also prints the composite's five constituent CPIs.
//! `--jobs N` runs the workload × shard grid on N worker threads; results
//! are reduced in a fixed grid order, so exports are byte-identical at any
//! job count (see `docs/PARALLELISM.md`). `--shards K` runs K replica
//! shards per workload, each seeded from its own SplitMix64 stream.
//!
//! With `--format json`, the run emits machine-readable artifacts — the run
//! manifest, raw measurement counters, Tables 1–9, the interval time series
//! (JSON and CSV), and the counter-conservation validation report — into
//! `--out DIR` (or tables.json to stdout when `--out` is absent). All
//! narration goes to stderr so stdout stays machine-clean.
//!
//! `--profile` reduces the µPC histogram into a hierarchical attribution
//! profile: a top-N hot-routine report, `profile.folded` for flame-graph
//! tools, and `profile.json`.
//!
//! `diff` compares two exported run directories metric by metric and exits
//! nonzero on out-of-tolerance drift — the CI regression gate. Host speed
//! is measured by the repository benchmark (`examples/benchmark`), not by
//! this binary; see `docs/PERFORMANCE.md`.
//!
//! `--fault-seed` injects a deterministic schedule of simulated hardware
//! faults; `--retries`/`--shard-timeout`/`--strict` supervise shard
//! failures; `resume` finishes an interrupted `--out` run from its
//! checkpoints. See `docs/ROBUSTNESS.md`.
//!
//! `serve` turns the same engine into a long-lived HTTP daemon with warm
//! codegen/boot caches; see `docs/SERVICE.md`.
//!
//! Every experiment path goes through `vax_bench::engine::JobEngine` —
//! this file only parses argv, prints the outcome's stdout, and exits
//! with its code, so a CLI run and a served job of the same spec are the
//! same computation. A reader that closes stdout early (`reproduce diff A
//! B | head`) has read what it wanted: the command still exits with its
//! own code.

use std::io::{ErrorKind, Write};
use std::path::Path;

use vax_analysis::Tolerance;
use vax_bench::cli::{self, Command, DiffOptions};
use vax_bench::diffcmd::{self, FileDiff};
use vax_bench::engine::{JobEngine, JobRequest};
use vax_bench::tracecheck;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse_command(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eprintln!("reproduce: {msg}");
            eprintln!("{}", cli::usage());
            std::process::exit(2);
        }
    };
    let code = match cmd {
        Command::Diff(d) => run_diff(&d),
        Command::Run(opts) => run_engine(JobRequest::Run(opts)),
        Command::Resume(r) => match vax_bench::resume::options_from_header(r) {
            Ok(opts) => run_engine(JobRequest::Resume(opts)),
            Err(e) => {
                eprintln!("reproduce resume: {e}");
                1
            }
        },
        Command::TraceCheck(path) => run_trace_check(&path),
        Command::Characterize(o) => run_engine(JobRequest::Characterize(o)),
        Command::Refute(o) => run_engine(JobRequest::Refute(o)),
        Command::Serve(o) => vax_bench::serve::run_serve(&o),
        Command::Help => {
            print_out(&format!("{}\n", cli::usage()));
            0
        }
    };
    std::process::exit(code);
}

/// Write `text` to stdout, the one way this binary prints there. A closed
/// pipe ends the output, not the command; any other write error exits 1.
fn print_out(text: &str) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("reproduce: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Hand a job to a fresh engine and print what it would have printed.
fn run_engine(req: JobRequest) -> i32 {
    let outcome = JobEngine::new().execute(&req);
    print_out(&outcome.stdout);
    outcome.code
}

/// `reproduce trace-check`: validate a Chrome-trace file; 0 = clean.
fn run_trace_check(path: &Path) -> i32 {
    match tracecheck::check_trace_file(path) {
        Ok(summary) => {
            print_out(&format!("{summary}\n"));
            0
        }
        Err(msg) => {
            eprintln!("reproduce trace-check: {msg}");
            1
        }
    }
}

/// `reproduce diff`: compare two run directories; 0 = within tolerance.
fn run_diff(d: &DiffOptions) -> i32 {
    let tol = Tolerance::new(d.abs_tol, d.rel_tol);
    match diffcmd::diff_run_dirs(&d.baseline, &d.candidate, &tol) {
        Ok(diffs) => {
            print_out(&diffcmd::render_dir_diff(&diffs));
            if diffs.iter().all(FileDiff::is_clean) {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("reproduce diff: {e}");
            1
        }
    }
}
