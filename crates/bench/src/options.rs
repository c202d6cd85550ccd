//! Flags shared by every `reproduce` frontend, parsed in one place.
//!
//! The run, resume, characterize, refute, and serve subcommands all accept
//! the same engine-level knobs (`--jobs`, `--retries`, `--trace-out`,
//! `--progress`, `--quiet`/`--verbose`). Before this module each parser
//! re-implemented them — identical match arms with identical validation in
//! three places, one divergence away from the subcommands disagreeing
//! about what `--jobs 0` means. [`CommonOpts::try_parse`] is now the only
//! implementation; each subcommand parser offers every unrecognized flag
//! to it first and keeps only its command-specific arms.
//!
//! The shared numeric helpers (`parse_u64`, `parse_f64`, …) live here too.
//! They share their bounds with the `JobSpec` decoder (`crate::jobspec`):
//! no integer above [`MAX_JSON_INT`], `--retries` up to [`MAX_RETRIES`]
//! and `--shards` up to `MAX_GRID`. So every run the CLI accepts has a
//! spec, and its checkpoint header can carry it to a resume.

use std::path::PathBuf;

use crate::jobspec::{MAX_JSON_INT, MAX_RETRIES};
use crate::progress::Verbosity;

/// The engine-level flags every grid-running subcommand shares.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// `--jobs N` (worker threads, ≥ 1); `None` when not given.
    pub jobs: Option<usize>,
    /// `--retries N` (extra attempts per failing cell).
    pub retries: Option<u32>,
    /// `--trace-out FILE` (Chrome-trace export; enables the tracer).
    pub trace_out: Option<PathBuf>,
    /// `--progress[=MS]` (stderr heartbeat period; enables the tracer).
    pub progress_ms: Option<u64>,
    quiet: bool,
    verbose: bool,
}

impl CommonOpts {
    /// Offer `args[*i]` to the shared parser. Consumes the flag (and its
    /// value, advancing `*i` past both) and returns `Ok(true)` when it is
    /// one of the shared flags; returns `Ok(false)` untouched otherwise.
    ///
    /// # Errors
    /// Returns the standard message for a shared flag with a missing or
    /// invalid value.
    pub fn try_parse(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        match args[*i].as_str() {
            "--jobs" => {
                *i += 1;
                let n = parse_u64("--jobs", args.get(*i))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                self.jobs = Some(n as usize);
            }
            "--retries" => {
                *i += 1;
                let n = parse_u64("--retries", args.get(*i))?;
                if n > MAX_RETRIES {
                    return Err(format!("--retries must be at most {MAX_RETRIES}"));
                }
                self.retries = Some(n as u32);
            }
            "--trace-out" => {
                *i += 1;
                let file = args
                    .get(*i)
                    .ok_or_else(|| "--trace-out requires a file path".to_string())?;
                self.trace_out = Some(PathBuf::from(file));
            }
            flag if flag == "--progress" || flag.starts_with("--progress=") => {
                self.progress_ms = Some(parse_progress(flag)?);
            }
            "--quiet" => self.quiet = true,
            "--verbose" => self.verbose = true,
            _ => return Ok(false),
        }
        *i += 1;
        Ok(true)
    }

    /// Resolve `--quiet`/`--verbose` into a [`Verbosity`].
    ///
    /// # Errors
    /// Returns the standard message when both were given.
    pub fn verbosity(&self) -> Result<Verbosity, String> {
        if self.quiet && self.verbose {
            return Err("--quiet and --verbose are mutually exclusive".to_string());
        }
        Ok(if self.quiet {
            Verbosity::Quiet
        } else if self.verbose {
            Verbosity::Verbose
        } else {
            Verbosity::Normal
        })
    }
}

/// Parse a flag's value as a non-negative integer up to [`MAX_JSON_INT`].
pub fn parse_u64(flag: &str, value: Option<&String>) -> Result<u64, String> {
    let raw = value.ok_or_else(|| format!("{flag} requires a value"))?;
    match raw.parse() {
        Ok(n) if n <= MAX_JSON_INT => Ok(n),
        _ => Err(format!(
            "invalid value for {flag}: '{raw}' (expected an integer from 0 to {MAX_JSON_INT})"
        )),
    }
}

/// Parse a flag's value as a finite non-negative number.
pub fn parse_f64(flag: &str, value: Option<&String>) -> Result<f64, String> {
    let raw = value.ok_or_else(|| format!("{flag} requires a value"))?;
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("invalid value for {flag}: '{raw}' (expected a number)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!(
            "invalid value for {flag}: '{raw}' (expected a finite non-negative number)"
        ));
    }
    Ok(v)
}

/// Parse `--progress` / `--progress=MS` (period in milliseconds, ≥ 1).
pub fn parse_progress(arg: &str) -> Result<u64, String> {
    match arg.strip_prefix("--progress=") {
        None => Ok(1000),
        Some(raw) => {
            let ms: u64 = raw.parse().map_err(|_| {
                format!("invalid value for --progress: '{raw}' (expected milliseconds)")
            })?;
            if ms == 0 {
                return Err("--progress period must be at least 1 ms".to_string());
            }
            Ok(ms)
        }
    }
}

/// Parse `--shard-timeout` (seconds, strictly positive).
pub fn parse_shard_timeout(value: Option<&String>) -> Result<f64, String> {
    let v = parse_f64("--shard-timeout", value)?;
    if v <= 0.0 {
        return Err("--shard-timeout must be greater than zero".to_string());
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn consumes_shared_flags_and_advances() {
        let args = argv(&["--jobs", "4", "--retries", "2", "--progress=250"]);
        let mut c = CommonOpts::default();
        let mut i = 0;
        while i < args.len() {
            assert!(c.try_parse(&args, &mut i).unwrap(), "all flags are shared");
        }
        assert_eq!(c.jobs, Some(4));
        assert_eq!(c.retries, Some(2));
        assert_eq!(c.progress_ms, Some(250));
    }

    #[test]
    fn leaves_foreign_flags_untouched() {
        let args = argv(&["--shards", "2"]);
        let mut c = CommonOpts::default();
        let mut i = 0;
        assert!(!c.try_parse(&args, &mut i).unwrap());
        assert_eq!(i, 0, "a rejected flag must not consume anything");
    }

    #[test]
    fn shared_validation_rules() {
        let mut c = CommonOpts::default();
        let mut i = 0;
        let err = c.try_parse(&argv(&["--jobs", "0"]), &mut i).unwrap_err();
        assert!(err.contains("--jobs must be at least 1"), "{err}");
        let mut i = 0;
        let err = c.try_parse(&argv(&["--trace-out"]), &mut i).unwrap_err();
        assert!(err.contains("file path"), "{err}");
    }

    #[test]
    fn verbosity_resolution() {
        let mut c = CommonOpts::default();
        assert_eq!(c.verbosity().unwrap(), Verbosity::Normal);
        let mut i = 0;
        c.try_parse(&argv(&["--quiet"]), &mut i).unwrap();
        assert_eq!(c.verbosity().unwrap(), Verbosity::Quiet);
        let mut i = 0;
        c.try_parse(&argv(&["--verbose"]), &mut i).unwrap();
        assert!(c.verbosity().is_err(), "quiet+verbose conflict");
    }
}
