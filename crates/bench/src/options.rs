//! Frontend flags shared by every `reproduce` subcommand, and the
//! argument helpers of the parsers.
//!
//! The run, resume, characterize, refute, and serve subcommands all accept
//! the same narration and tracing flags (`--trace-out`, `--progress`,
//! `--quiet`/`--verbose`). [`CommonOpts::try_parse`] is their only
//! implementation; each subcommand parser offers it every argument that
//! is not a spec flag and keeps only its command-specific arms. Spec
//! flags (`--jobs`, `--retries` and the experiment definition) are not
//! here: they come from the field tables of `crate::jobspec`, which
//! validate them exactly as they validate a JSON spec.
//!
//! `parse_u64` caps integers at [`MAX_JSON_INT`], so every integer the
//! command line accepts fits a spec, and `--shard-timeout` follows the
//! rule of a spec's `deadline_secs`.

use std::path::PathBuf;

use crate::jobspec::{Kind, Syntax, MAX_JSON_INT};
use crate::progress::Verbosity;

/// The arguments after the one being parsed.
pub type Args<'a> = std::slice::Iter<'a, String>;

/// The narration and tracing flags every grid-running subcommand shares.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// `--trace-out FILE` (Chrome-trace export; enables the tracer).
    pub trace_out: Option<PathBuf>,
    /// `--progress[=MS]` (stderr heartbeat period; enables the tracer).
    pub progress_ms: Option<u64>,
    quiet: bool,
    verbose: bool,
}

impl CommonOpts {
    /// Offer `arg` to the shared parser. Consumes the flag (and its value
    /// from `rest`) and returns `Ok(true)` when it is one of the shared
    /// flags; returns `Ok(false)`, consuming nothing, otherwise.
    ///
    /// # Errors
    /// Returns the standard message for a shared flag with a missing or
    /// invalid value.
    pub fn try_parse(&mut self, arg: &str, rest: &mut Args) -> Result<bool, String> {
        match arg {
            "--trace-out" => self.trace_out = Some(value(arg, rest, "a file path")?.into()),
            flag if flag == "--progress" || flag.starts_with("--progress=") => {
                self.progress_ms = Some(parse_progress(flag)?);
            }
            "--quiet" => self.quiet = true,
            "--verbose" => self.verbose = true,
            _ => return Ok(false),
        }
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

/// The value of flag `arg`, taken from `rest`; `what` names what the flag
/// needs when the value is missing.
///
/// # Errors
/// Returns "`arg` requires `what`" when `rest` is empty.
pub fn value<'a>(arg: &str, rest: &mut Args<'a>, what: &str) -> Result<&'a String, String> {
    rest.next().ok_or_else(|| format!("{arg} requires {what}"))
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

/// Parse `--shard-timeout` (seconds) by the rule of a spec's
/// `deadline_secs`: `0 < x ≤ MAX_DEADLINE_SECS`, so the per-attempt
/// watchdog can always be armed.
pub fn parse_shard_timeout(value: Option<&String>) -> Result<f64, String> {
    let secs = Kind::Secs.parse_arg("shard_timeout", value)?;
    let secs = Kind::Secs.check("shard_timeout", &secs, Syntax::Argv)?;
    Ok(secs.as_f64().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn consumes_shared_flags_and_advances() {
        let args = argv(&["--trace-out", "t.json", "--quiet", "--progress=250"]);
        let mut c = CommonOpts::default();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            assert!(c.try_parse(arg, &mut rest).unwrap(), "all flags are shared");
        }
        assert_eq!(c.trace_out, Some(PathBuf::from("t.json")));
        assert_eq!(c.verbosity().unwrap(), Verbosity::Quiet);
        assert_eq!(c.progress_ms, Some(250));
    }

    #[test]
    fn leaves_foreign_flags_untouched() {
        let args = argv(&["--shards", "2"]);
        let mut c = CommonOpts::default();
        let mut rest = args.iter();
        let arg = rest.next().unwrap();
        assert!(!c.try_parse(arg, &mut rest).unwrap());
        assert_eq!(rest.len(), 1, "a rejected flag must not consume anything");
    }

    #[test]
    fn shared_validation_rules() {
        let mut c = CommonOpts::default();
        let err = c.try_parse("--progress=0", &mut [].iter()).unwrap_err();
        assert!(err.contains("at least 1 ms"), "{err}");
        let err = c.try_parse("--trace-out", &mut [].iter()).unwrap_err();
        assert!(err.contains("file path"), "{err}");
    }

    #[test]
    fn verbosity_resolution() {
        let mut c = CommonOpts::default();
        assert_eq!(c.verbosity().unwrap(), Verbosity::Normal);
        c.try_parse("--quiet", &mut [].iter()).unwrap();
        assert_eq!(c.verbosity().unwrap(), Verbosity::Quiet);
        c.try_parse("--verbose", &mut [].iter()).unwrap();
        assert!(c.verbosity().is_err(), "quiet+verbose conflict");
    }

    #[test]
    fn shard_timeout_follows_the_deadline_rule() {
        let arg = |v: &str| parse_shard_timeout(Some(&v.to_string()));
        assert_eq!(arg("1.5"), Ok(1.5));
        assert_eq!(arg("1e9"), Ok(1e9), "the bound itself is valid");
        for (bad, why) in [
            ("0", "--shard-timeout must be greater than zero"),
            ("1e300", "--shard-timeout must be at most 1e9"),
            (
                "inf",
                "--shard-timeout must be a finite non-negative number",
            ),
            ("abc", "invalid value for --shard-timeout: 'abc'"),
        ] {
            let err = arg(bad).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }
}
