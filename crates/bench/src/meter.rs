//! The host's peak resident set, read from procfs.
//!
//! The repository benchmark (`examples/benchmark`) reports it as its
//! `peak_rss_mb` metric.

/// Peak resident set size in bytes, read from `/proc/self/status` (`VmHWM`,
/// reported in kB). Returns `None` on hosts without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parse the `VmHWM` line out of a `/proc/self/status` document.
///
/// Returns `None` — never an error, never a conflated `0` — when the line
/// is absent (procfs without per-process accounting, non-Linux fixtures)
/// or malformed. The unit suffix must literally be `kB` (that is what the
/// kernel prints); a bare number or an unexpected unit is treated as
/// malformed rather than guessed at, since a wrongly-scaled RSS is worse
/// in a regression dashboard than an honest `null`.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\treproduce\nVmPeak:\t  123 kB\nVmHWM:\t   2048 kB\nThreads: 1\n";
        assert_eq!(parse_vm_hwm(status), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("Name: x\n"), None);
    }

    #[test]
    fn parses_fixture_status_files() {
        let ok = include_str!("../tests/fixtures/proc_status_ok.txt");
        assert_eq!(parse_vm_hwm(ok), Some(51_200 * 1024));
        let missing = include_str!("../tests/fixtures/proc_status_no_vmhwm.txt");
        assert_eq!(parse_vm_hwm(missing), None, "absent VmHWM degrades to None");
    }

    #[test]
    fn malformed_vm_hwm_is_none_not_zero() {
        for bad in [
            "VmHWM:\t   garbage kB\n",
            "VmHWM:\t   2048\n",      // kernel always prints the unit
            "VmHWM:\t   2048 MB\n",   // unexpected unit: refuse to guess
            "VmHWM:\t   2048 kBkB\n", // the old trim_end_matches accepted this
            "VmHWM:\n",
        ] {
            assert_eq!(parse_vm_hwm(bad), None, "{bad:?}");
        }
        // VmHWM of a fresh process can legitimately be small but not absent;
        // zero parses as zero, distinct from None.
        assert_eq!(parse_vm_hwm("VmHWM:\t0 kB\n"), Some(0));
    }

    #[test]
    fn linux_host_reports_rss() {
        if std::path::Path::new("/proc/self/status").exists() {
            let rss = peak_rss_bytes().expect("VmHWM present on Linux");
            assert!(rss > 0);
        }
    }
}
