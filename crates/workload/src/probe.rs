//! Probe-system construction: a single-process machine quiesced for
//! steady-state microbenchmark measurement.
//!
//! A characterization probe wants the *marginal* cost of one instruction,
//! which means everything asynchronous has to be silenced: the interval
//! timer (and with it every kernel context switch and software interrupt)
//! and the periodic microcode-patch abort cycles. With those off and a
//! warmup long enough to fill the TB, cache, and decode cache, the probe
//! loop is strictly periodic — every measurement window of a whole number
//! of loop periods sees exactly the same event counts, which is what makes
//! `characterize` deterministic and `refute`'s structural predictions
//! exact.

use vax780::{CpuConfig, ProcessSpec, System, SystemBuilder, SystemConfig};
use vax_asm::probe::ProbeLoop;

/// The system configuration probes run under: stock VAX-780 memory
/// geometry, but with the interval timer and patch-cycle charges disabled
/// so nothing asynchronous perturbs the loop.
pub fn quiesced_config() -> SystemConfig {
    SystemConfig {
        cpu: CpuConfig {
            timer_interval: None,
            patch_interval: None,
            ..CpuConfig::VAX_780
        },
        ..SystemConfig::default()
    }
}

/// Build the single-process machine for an assembled probe loop. The
/// process starts at the loop's `entry` label; with the quiesced config it
/// retires exactly one instruction per `System::step`.
pub fn probe_system(probe: &ProbeLoop) -> System {
    let mut b = SystemBuilder::new(quiesced_config());
    b.add_process(ProcessSpec::new(probe.image.clone(), "entry"));
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::{AddressingMode, Opcode};
    use vax_asm::probe::{probe_loop, probe_target};

    #[test]
    fn quiesced_config_disables_async_events() {
        let c = quiesced_config();
        assert_eq!(c.cpu.timer_interval, None);
        assert_eq!(c.cpu.patch_interval, None);
        // Everything else stays at the measured-machine values.
        assert!(c.cpu.decode_cache);
    }

    #[test]
    fn baseline_loop_is_strictly_periodic() {
        let b = probe_loop(None, 0).unwrap();
        let mut sys = probe_system(&b);
        // Two windows of the same whole number of periods must agree on
        // every counter-visible quantity.
        let n = u64::from(b.period) * 200;
        let m1 = sys.measure(2000, n);
        let m2 = sys.measure(0, n);
        assert_eq!(m1.instructions(), n);
        assert_eq!(m1.cycles, m2.cycles, "baseline loop drifted");
        assert_eq!(m1.hist, m2.hist, "histogram not periodic");
    }

    #[test]
    fn probe_loop_runs_clean() {
        let t = probe_target(Opcode::Addl2, AddressingMode::RegisterDeferred).unwrap();
        let p = probe_loop(Some(&t), 4).unwrap();
        let mut sys = probe_system(&p);
        let n = u64::from(p.period) * 100;
        let m = sys.measure(2000, n);
        assert_eq!(m.instructions(), n);
        assert_eq!(m.cpu_stats.total_interrupts(), 0);
    }
}
