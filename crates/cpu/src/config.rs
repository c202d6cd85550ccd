//! CPU configuration knobs.

use vax_mem::VirtAddr;

/// Configuration of the simulated 11/780 CPU.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Base virtual address (system space) of the system control block; the
    /// kernel writes service-routine addresses here. See [`crate::ebox`]
    /// vector constants.
    pub scb_base: VirtAddr,
    /// Interval-timer period in cycles; `None` disables the clock.
    /// 10 ms on the real machine ≈ 50 000 cycles at 200 ns; timesharing
    /// simulations usually use a shorter quantum to reach the paper's
    /// interrupt headway on feasible run lengths.
    pub timer_interval: Option<u64>,
    /// IPL of the interval timer interrupt.
    pub timer_ipl: u8,
    /// One abort cycle is charged every `patch_interval` cycles, modelling
    /// the field-installed microcode patches ("one [abort] for each
    /// microcode patch"). `None` disables.
    pub patch_interval: Option<u64>,
    /// Model the 780's literal/register operand optimization, which fuses
    /// the first execute cycle into the last specifier cycle for SIMPLE and
    /// FIELD instructions.
    pub fusion: bool,
    /// Enable the host-side decoded-instruction cache
    /// ([`crate::icache::DecodeCache`]). Fetch/decode is untimed, so this
    /// changes no simulated behaviour — only wall-clock speed. Off is kept
    /// as a test oracle for the equivalence property.
    pub decode_cache: bool,
}

impl CpuConfig {
    /// The configuration used for the paper-reproduction experiments.
    pub const VAX_780: CpuConfig = CpuConfig {
        scb_base: VirtAddr(0x8000_0000),
        timer_interval: Some(9000),
        timer_ipl: 22,
        patch_interval: Some(133),
        fusion: true,
        decode_cache: true,
    };
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::VAX_780
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = CpuConfig::default();
        assert!(c.fusion);
        assert_eq!(c.timer_ipl, 22);
        assert!(c.scb_base.is_system());
    }
}
