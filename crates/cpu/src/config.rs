//! CPU configuration knobs.

/// Configuration of the simulated 11/780 CPU.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Interval-timer period in cycles; `None` disables the clock.
    /// 10 ms on the real machine ≈ 50 000 cycles at 200 ns; timesharing
    /// simulations usually use a shorter quantum to reach the paper's
    /// interrupt headway on feasible run lengths.
    pub timer_interval: Option<u64>,
    /// One abort cycle is charged every `patch_interval` cycles, modelling
    /// the field-installed microcode patches ("one [abort] for each
    /// microcode patch"). `None` disables.
    pub patch_interval: Option<u64>,
    /// Enable the host-side decoded-instruction cache
    /// ([`crate::icache::DecodeCache`]). Fetch/decode is untimed, so this
    /// changes no simulated behaviour — only wall-clock speed. Off is kept
    /// as a test oracle for the equivalence property.
    pub decode_cache: bool,
}

impl CpuConfig {
    /// The configuration used for the paper-reproduction experiments.
    pub const VAX_780: CpuConfig = CpuConfig {
        timer_interval: Some(9000),
        patch_interval: Some(133),
        decode_cache: true,
    };
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::VAX_780
    }
}
