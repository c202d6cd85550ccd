//! Deterministic fault injection.
//!
//! Emer & Clark measured a *live* machine, so their histograms include the
//! rare paths — machine checks, interrupt bursts, TB invalidations — at
//! whatever rate the machine happened to produce them. A reproduction can
//! do better: schedule those events *on demand*, from a seeded plan, and
//! prove the conservation invariants still hold. Every injected fault is
//! routed through an already dually-instrumented mechanism (interrupt
//! dispatch microcode, TB-miss service, the code-watch epoch), so the
//! eight `vax_analysis::validate` cross-checks pass under any plan by
//! construction.
//!
//! A [`FaultPlan`] is generated from `(fault_seed, workload, shard)` via the
//! same `rand::SeedStream` splitting as the workload seeds, so plans are
//! decorrelated across grid cells yet fully reproducible: the same seed
//! always yields the same event schedule, and exports stay byte-identical
//! across runs and job counts.

use rand::{Rng, SeedStream};

/// One injectable fault class (the CLI `--fault-classes` vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// SBI/memory parity error: latched in the memory system, delivered as
    /// a machine check (SCB slot 3, IPL 30).
    Parity,
    /// TB invalidation storm: bursts of full-TB invalidates (as a guest
    /// TBIA would do), each followed by a decode-cache flush.
    TbStorm,
    /// Hardware interrupt burst: external-device interrupts (SCB slot 4,
    /// IPL 21) at short headways.
    HwBurst,
    /// Software interrupt burst: SIRR-style requests at random levels.
    SwBurst,
    /// Self-modifying-code burst: DMA-style byte stores over current code,
    /// invalidating cached decodes without changing behaviour.
    Smc,
}

impl FaultClass {
    /// Every class, in the canonical (generation) order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::Parity,
        FaultClass::TbStorm,
        FaultClass::HwBurst,
        FaultClass::SwBurst,
        FaultClass::Smc,
    ];

    /// The CLI/manifest name of this class.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Parity => "parity",
            FaultClass::TbStorm => "tb-storm",
            FaultClass::HwBurst => "hw-burst",
            FaultClass::SwBurst => "sw-burst",
            FaultClass::Smc => "smc",
        }
    }

    /// Parse one class name.
    pub fn parse(s: &str) -> Result<FaultClass, String> {
        FaultClass::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
                format!(
                    "unknown fault class '{s}' (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// Parse a comma-separated class list (`parity,tb-storm`). Duplicates are
/// collapsed; order is normalized to the canonical order so the manifest
/// records a canonical form.
pub fn parse_classes(csv: &str) -> Result<Vec<FaultClass>, String> {
    let mut picked = [false; 5];
    for part in csv.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err("empty fault class in list".to_string());
        }
        let c = FaultClass::parse(part)?;
        picked[FaultClass::ALL.iter().position(|x| *x == c).unwrap()] = true;
    }
    Ok(FaultClass::ALL
        .into_iter()
        .zip(picked)
        .filter_map(|(c, on)| on.then_some(c))
        .collect())
}

/// A concrete fault to apply between two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Latch a parity fault (machine check on the next step).
    Parity,
    /// Invalidate the whole TB and flush the decode cache.
    TbInvalidate,
    /// Post an external-device hardware interrupt.
    DeviceInterrupt,
    /// Request a software interrupt at this level (1..=15).
    SoftRequest(u8),
    /// Rewrite a code byte at the current PC (same value, epoch bump).
    SmcWrite,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Retired-instruction count (within the measured interval) at or after
    /// which the fault fires.
    pub at_instruction: u64,
    /// What to inject.
    pub kind: FaultKind,
}

/// A seeded, sorted schedule of faults for one (workload, shard) cell.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Generate the plan for one grid cell. `instructions` is the measured
    /// instruction budget of the cell; event density scales with it so
    /// short smoke runs still exercise every enabled class at least once.
    pub fn generate(
        fault_seed: u64,
        workload_index: usize,
        shard: usize,
        instructions: u64,
        classes: &[FaultClass],
    ) -> FaultPlan {
        let mut rng = SeedStream::new(fault_seed)
            .stream(workload_index as u64)
            .stream(shard as u64)
            .rng();
        let span = instructions.max(1);
        let mut events = Vec::new();
        // Canonical class order keeps the rng draw sequence (and thus the
        // schedule) independent of the order classes were named on the CLI.
        for class in FaultClass::ALL {
            if !classes.contains(&class) {
                continue;
            }
            match class {
                FaultClass::Parity => {
                    let n = (span / 100_000).max(1);
                    for _ in 0..n {
                        events.push(FaultEvent {
                            at_instruction: rng.gen_range(0..span),
                            kind: FaultKind::Parity,
                        });
                    }
                }
                FaultClass::TbStorm => {
                    let bursts = (span / 150_000).max(1);
                    for _ in 0..bursts {
                        let mut at = rng.gen_range(0..span);
                        let len = rng.gen_range(4..=12);
                        for _ in 0..len {
                            events.push(FaultEvent {
                                at_instruction: at,
                                kind: FaultKind::TbInvalidate,
                            });
                            at = at.saturating_add(rng.gen_range(50..=200));
                        }
                    }
                }
                FaultClass::HwBurst => {
                    let bursts = (span / 120_000).max(1);
                    for _ in 0..bursts {
                        let mut at = rng.gen_range(0..span);
                        let len = rng.gen_range(3..=8);
                        for _ in 0..len {
                            events.push(FaultEvent {
                                at_instruction: at,
                                kind: FaultKind::DeviceInterrupt,
                            });
                            at = at.saturating_add(rng.gen_range(20..=100));
                        }
                    }
                }
                FaultClass::SwBurst => {
                    let bursts = (span / 120_000).max(1);
                    for _ in 0..bursts {
                        let mut at = rng.gen_range(0..span);
                        let len = rng.gen_range(2..=6);
                        for _ in 0..len {
                            events.push(FaultEvent {
                                at_instruction: at,
                                kind: FaultKind::SoftRequest(rng.gen_range(1..=15u8)),
                            });
                            at = at.saturating_add(rng.gen_range(30..=150));
                        }
                    }
                }
                FaultClass::Smc => {
                    let bursts = (span / 150_000).max(1);
                    for _ in 0..bursts {
                        let mut at = rng.gen_range(0..span);
                        let len = rng.gen_range(2..=5);
                        for _ in 0..len {
                            events.push(FaultEvent {
                                at_instruction: at,
                                kind: FaultKind::SmcWrite,
                            });
                            at = at.saturating_add(rng.gen_range(10..=50));
                        }
                    }
                }
            }
        }
        // Stable sort: simultaneous events fire in canonical class order.
        events.sort_by_key(|e| e.at_instruction);
        FaultPlan { events, next: 0 }
    }

    /// Total scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether every event has been consumed (or none were scheduled).
    pub fn exhausted(&self) -> bool {
        self.next >= self.events.len()
    }

    /// The next unconsumed event, if any.
    pub fn peek(&self) -> Option<FaultEvent> {
        self.events.get(self.next).copied()
    }

    /// Consume the next event.
    pub fn advance(&mut self) {
        self.next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FaultPlan::generate(7, 2, 3, 50_000, &FaultClass::ALL);
        let b = FaultPlan::generate(7, 2, 3, 50_000, &FaultClass::ALL);
        assert_eq!(a.events, b.events);
        assert!(!a.is_empty());
    }

    #[test]
    fn cells_are_decorrelated() {
        let a = FaultPlan::generate(7, 0, 0, 50_000, &FaultClass::ALL);
        let b = FaultPlan::generate(7, 0, 1, 50_000, &FaultClass::ALL);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn schedule_is_sorted_and_class_filter_applies() {
        let plan = FaultPlan::generate(11, 0, 0, 300_000, &[FaultClass::Parity]);
        assert!(plan
            .events
            .windows(2)
            .all(|w| w[0].at_instruction <= w[1].at_instruction));
        assert!(plan.events.iter().all(|e| e.kind == FaultKind::Parity));
        assert!(plan.len() >= 3);
    }

    #[test]
    fn class_names_roundtrip() {
        for c in FaultClass::ALL {
            assert_eq!(FaultClass::parse(c.name()).unwrap(), c);
        }
        assert!(FaultClass::parse("bogus").is_err());
    }

    #[test]
    fn class_list_parses_and_normalizes() {
        let v = parse_classes("smc, parity,smc").unwrap();
        assert_eq!(v, vec![FaultClass::Parity, FaultClass::Smc]);
        assert!(parse_classes("parity,,smc").is_err());
        assert!(parse_classes("nope").is_err());
    }
}
