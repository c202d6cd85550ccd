//! Cross-validation of the histogram reduction against independent counters.
//!
//! The paper's µPC histogram and the CPU/memory event counters observe the
//! same run through different instruments. Several quantities are counted by
//! *both*: e.g. every retired instruction executes the IRD entry µop exactly
//! once, so the histogram's count at that address must equal the CPU's
//! `instructions` counter. This module checks every such exactly-conserved
//! invariant and reports any divergence — a tripwire for bugs where the
//! simulator updates one instrument but not the other.
//!
//! The specifier checks read their entry totals with
//! [`SpecModeCounts::reduce`], the helper [`crate::Analysis`] reduces
//! Tables 3–4 with, so a validation neither clones the measurement nor
//! reduces the Table 8 matrix.

use upc_monitor::Plane;
use vax780::Measurement;
use vax_cpu::store::tbmiss;
use vax_cpu::ControlStore;

use crate::analysis::SpecModeCounts;
use crate::json::Json;

/// One conservation invariant: two independent counts of the same events.
#[derive(Debug, Clone)]
pub struct ValidationCheck {
    /// What is being cross-checked.
    pub name: &'static str,
    /// Where the expected value comes from.
    pub expected_source: &'static str,
    /// The independent counter's value.
    pub expected: u64,
    /// The histogram-derived value.
    pub actual: u64,
}

impl ValidationCheck {
    /// True when the two instruments agree exactly.
    pub fn passed(&self) -> bool {
        self.expected == self.actual
    }
}

/// The outcome of a validation pass.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Every invariant checked, in a fixed order.
    pub checks: Vec<ValidationCheck>,
}

impl ValidationReport {
    /// True when every check passed.
    pub fn is_clean(&self) -> bool {
        self.checks.iter().all(ValidationCheck::passed)
    }

    /// The checks that diverged.
    pub fn divergences(&self) -> Vec<&ValidationCheck> {
        self.checks.iter().filter(|c| !c.passed()).collect()
    }

    /// Human-readable summary, one line per check.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("Validation — histogram reduction vs independent counters\n");
        for c in &self.checks {
            let verdict = if c.passed() { "ok " } else { "FAIL" };
            let _ = writeln!(
                out,
                "  [{verdict}] {:<44} hist {:>12}  counter {:>12}",
                c.name, c.actual, c.expected
            );
        }
        let _ = writeln!(
            out,
            "{} checks, {} divergences",
            self.checks.len(),
            self.divergences().len()
        );
        out
    }

    /// Machine-readable form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("clean", Json::from(self.is_clean())),
            (
                "checks",
                Json::arr(self.checks.iter().map(|c| {
                    Json::obj([
                        ("name", Json::from(c.name)),
                        ("expected_source", Json::from(c.expected_source)),
                        ("expected", Json::from(c.expected)),
                        ("actual", Json::from(c.actual)),
                        ("passed", Json::from(c.passed())),
                    ])
                })),
            ),
        ])
    }
}

/// Run every conservation check of `m` against the control store that
/// produced it.
pub fn validate(cs: &ControlStore, m: &Measurement) -> ValidationReport {
    let hist = &m.hist;
    let entry = |region: upc_monitor::Region| hist.read(region.entry(), Plane::Normal);

    let checks = vec![
        // Every cycle the board saw must be a cycle the system counted.
        ValidationCheck {
            name: "total histogram cycles",
            expected_source: "System cycle counter",
            expected: m.cycles,
            actual: hist.total_cycles(),
        },
        // Each retired instruction decodes through the IRD entry exactly
        // once (interrupt/exception dispatches use their own regions).
        ValidationCheck {
            name: "IRD decode entries",
            expected_source: "CpuStats::instructions",
            expected: m.cpu_stats.instructions,
            actual: entry(cs.ird),
        },
        // Each specifier evaluation enters its microroutine exactly once,
        // except that a quad-width operand through a data-at-entry routine
        // repeats the entry µop — the CPU counts those repeats separately,
        // so the reconciliation is still exact.
        ValidationCheck {
            name: "first-specifier routine entries",
            expected_source: "CpuStats spec1_count + quad repeats",
            expected: m.cpu_stats.spec1_count + m.cpu_stats.spec1_quad_repeats,
            actual: SpecModeCounts::reduce(&cs.spec1, hist).total(),
        },
        ValidationCheck {
            name: "specifier-2-6 routine entries",
            expected_source: "CpuStats spec26_count + quad repeats",
            expected: m.cpu_stats.spec26_count + m.cpu_stats.spec26_quad_repeats,
            actual: SpecModeCounts::reduce(&cs.spec26, hist).total(),
        },
        // The stalled plane counts exactly the memory system's stall
        // cycles (IB-wait cycles live on the normal plane).
        ValidationCheck {
            name: "stalled-plane cycles",
            expected_source: "MemStats read+write stall cycles",
            expected: m.mem_stats.read_stall_cycles + m.mem_stats.write_stall_cycles,
            actual: hist.plane_total(Plane::Stalled),
        },
        // Each delivered interrupt runs the dispatch microroutine once.
        ValidationCheck {
            name: "interrupt dispatch entries",
            expected_source: "CpuStats::total_interrupts",
            expected: m.cpu_stats.total_interrupts(),
            actual: entry(cs.interrupt),
        },
        // Each unaligned reference runs the unaligned-data routine once.
        ValidationCheck {
            name: "unaligned service entries",
            expected_source: "MemStats::unaligned_refs",
            expected: m.mem_stats.unaligned_refs,
            actual: entry(cs.unaligned),
        },
        // The TB-miss service charges each PTE read one cycle at its
        // declared read step. (The routine's *entry* count is not
        // conserved: an IB flush can discard a counted-but-unserviced
        // I-stream miss, so we check the read µop instead.)
        ValidationCheck {
            name: "TB-miss service PTE reads",
            expected_source: "MemStats::pte_reads",
            expected: m.mem_stats.pte_reads,
            actual: hist.read(cs.tb_miss.at(tbmiss::READ), Plane::Normal),
        },
    ];
    ValidationReport { checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax780::{ProcessSpec, SystemBuilder, SystemConfig};
    use vax_arch::{Opcode, Reg};
    use vax_asm::{Asm, Operand};

    fn spin_system() -> vax780::System {
        let mut asm = Asm::new(0x200);
        asm.label("entry");
        asm.insn(
            Opcode::Movl,
            &[Operand::Imm(500), Operand::Reg(Reg::new(2))],
            None,
        );
        asm.label("loop");
        asm.insn(
            Opcode::Addl3,
            &[
                Operand::Lit(1),
                Operand::Reg(Reg::new(3)),
                Operand::Disp(16, Reg::new(6)),
            ],
            None,
        );
        asm.insn(Opcode::Sobgtr, &[Operand::Reg(Reg::new(2))], Some("loop"));
        asm.insn(Opcode::Brb, &[], Some("loop"));
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(ProcessSpec::new(asm.assemble().unwrap(), "entry"));
        b.build()
    }

    #[test]
    fn clean_on_real_run() {
        let mut sys = spin_system();
        let m = sys.measure(1_000, 30_000);
        let report = validate(sys.cpu.cs, &m);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.checks.len(), 8);
    }

    #[test]
    fn detects_tampered_counter() {
        let mut sys = spin_system();
        let mut m = sys.measure(500, 5_000);
        m.cpu_stats.instructions += 1;
        let report = validate(sys.cpu.cs, &m);
        assert!(!report.is_clean());
        let names: Vec<&str> = report.divergences().iter().map(|c| c.name).collect();
        assert!(names.contains(&"IRD decode entries"), "{names:?}");
        let j = report.to_json();
        assert_eq!(j.get("clean"), Some(&Json::Bool(false)));
    }
}
