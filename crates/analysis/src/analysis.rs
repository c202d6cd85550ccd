//! The reduction itself: the µPC board against the control-store map.
//!
//! [`reduce_matrix`] is the one walk of the board (Table 8's activity ×
//! cycle-class counts), and [`SpecModeCounts::reduce`] reads the specifier
//! routines' entry counts (Tables 3–4). [`Analysis::new`] builds on both;
//! the probe pipeline ([`crate::characterize`]) and the conservation
//! checks ([`crate::validate`]) call them directly.

use upc_monitor::map::classify;
use upc_monitor::{Activity, CycleClass, Histogram, Plane};
use vax780::Measurement;
use vax_arch::AddressingMode;
use vax_cpu::store::{SpecFlavor, SpecRegions};
use vax_cpu::ControlStore;

/// Per-specifier-position mode counts reduced from routine entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecModeCounts {
    /// Evaluations per addressing mode, `AddressingMode::ALL` order.
    pub by_mode: [u64; 16],
    /// Index-prefix evaluations.
    pub indexed: u64,
}

impl SpecModeCounts {
    /// Reduce one specifier position's routine entries (`cs.spec1` or
    /// `cs.spec26`) from a histogram.
    pub fn reduce(regions: &SpecRegions, hist: &Histogram) -> SpecModeCounts {
        let mut out = SpecModeCounts::default();
        for (slot, &mode) in out.by_mode.iter_mut().zip(AddressingMode::ALL.iter()) {
            // Sum entry-point counts across flavors; each evaluation
            // executes its routine's entry exactly once. Entry µops may be
            // reads or writes, so read both planes' normal counts.
            *slot = SpecFlavor::ALL
                .iter()
                .filter_map(|&flavor| regions.get(mode, flavor))
                .map(|region| hist.read(region.entry(), Plane::Normal))
                .sum();
        }
        out.indexed = hist.read(regions.index_prefix.entry(), Plane::Normal);
        out
    }

    /// Total specifier evaluations.
    pub fn total(&self) -> u64 {
        self.by_mode.iter().sum()
    }
}

/// Reduce a measurement's histogram to activity × cycle-class cycle
/// counts: Table 8's matrix before it is divided by the instruction count.
pub fn reduce_matrix(cs: &ControlStore, m: &Measurement) -> [[u64; 6]; 14] {
    let mut counts = [[0u64; 6]; 14];
    for (upc, plane, count) in m.hist.nonzero() {
        let act = cs.map.activity(upc);
        let class = classify(cs.map.op(upc), plane == Plane::Stalled);
        counts[act.index()][class.index()] += count;
    }
    counts
}

/// Everything the tables need, reduced from one (possibly composite)
/// measurement.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Cycles per average instruction by Table-8 cell:
    /// `matrix[activity][class]` in `Activity::ALL` × `CycleClass::ALL`
    /// order.
    pub matrix: [[f64; 6]; 14],
    /// First-specifier mode counts.
    pub spec1: SpecModeCounts,
    /// Specifier 2–6 mode counts.
    pub spec26: SpecModeCounts,
    /// Cycles spent inside the TB-miss service routine (the store's
    /// `tb_miss` region only, not the unaligned-reference microcode that
    /// shares its MemMgmt row).
    pub tb_miss_cycles: u64,
    /// TB-miss services: the service routine's entry count, the paper's
    /// histogram method. `MemStats::total_tb_misses` counts more: its
    /// I-stream misses include prefetches an IB flush dropped before any
    /// service.
    pub tb_miss_services: u64,
    /// The measurement's raw counters.
    pub m: Measurement,
}

impl Analysis {
    /// Reduce a measurement against the control store that produced it.
    pub fn new(cs: &ControlStore, m: &Measurement) -> Analysis {
        let instructions = m.cpu_stats.instructions.max(1) as f64;
        let matrix = reduce_matrix(cs, m).map(|row| row.map(|c| c as f64 / instructions));
        let tb = cs.tb_miss;
        let tb_miss_cycles = (0..tb.len)
            .map(|i| m.hist.read(tb.at(i), Plane::Normal) + m.hist.read(tb.at(i), Plane::Stalled))
            .sum();
        Analysis {
            instructions: m.cpu_stats.instructions,
            cycles: m.cycles,
            matrix,
            spec1: SpecModeCounts::reduce(&cs.spec1, &m.hist),
            spec26: SpecModeCounts::reduce(&cs.spec26, &m.hist),
            tb_miss_cycles,
            tb_miss_services: m.hist.read(tb.entry(), Plane::Normal),
            m: m.clone(),
        }
    }

    /// Instructions per event (`None` if the event never occurred).
    pub fn headway(&self, events: u64) -> Option<f64> {
        (events > 0).then(|| self.instructions as f64 / events as f64)
    }

    /// A Table-8 cell in cycles per instruction.
    pub fn cell(&self, act: Activity, class: CycleClass) -> f64 {
        self.matrix[act.index()][class.index()]
    }

    /// A Table-8 row total.
    pub fn row_total(&self, act: Activity) -> f64 {
        self.matrix[act.index()].iter().sum()
    }

    /// A Table-8 column total.
    pub fn col_total(&self, class: CycleClass) -> f64 {
        self.matrix.iter().map(|r| r[class.index()]).sum()
    }

    /// Cycles per average instruction (the Table 8 grand total).
    pub fn cpi(&self) -> f64 {
        self.matrix.iter().flatten().sum()
    }

    /// Dynamic opcode-group frequencies in percent, Table-1 order.
    pub fn group_percent(&self) -> [f64; 7] {
        let mut counts = [0u64; 7];
        for info in vax_arch::opcode::OPCODE_TABLE {
            counts[info.group.index()] += self.m.cpu_stats.opcode_counts[info.opcode as usize];
        }
        let total: u64 = counts.iter().sum::<u64>().max(1);
        let mut out = [0.0; 7];
        for (i, c) in counts.iter().enumerate() {
            out[i] = 100.0 * *c as f64 / total as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax780::{ProcessSpec, SystemBuilder, SystemConfig};
    use vax_arch::{Opcode, Reg};
    use vax_asm::{Asm, Operand};

    fn measured_system() -> (&'static ControlStore, Measurement) {
        let mut asm = Asm::new(0x200);
        asm.label("entry");
        asm.insn(
            Opcode::Movl,
            &[Operand::Imm(50), Operand::Reg(Reg::new(2))],
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
        asm.insn(
            Opcode::Movl,
            &[Operand::Imm(50), Operand::Reg(Reg::new(2))],
            None,
        );
        asm.insn(Opcode::Brb, &[], Some("loop"));
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(ProcessSpec::new(asm.assemble().unwrap(), "entry"));
        let mut sys = b.build();
        // Point R6 at the stack-ish data area via warmup state: the
        // program uses 16(R6) with R6 = 0, i.e. the guard page — mapped.
        let m = sys.measure(1_000, 20_000);
        (sys.cpu.cs, m)
    }

    #[test]
    fn the_tb_miss_region_is_the_tbmiss_routine() {
        let cs = ControlStore::get();
        let mut inside = 0;
        for (upc, name, _, _) in cs.map.iter() {
            let by_region = cs.tb_miss.contains(upc);
            assert_eq!(by_region, name.starts_with("TBMISS"), "{upc} {name}");
            inside += usize::from(by_region);
        }
        assert_eq!(inside, usize::from(cs.tb_miss.len));
    }

    #[test]
    fn every_tb_miss_service_enters_its_routine_once() {
        let (cs, m) = measured_system();
        let a = Analysis::new(cs, &m);
        assert!(a.tb_miss_services > 0);
        assert!(a.tb_miss_services <= m.mem_stats.total_tb_misses());
        // Each service runs every compute µop of the routine once.
        let read = vax_cpu::store::tbmiss::READ;
        for i in (0..cs.tb_miss.len).filter(|&i| i != read) {
            let n = m.hist.read(cs.tb_miss.at(i), Plane::Normal);
            assert_eq!(n, a.tb_miss_services, "TBMISS offset {i}");
        }
    }

    #[test]
    fn reduction_conserves_cycles() {
        let (cs, m) = measured_system();
        let validation = crate::validate(cs, &m);
        assert!(validation.is_clean(), "{}", validation.render());
        let a = Analysis::new(cs, &m);
        assert!(a.cpi() > 2.0 && a.cpi() < 40.0, "CPI {}", a.cpi());
        // Matrix grand total × instructions == cycles.
        let total = a.cpi() * a.instructions as f64;
        assert!((total - a.cycles as f64).abs() < 1.0);
    }

    #[test]
    fn decode_row_is_one_compute_cycle() {
        let (cs, m) = measured_system();
        let a = Analysis::new(cs, &m);
        let decode_compute = a.cell(Activity::Decode, CycleClass::Compute);
        assert!((decode_compute - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spec_counts_match_cpu_stats() {
        let (cs, m) = measured_system();
        let a = Analysis::new(cs, &m);
        assert_eq!(a.spec1.total(), m.cpu_stats.spec1_count);
        assert_eq!(a.spec26.total(), m.cpu_stats.spec26_count);
    }

    #[test]
    fn group_percentages_sum_to_100() {
        let (cs, m) = measured_system();
        let a = Analysis::new(cs, &m);
        let sum: f64 = a.group_percent().iter().sum();
        assert!((sum - 100.0).abs() < 1e-6);
        // The spin loop is all SIMPLE plus kernel activity.
        assert!(a.group_percent()[0] > 80.0);
    }
}
