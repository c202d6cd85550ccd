//! End-to-end telemetry tests: interval-sample conservation,
//! flight-recorder behavior, JSON round trips, and the counter-validation
//! pass on a real workload (whose eight invariants cross-check the
//! histogram against the independent CPU and memory counters).

use vax780::{IntervalSample, ProcessSpec, SystemBuilder, SystemConfig};
use vax_analysis::{validate, Analysis, Json};
use vax_arch::{Opcode, Reg};
use vax_asm::{Asm, Operand};

/// A small compute loop touching registers and memory.
fn loop_system() -> vax780::System {
    let mut asm = Asm::new(0x200);
    asm.label("entry");
    asm.insn(
        Opcode::Movl,
        &[Operand::Imm(1_000_000), Operand::Reg(Reg::new(2))],
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

/// Samples are plain counter rows: copying one copies ten integers, never
/// a histogram board.
const _: fn() = || {
    fn copy<T: Copy>() {}
    copy::<IntervalSample>();
};

#[test]
fn interval_samples_conserve_the_whole_run() {
    let mut sys = loop_system();
    let (total, series) = sys.measure_sampled(1_000, 30_000, 500);
    assert!(series.len() >= 200, "{} intervals", series.len());
    // Intervals are contiguous and cover [0, total.cycles].
    assert_eq!(series.samples[0].start_cycle, 0);
    for w in series.samples.windows(2) {
        assert_eq!(w[0].end_cycle, w[1].start_cycle);
    }
    assert_eq!(series.samples.last().unwrap().end_cycle, total.cycles);
    // Each exported counter, summed over the rows, is the whole run's.
    let sum = |f: fn(&IntervalSample) -> u64| series.samples.iter().map(f).sum::<u64>();
    let (cpu, mem) = (&total.cpu_stats, &total.mem_stats);
    assert_eq!(sum(IntervalSample::cycles), total.cycles);
    assert_eq!(sum(|s| s.instructions), cpu.instructions);
    assert_eq!(sum(|s| s.read_stall_cycles), mem.read_stall_cycles);
    assert_eq!(sum(|s| s.write_stall_cycles), mem.write_stall_cycles);
    assert_eq!(sum(|s| s.ib_reads), mem.i_reads);
    assert_eq!(
        sum(|s| s.cache_read_misses),
        mem.d_read_misses + mem.i_read_misses + mem.pte_read_misses
    );
    assert_eq!(sum(|s| s.tb_misses), mem.tb_miss_d + mem.tb_miss_i);
    assert_eq!(sum(|s| s.interrupts), cpu.hw_interrupts + cpu.sw_interrupts);
    assert_eq!(sum(|s| s.context_switches), cpu.context_switches);
    // The loop touches memory and takes timer interrupts, so the sums
    // above are not trivially zero.
    assert!(mem.read_stall_cycles > 0 && cpu.hw_interrupts > 0);
    let merged = series.merged();
    assert_eq!(merged.cycles(), total.cycles);
    assert_eq!(merged.interrupts, cpu.hw_interrupts + cpu.sw_interrupts);
}

#[test]
fn flight_recorder_caps_and_survives_bpt_dump() {
    // A program that runs a few instructions, then hits BPT (which dumps
    // the flight recorder to stderr), then keeps running.
    let mut asm = Asm::new(0x200);
    asm.label("entry");
    asm.insn(
        Opcode::Movl,
        &[Operand::Imm(5), Operand::Reg(Reg::new(2))],
        None,
    );
    asm.insn(Opcode::Bpt, &[], None);
    asm.label("loop");
    asm.insn(Opcode::Sobgtr, &[Operand::Reg(Reg::new(2))], Some("loop"));
    asm.insn(Opcode::Brb, &[], Some("loop"));
    let mut b = SystemBuilder::new(SystemConfig::default());
    b.add_process(ProcessSpec::new(asm.assemble().unwrap(), "entry"));
    let mut sys = b.build();

    const K: usize = 8;
    sys.cpu.flight = vax_cpu::SharedFlightRecorder::with_capacity(K);
    sys.run_instructions(500);

    assert_eq!(sys.cpu.stats.exceptions, 1, "BPT raised one exception");
    assert_eq!(sys.cpu.flight.len(), K, "ring stays capped at K");
    let report = sys.cpu.flight.report();
    assert_eq!(report.lines().count(), K + 1, "header + one line per entry");
    // The ring holds the most recent instructions: the loop body, not the
    // long-gone MOVL prologue.
    assert!(
        report.contains("SOBGTR") || report.contains("BRB"),
        "{report}"
    );
    assert!(!report.contains("MOVL"), "{report}");
    // Entries are in cycle order.
    let cycles: Vec<u64> = sys.cpu.flight.snapshot().iter().map(|e| e.cycle).collect();
    assert!(cycles.windows(2).all(|w| w[0] < w[1]), "{cycles:?}");
}

#[test]
fn disabled_flight_recorder_stays_empty() {
    let mut sys = loop_system();
    sys.run_instructions(200);
    assert!(!sys.cpu.flight.is_enabled());
    assert!(sys.cpu.flight.is_empty());
}

#[test]
fn validation_is_clean_on_a_real_workload() {
    let mut sys = vax_workload::build_system(
        vax_workload::Workload::ALL[0],
        vax_workload::rte::PROCESSES_PER_WORKLOAD,
        1984,
    );
    let m = sys.measure(2_000, 20_000);
    let report = validate(sys.cpu.cs, &m);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn exported_measurement_roundtrips_and_matches_tables() {
    let mut sys = loop_system();
    let (m, ts) = sys.measure_sampled(1_000, 10_000, 4_000);
    let a = Analysis::new(sys.cpu.cs, &m);

    let mj = vax_analysis::measurement_json(&m);
    let parsed = Json::parse(&mj.to_string_pretty()).unwrap();
    assert_eq!(parsed, mj, "serialize → parse is the identity");
    assert_eq!(
        parsed.get("cycles").and_then(Json::as_i64).unwrap() as u64,
        m.cycles
    );
    let ms = parsed.get("mem_stats").unwrap();
    assert_eq!(
        ms.get("read_stall_cycles").and_then(Json::as_i64).unwrap() as u64,
        m.mem_stats.read_stall_cycles
    );

    let tj = vax_analysis::tables_json(&a);
    let cpi = tj
        .get("cpi")
        .and_then(|v| v.get("measured"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!((cpi - a.cpi()).abs() < 1e-12);

    let sj = vax_analysis::timeseries_json(&ts);
    let n = sj.get("intervals").and_then(Json::as_i64).unwrap();
    assert_eq!(n as usize, ts.len());
    let csv = ts.to_csv();
    assert_eq!(csv.lines().count(), ts.len() + 1, "header + one row each");
}
