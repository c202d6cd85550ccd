//! Shape-fidelity regression tests: the qualitative conclusions of the
//! paper must hold in the reproduction (these are the claims EXPERIMENTS.md
//! reports; the tests keep future changes honest).

use upc_monitor::{Activity, CycleClass};
use vax_analysis::Analysis;
use vax_arch::{BranchKind, OpcodeGroup};
use vax_cpu::ControlStore;
use vax_workload::{build_system, Workload};

fn composite() -> vax780::Measurement {
    let mut composite = vax780::Measurement::default();
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let mut sys = build_system(w, 3, 77 + i as u64);
        composite.merge(&sys.measure(8_000, 80_000));
    }
    composite
}

#[test]
fn paper_conclusions_hold() {
    let m = composite();
    let a = Analysis::new(ControlStore::get(), &m);

    // "The average VAX instruction ... takes a little more than 10 cycles"
    // — we land in the same regime.
    assert!(a.cpi() > 6.0 && a.cpi() < 14.0, "CPI {}", a.cpi());

    // "Almost half of all the time went into decode and specifier
    // processing, counting their stalls."
    let front_end = a.row_total(Activity::Decode)
        + a.row_total(Activity::Spec1)
        + a.row_total(Activity::Spec26)
        + a.row_total(Activity::BDisp);
    let share = front_end / a.cpi();
    assert!(share > 0.35 && share < 0.60, "front-end share {share}");

    // "The opcode group with the greatest contribution is the CALL/RET
    // group, despite its low frequency."
    let exec_rows = [
        Activity::ExecSimple,
        Activity::ExecField,
        Activity::ExecFloat,
        Activity::ExecCallRet,
        Activity::ExecSystem,
        Activity::ExecCharacter,
        Activity::ExecDecimal,
    ];
    let callret = a.row_total(Activity::ExecCallRet);
    let max_other = exec_rows
        .iter()
        .filter(|&&r| r != Activity::ExecCallRet && r != Activity::ExecSimple)
        .map(|&r| a.row_total(r))
        .fold(0.0f64, f64::max);
    assert!(
        callret > max_other,
        "CALL/RET row {callret} should exceed other complex groups ({max_other})"
    );
    let groups = a.group_percent();
    assert!(
        groups[OpcodeGroup::CallRet.index()] < 6.0,
        "...while staying rare"
    );

    // "Moves, branches, and simple instructions account for most
    // instruction executions."
    assert!(groups[OpcodeGroup::Simple.index()] > 75.0);

    // "About 9 out of 10 loop branches actually branched."
    let loops_exec = m.cpu_stats.branch_executed_of(BranchKind::Loop);
    let loops_taken = m.cpu_stats.branch_taken_of(BranchKind::Loop);
    if loops_exec > 100 {
        let rate = loops_taken as f64 / loops_exec as f64;
        assert!(rate > 0.80 && rate < 0.97, "loop taken rate {rate}");
    }

    // "The range of cycle time requirements ... covers two orders of
    // magnitude": CHARACTER per-instruction cost vs SIMPLE.
    let simple_per =
        a.row_total(Activity::ExecSimple) / (groups[OpcodeGroup::Simple.index()] / 100.0);
    let char_freq = groups[OpcodeGroup::Character.index()] / 100.0;
    if char_freq > 0.0005 {
        let char_per = a.row_total(Activity::ExecCharacter) / char_freq;
        assert!(
            char_per / simple_per > 25.0,
            "character {char_per} vs simple {simple_per}"
        );
    }

    // Stall columns are a substantial minority of total time.
    let stalls = a.col_total(CycleClass::ReadStall)
        + a.col_total(CycleClass::WriteStall)
        + a.col_total(CycleClass::IbStall);
    let stall_share = stalls / a.cpi();
    assert!(
        stall_share > 0.08 && stall_share < 0.40,
        "stall share {stall_share}"
    );
}

#[test]
fn tb_miss_service_near_paper() {
    let m = composite();
    let a = Analysis::new(ControlStore::get(), &m);
    let services = a.tb_miss_services;
    assert!(
        services > 100,
        "need TB-miss services to measure service time"
    );
    assert!(services <= m.mem_stats.total_tb_misses());
    let service = a.tb_miss_cycles as f64 / services as f64;
    // Paper: 21.6 cycles average.
    assert!(
        service > 17.0 && service < 27.0,
        "TB miss service {service} cycles"
    );
}
