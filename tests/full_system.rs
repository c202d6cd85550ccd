//! Cross-crate integration tests: full-system runs checked end to end.

use upc_monitor::Plane;
use vax780::{Measurement, ProcessSpec, SystemBuilder, SystemConfig};
use vax_analysis::Analysis;
use vax_asm::parse;
use vax_asm::probe::probe_loop;
use vax_cpu::{ControlStore, CpuConfig};
use vax_workload::{build_system, generate_process, probe_system, Workload, WorkloadProfile};

fn text_system(source: &str) -> vax780::System {
    let image = parse(source, 0x200).expect("assembly failed");
    let mut b = SystemBuilder::new(SystemConfig::default());
    b.add_process(ProcessSpec::new(image, "entry").with_bss_pages(32));
    b.build()
}

#[test]
fn assembled_program_computes_correctly() {
    // Sum 1..=10 into R0, store at absolute 4096, halt-free loop after.
    let src = r#"
        entry:  CLRL R0
                MOVL #10, R2
        sum:    ADDL2 R2, R0
                SOBGTR R2, sum
                MOVL R0, @#4096
        spin:   BRB spin
    "#;
    let mut sys = text_system(src);
    sys.run_instructions(5_000);
    let pa = sys.cpu.mem.raw_translate(vax_mem::VirtAddr(4096)).unwrap();
    assert_eq!(sys.cpu.mem.value_read(pa, 4), 55);
}

/// A divide by zero sets V for the BVS that follows it (the condition codes
/// of the unchanged quotient must not clear it), and MOVF takes N from the
/// F_floating datum it moves: -1.0 sets N for the BLSS after it. The
/// program stores 1 at 4096 when BVS branches and at 4100 when BLSS does.
#[test]
fn divide_by_zero_sets_v_and_movf_sets_n() {
    let src = r#"
        entry:  CLRL R0
                CLRL R1
                MOVL #7, R2
                DIVL2 #0, R2
                BVS vset
                BRB vdone
        vset:   MOVL #1, R0
        vdone:  MOVL #0xBF800000, R3
                MOVF R3, R4
                BLSS nset
                BRB ndone
        nset:   MOVL #1, R1
        ndone:  MOVL R0, @#4096
                MOVL R1, @#4100
        spin:   BRB spin
    "#;
    let mut sys = text_system(src);
    sys.run_instructions(5_000);
    let read = |va| {
        let pa = sys.cpu.mem.raw_translate(vax_mem::VirtAddr(va)).unwrap();
        sys.cpu.mem.value_read(pa, 4)
    };
    assert_eq!((read(4096), read(4100)), (1, 1), "(BVS taken, BLSS taken)");
}

/// Straight-line code that runs into a page whose translation is not in
/// the TB takes one I-stream TB miss, and the EBOX services it once: the
/// IB keeps the miss latched while the service runs, so the service's own
/// cycles do not probe the TB again.
#[test]
fn an_istream_tb_miss_is_serviced_once() {
    // 3-byte register MOVLs from 0x200 run past the page at 0x400.
    let mut src = String::from("entry:\n");
    for _ in 0..250 {
        src.push_str("        MOVL R1, R2\n");
    }
    src.push_str("spin:   BRB spin\n");
    let mut config = SystemConfig::default();
    config.cpu.timer_interval = None;
    config.cpu.patch_interval = None;
    let mut b = SystemBuilder::new(config);
    b.add_process(ProcessSpec::new(parse(&src, 0x200).unwrap(), "entry"));
    let mut sys = b.build();
    fn run_until(sys: &mut vax780::System, done: impl Fn(u32) -> bool) {
        while !done(sys.cpu.pc()) {
            assert!(sys.run_instructions(1));
        }
    }
    // Inside the first code page, with the second not yet fetched from.
    run_until(&mut sys, |pc| (0x300..0x3f0).contains(&pc));
    sys.cpu.hist.start();
    let service = sys.cpu.cs.tb_miss.entry();
    let counts = |sys: &vax780::System| {
        let services = sys.cpu.hist.read(service, Plane::Normal);
        (sys.cpu.mem.stats.tb_miss_i, services)
    };
    let before = counts(&sys);
    run_until(&mut sys, |pc| pc >= 0x410);
    let after = counts(&sys);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (1, 1),
        "(tb_miss_i, TB-miss services) crossing into the page at 0x400"
    );
}

#[test]
fn every_machine_shares_the_one_control_store() {
    let workload = build_system(Workload::Commercial, 3, 5);
    let probe = probe_system(&probe_loop(None, 0).unwrap());
    assert!(std::ptr::eq(workload.cpu.cs, probe.cpu.cs));
    assert!(std::ptr::eq(workload.cpu.cs, ControlStore::get()));

    // The shared store is the 780's layout: slot by slot, then region by
    // region.
    let (shared, fresh) = (ControlStore::get(), ControlStore::new(&CpuConfig::VAX_780));
    assert_eq!(shared.map.len(), fresh.map.len());
    for (a, b) in shared.map.iter().zip(fresh.map.iter()) {
        assert_eq!(a, b);
    }
    assert!(*shared == fresh, "a region differs from a fresh layout");
}

#[test]
fn histogram_conserves_every_cycle() {
    let mut sys = build_system(Workload::TimesharingResearch, 3, 11);
    let m = sys.measure(5_000, 60_000);
    let validation = vax_analysis::validate(sys.cpu.cs, &m);
    assert!(validation.is_clean(), "{}", validation.render());
    let a = Analysis::new(sys.cpu.cs, &m);
    // Row/column sums equal the grand total.
    let rows: f64 = upc_monitor::Activity::ALL
        .iter()
        .map(|&x| a.row_total(x))
        .sum();
    let cols: f64 = upc_monitor::CycleClass::ALL
        .iter()
        .map(|&c| a.col_total(c))
        .sum();
    assert!((rows - a.cpi()).abs() < 1e-9);
    assert!((cols - a.cpi()).abs() < 1e-9);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sys = build_system(Workload::Educational, 3, 5);
        let m = sys.measure(2_000, 30_000);
        (m.cycles, m.cpu_stats.instructions, m.mem_stats.d_reads)
    };
    assert_eq!(run(), run(), "simulation must be exactly reproducible");
}

/// A machine can move between threads: nothing inside it is `Rc`-shared.
/// The check is made by the compiler, so adding a `!Send` field to any
/// part of the machine fails the build of this test.
#[test]
fn system_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<vax780::System>();
}

#[test]
fn context_switch_flushes_tb_process_half() {
    let mut sys = build_system(Workload::TimesharingResearch, 3, 9);
    let m = sys.measure(5_000, 150_000);
    assert!(m.cpu_stats.context_switches >= 1, "switches must happen");
    // Every switch forces process-half TB refills: misses scale with
    // switches at minimum.
    assert!(
        m.mem_stats.total_tb_misses() > m.cpu_stats.context_switches * 8,
        "TB misses {} vs switches {}",
        m.mem_stats.total_tb_misses(),
        m.cpu_stats.context_switches
    );
}

#[test]
fn composite_statistics_land_near_paper_shape() {
    // A short composite: assert loose bands, not exact values — the point
    // is that the shape of the characterization holds even on small runs.
    let mut composite = Measurement::default();
    for (i, &w) in Workload::ALL.iter().enumerate() {
        let mut sys = build_system(w, 3, 21 + i as u64);
        composite.merge(&sys.measure(5_000, 60_000));
    }
    let a = Analysis::new(ControlStore::get(), &composite);
    // CPI in the high single digits to low tens.
    assert!(a.cpi() > 5.0 && a.cpi() < 16.0, "CPI {}", a.cpi());
    // SIMPLE dominates the mix, as in Table 1.
    let groups = a.group_percent();
    assert!(groups[0] > 75.0 && groups[0] < 95.0, "SIMPLE {}", groups[0]);
    // Decode row is exactly one compute cycle per instruction.
    let decode = a.cell(
        upc_monitor::Activity::Decode,
        upc_monitor::CycleClass::Compute,
    );
    assert!((decode - 1.0).abs() < 1e-9);
    // Reads outnumber writes roughly two to one (§3.3.1).
    let reads = a.col_total(upc_monitor::CycleClass::Read);
    let writes = a.col_total(upc_monitor::CycleClass::Write);
    assert!(
        reads / writes > 1.0 && reads / writes < 3.5,
        "{reads}/{writes}"
    );
}

#[test]
fn per_workload_profiles_differ_in_character() {
    let cpi_of = |w: Workload, seed| {
        let mut sys = build_system(w, 3, seed);
        let m = sys.measure(5_000, 60_000);
        let a = Analysis::new(sys.cpu.cs, &m);
        (a.group_percent(), a.cpi())
    };
    let (sci, _) = cpi_of(Workload::SciEng, 31);
    let (com, _) = cpi_of(Workload::Commercial, 32);
    // FLOAT leads in sci/eng, CHARACTER+DECIMAL in commercial.
    assert!(sci[vax_arch::OpcodeGroup::Float.index()] > com[vax_arch::OpcodeGroup::Float.index()]);
    assert!(
        com[vax_arch::OpcodeGroup::Character.index()]
            > sci[vax_arch::OpcodeGroup::Character.index()]
    );
}

#[test]
fn generated_workloads_never_fault_long_run() {
    let profile = WorkloadProfile::baseline();
    let mut b = SystemBuilder::new(SystemConfig::default());
    for i in 0..4 {
        b.add_process(generate_process(&profile, 1000 + i));
    }
    let mut sys = b.build();
    assert!(sys.run_instructions(400_000), "must not halt or fault");
}
