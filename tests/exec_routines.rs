//! The execute and service routines run as their declarations list them.
//!
//! As in `tests/spec_routines.rs`, a probe loop runs `reps` copies of one
//! instruction per iteration and the baseline runs the same scaffold
//! without them, so over `iters` iterations the difference at a µPC is
//! what the probed copies spent there. Each opcode is probed in register
//! mode (through a register pointer for an address operand, which faults
//! on the 780), where no compute step of a SIMPLE or FLOAT routine depends
//! on an operand value (a probe never branches), and where a CHARACTER
//! probe's strings are 4 bytes, one longword, and a DECIMAL probe's packed
//! operands 4 digits, one longword. So each µPC of the opcode's execute
//! region must count, per probed copy, as often as its row's `setup` and
//! `finish` list the offset, plus its `each` and DECIMAL's per-longword
//! lists times their trips ([`trips`]). SIMPLE and FLOAT are checked at
//! their compute µPCs, CHARACTER and DECIMAL at every µPC, data steps
//! included. Every other probeable opcode has a compute step that an
//! operand value decides, and is listed below with that step instead.
//!
//! The service routines are checked on a workload run: per entry, each
//! µPC of TBMISS, INT.DISPATCH and both UNALIGNED lists counts as often as
//! its declaration lists it.

use upc_monitor::{MicroOp, Plane, Region};
use vax780::{CancelToken, Measurement};
use vax_analysis::characterize::{run_probe, ProbeRun, DEFAULT_WARMUP};
use vax_arch::{AccessType, AddressingMode, Opcode, OpcodeGroup, OperandKind};
use vax_asm::probe::{probe_grid, probe_target};
use vax_cpu::exec::decimal::{READ_LW, WRITE_LW};
use vax_cpu::store::{int_dispatch, tbmiss, unaligned};
use vax_cpu::ControlStore;
use vax_workload::{build_system, Workload};

const REPS: u32 = 4;
const ITERS: u64 = 16;

/// The probeable opcodes outside SIMPLE, FLOAT, CHARACTER and DECIMAL,
/// each with the operand-dependent step that keeps its counts off the
/// table.
const DATA_DEPENDENT: &[(&[Opcode], &str)] = &[
    (
        &[
            Opcode::Extv,
            Opcode::Extzv,
            Opcode::Cmpv,
            Opcode::Cmpzv,
            Opcode::Ffs,
            Opcode::Ffc,
        ],
        "the field fetch runs CALC1, and CALC2 for a memory base, unless the size is 0",
    ),
    (
        &[Opcode::Insv],
        "the merge runs MERGE once for a register base and twice for memory, unless the size is 0",
    ),
    (
        &[Opcode::Pushr, Opcode::Popr],
        "a gap step per register in the mask",
    ),
];

/// How often a probed copy runs each loop of its routine: its row's
/// `each`, and DECIMAL's `READ_LW` and `WRITE_LW` (once per packed operand
/// read or written), on register-mode probes; `None` for an opcode not
/// checked here.
fn trips(op: Opcode) -> Option<[u64; 3]> {
    use Opcode::*;
    Some(match op.group() {
        OpcodeGroup::Simple | OpcodeGroup::Float => [0, 0, 0],
        OpcodeGroup::Character => [1, 0, 0],
        OpcodeGroup::Decimal => match op {
            Movp => [0, 1, 1],
            // The compare loop runs once per two digits.
            Cmpp3 | Cmpp4 => [2, 2, 0],
            Cvtlp => [4, 0, 1],
            Cvtpl => [4, 1, 0],
            Ashp => [4, 1, 1],
            _ => [4, 2, 1],
        },
        _ => return None,
    })
}

/// How often `steps` names offset `k`.
fn occurrences(steps: &[u16], k: u16) -> u64 {
    steps.iter().filter(|&&s| s == k).count() as u64
}

fn measure(target: Option<&vax_asm::ProbeTarget>, reps: u32) -> ProbeRun {
    run_probe(target, reps, ITERS, DEFAULT_WARMUP, &CancelToken::new()).unwrap()
}

#[test]
fn every_fixed_execute_step_counts_as_its_row_declares() {
    let cs = ControlStore::get();
    let baseline = measure(None, 0);
    let copies = ITERS * u64::from(REPS);
    let mut probeable: Vec<Opcode> = probe_grid()
        .into_iter()
        .filter(|cell| cell.target.is_ok())
        .map(|cell| cell.opcode)
        .collect();
    probeable.dedup();
    let (mut checked, mut listed) = (0, 0);
    let mut wrong = Vec::new();
    for op in probeable {
        let Some([each, reads, writes]) = trips(op) else {
            assert!(
                DATA_DEPENDENT.iter().any(|(ops, _)| ops.contains(&op)),
                "{op} is probeable but neither checked nor listed with its data-dependent step"
            );
            listed += 1;
            continue;
        };
        let mode = match op.operands()[0] {
            OperandKind::Spec(AccessType::Address, _) => AddressingMode::RegisterDeferred,
            _ => AddressingMode::Register,
        };
        let target =
            probe_target(op, mode).unwrap_or_else(|e| panic!("{op} {mode:?}: {}", e.describe()));
        let run = measure(Some(&target), REPS);
        let (region, row) = (cs.exec_region(op), cs.exec_row(op));
        assert!(
            each > 0 || row.each.is_empty(),
            "{op}'s row declares a loop"
        );
        let data_steps = matches!(op.group(), OpcodeGroup::Character | OpcodeGroup::Decimal);
        for k in 0..region.len {
            let upc = region.at(k);
            if cs.map.op(upc) != MicroOp::Compute && !data_steps {
                continue;
            }
            let count = |p: &ProbeRun| p.m.hist.read(upc, Plane::Normal);
            let measured = count(&run) as i64 - count(&baseline) as i64;
            let per_copy = occurrences(row.setup, k)
                + occurrences(row.finish, k)
                + each * occurrences(row.each, k)
                + reads * occurrences(&READ_LW, k)
                + writes * occurrences(&WRITE_LW, k);
            let want = (per_copy * copies) as i64;
            if measured != want {
                wrong.push(format!(
                    "{op} {mode:?}: EXEC.{op} offset {k} counted {measured}, declared {want} \
                     ({copies} copies)"
                ));
            }
        }
        checked += 1;
    }
    // Every SIMPLE opcode that leaves the PC alone, every FLOAT opcode, and
    // every CHARACTER and DECIMAL opcode.
    assert_eq!(checked, 80 + 42 + 9 + 12, "checked {checked} opcodes");
    let unprobed = DATA_DEPENDENT
        .iter()
        .map(|(ops, _)| ops.len())
        .sum::<usize>()
        - listed;
    assert_eq!(
        unprobed, 0,
        "the list names {unprobed} opcode(s) the grid does not probe"
    );
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Offsets of `region` whose normal-plane count differs from its step
/// lists', each list run the given number of times.
fn miscounted(name: &str, m: &Measurement, region: Region, runs: &[(&[u16], u64)]) -> Vec<String> {
    (0..region.len)
        .filter_map(|k| {
            let counted = m.hist.read(region.at(k), Plane::Normal);
            let declared: u64 = runs
                .iter()
                .map(|(steps, n)| n * occurrences(steps, k))
                .sum();
            (counted != declared)
                .then(|| format!("{name} offset {k} counted {counted}, declared {declared}"))
        })
        .collect()
}

#[test]
fn every_service_step_counts_as_its_list_declares() {
    let cs = ControlStore::get();
    let mut sys = build_system(Workload::Commercial, 3, 5);
    let m = sys.measure(5_000, 60_000);
    let entry = |region: Region| m.hist.read(region.entry(), Plane::Normal);

    // A service runs its list once; a double miss reads a second PTE at
    // the read step.
    let services = entry(cs.tb_miss);
    let second_reads = m.mem_stats.pte_reads.saturating_sub(services);
    // Each unaligned reference runs one of the two lists, whose one data
    // step tells which.
    let count = |k| m.hist.read(cs.unaligned.at(k), Plane::Normal);
    let (unaligned_reads, unaligned_writes) = (count(unaligned::READ), count(unaligned::WRITE));
    let interrupts = m.cpu_stats.total_interrupts();
    for (name, n) in [
        ("TB-miss services", services),
        ("unaligned reads", unaligned_reads),
        ("unaligned writes", unaligned_writes),
        ("interrupts", interrupts),
    ] {
        assert!(n > 0, "the run has no {name}");
    }
    assert_eq!(
        unaligned_reads + unaligned_writes,
        m.mem_stats.unaligned_refs
    );

    let mut wrong = miscounted(
        "TBMISS",
        &m,
        cs.tb_miss,
        &[(&tbmiss::STEPS, services), (&[tbmiss::READ], second_reads)],
    );
    wrong.extend(miscounted(
        "INT.DISPATCH",
        &m,
        cs.interrupt,
        &[(&int_dispatch::STEPS, interrupts)],
    ));
    wrong.extend(miscounted(
        "UNALIGNED",
        &m,
        cs.unaligned,
        &[
            (&unaligned::READ_STEPS, unaligned_reads),
            (&unaligned::WRITE_STEPS, unaligned_writes),
        ],
    ));
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
