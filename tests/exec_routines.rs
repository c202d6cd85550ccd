//! The execute routines' fixed steps run as the cost table declares them.
//!
//! As in `tests/spec_routines.rs`, a probe loop runs `reps` copies of one
//! instruction per iteration and the baseline runs the same scaffold
//! without them, so over `iters` iterations the difference at a µPC is
//! what the probed copies spent there. A SIMPLE or FLOAT routine's compute
//! steps are all fixed (a probe never branches), so each compute µPC of
//! the opcode's execute region must count, per probed copy, as often as
//! its row's `setup` and `finish` list the offset. One mode per opcode
//! suffices, since no compute step of these routines depends on it. Every
//! other probeable opcode has a compute step that an operand value
//! decides, and is listed below with that step instead.

use upc_monitor::{MicroOp, Plane};
use vax780::CancelToken;
use vax_analysis::characterize::{run_probe, ProbeRun, DEFAULT_WARMUP};
use vax_arch::{AccessType, AddressingMode, Opcode, OpcodeGroup, OperandKind};
use vax_asm::probe::{probe_grid, probe_target};
use vax_cpu::ControlStore;

const REPS: u32 = 4;
const ITERS: u64 = 16;

/// The probeable opcodes outside SIMPLE and FLOAT, each with the
/// operand-dependent step that keeps its counts off the table.
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
    (
        &[
            Opcode::Movc3,
            Opcode::Movc5,
            Opcode::Cmpc3,
            Opcode::Cmpc5,
            Opcode::Locc,
            Opcode::Skpc,
            Opcode::Scanc,
            Opcode::Spanc,
            Opcode::Matchc,
        ],
        "a loop iteration per longword of string",
    ),
    (
        &[
            Opcode::Addp4,
            Opcode::Addp6,
            Opcode::Subp4,
            Opcode::Subp6,
            Opcode::Mulp,
            Opcode::Divp,
            Opcode::Movp,
            Opcode::Cmpp3,
            Opcode::Cmpp4,
            Opcode::Cvtlp,
            Opcode::Cvtpl,
            Opcode::Ashp,
        ],
        "a digit-loop iteration per digit and a DIGIT step per longword of packed operand",
    ),
];

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
        if !matches!(op.group(), OpcodeGroup::Simple | OpcodeGroup::Float) {
            assert!(
                DATA_DEPENDENT.iter().any(|(ops, _)| ops.contains(&op)),
                "{op} is probeable but neither checked nor listed with its data-dependent step"
            );
            listed += 1;
            continue;
        }
        // Register mode, where legal: an address operand of a register
        // faults on the 780, so it goes through a register pointer. Neither
        // first specifier is a literal, whose cycle the entry step fuses into.
        let mode = match op.operands()[0] {
            OperandKind::Spec(AccessType::Address, _) => AddressingMode::RegisterDeferred,
            _ => AddressingMode::Register,
        };
        let target =
            probe_target(op, mode).unwrap_or_else(|e| panic!("{op} {mode:?}: {}", e.describe()));
        let run = measure(Some(&target), REPS);
        let (region, row) = (cs.exec_region(op), cs.exec_row(op));
        assert!(row.each.is_empty(), "{op}'s row declares a loop");
        for k in 0..region.len {
            let upc = region.at(k);
            if cs.map.op(upc) != MicroOp::Compute {
                continue;
            }
            let count = |p: &ProbeRun| p.m.hist.read(upc, Plane::Normal);
            let measured = count(&run) as i64 - count(&baseline) as i64;
            let steps = row.setup.iter().chain(row.finish).filter(|&&s| s == k);
            let want = (steps.count() as u64 * copies) as i64;
            if measured != want {
                wrong.push(format!(
                    "{op} {mode:?}: EXEC.{op} offset {k} counted {measured}, declared {want} \
                     ({copies} copies)"
                ));
            }
        }
        checked += 1;
    }
    // Every SIMPLE opcode that leaves the PC alone, and every FLOAT opcode.
    assert_eq!(checked, 80 + 42, "checked {checked} opcodes");
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
