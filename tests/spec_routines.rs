//! The specifier routines run as the control store declares them.
//!
//! A probe loop runs `reps` copies of one instruction per iteration, and
//! the baseline runs the same scaffold without them, so over `iters`
//! iterations the difference at a µPC is what the probed copies spent
//! there. The expected difference comes from the declared routines and
//! the decoded instruction, not from the EBOX: each specifier of the
//! probed instruction enters its (position, mode, flavor) routine once per
//! copy, and each µop of that routine counts once per entry on the normal
//! plane, plus once more for a data reference to quadword data (a
//! quadword moves as two longwords at the same µPC). A deferred mode's
//! first two µops fetch a longword pointer, so they count once.

use std::collections::BTreeMap;

use upc_monitor::{MicroOp, MicroPc, Plane};
use vax780::CancelToken;
use vax_analysis::characterize::{run_probe, ProbeRun, DEFAULT_WARMUP};
use vax_arch::{decode, AddressingMode, Opcode, OperandKind};
use vax_asm::probe::{probe_target, ORIGIN, SCAFFOLD_INSNS};
use vax_cpu::store::{SpecFlavor, SpecRegions};
use vax_cpu::ControlStore;

const REPS: u32 = 4;
const ITERS: u64 = 16;

/// Read (MOVL), write (CLRL), modify (INCL), address (MOVAL, PUSHAL) and
/// quadword (MOVQ, CLRQ) operands, and a bit-field base (EXTZV), whose
/// register form is the one register-mode address routine a probe runs.
const OPCODES: [Opcode; 8] = [
    Opcode::Movl,
    Opcode::Clrl,
    Opcode::Incl,
    Opcode::Moval,
    Opcode::Pushal,
    Opcode::Movq,
    Opcode::Clrq,
    Opcode::Extzv,
];

fn measure(target: Option<&vax_asm::ProbeTarget>, reps: u32) -> ProbeRun {
    run_probe(target, reps, ITERS, DEFAULT_WARMUP, &CancelToken::new()).unwrap()
}

/// Every µPC of every routine of one position class, named
/// `PREFIX.Mode.Flavor`, with its offset.
fn routine_upcs(prefix: &'static str, sr: &SpecRegions) -> Vec<(MicroPc, String, u16)> {
    let mut out = Vec::new();
    for &mode in &AddressingMode::ALL {
        for flavor in SpecFlavor::ALL {
            if let Some(r) = sr.get(mode, flavor) {
                for i in 0..r.len {
                    out.push((r.at(i), format!("{prefix}.{mode:?}.{flavor:?}"), i));
                }
            }
        }
    }
    out.push((sr.index_prefix.entry(), format!("{prefix}.INDEX"), 0));
    out
}

/// Normal-plane counts each probed copy should add at each specifier µPC,
/// from the probed instruction's decoded specifiers and their declared
/// routines.
fn declared_counts(cs: &ControlStore, bytes: &[u8]) -> BTreeMap<MicroPc, u64> {
    let insn = decode(bytes).unwrap();
    let mut expected = BTreeMap::new();
    let specs = insn.opcode.operands().iter().filter_map(|k| match k {
        OperandKind::Spec(access, dt) => Some((*access, *dt)),
        OperandKind::Branch(_) => None,
    });
    for (i, ((access, dt), spec)) in specs.zip(&insn.specifiers).enumerate() {
        let sr = if i == 0 { &cs.spec1 } else { &cs.spec26 };
        if spec.index.is_some() {
            *expected.entry(sr.index_prefix.entry()).or_default() += 1;
        }
        let deferred = matches!(
            spec.mode,
            AddressingMode::AutoincrementDeferred
                | AddressingMode::ByteDispDeferred
                | AddressingMode::WordDispDeferred
                | AddressingMode::LongDispDeferred
                | AddressingMode::PcRelativeDeferred
        );
        let r = sr.routine(spec.mode, SpecFlavor::of(access));
        for k in 0..r.len {
            let data_ref = matches!(cs.map.op(r.at(k)), MicroOp::Read | MicroOp::Write)
                && !(deferred && k < 2);
            let quad_repeat = u64::from(data_ref && dt.size() > 4);
            *expected.entry(r.at(k)).or_default() += 1 + quad_repeat;
        }
    }
    expected
}

#[test]
fn every_specifier_upc_counts_as_its_routine_declares() {
    let cs = ControlStore::get();
    let mut upcs = routine_upcs("SPEC1", &cs.spec1);
    upcs.extend(routine_upcs("SPEC26", &cs.spec26));
    let baseline = measure(None, 0);
    let copies = ITERS * u64::from(REPS);
    let mut cells = 0;
    let mut wrong = Vec::new();
    for opcode in OPCODES {
        for &mode in &AddressingMode::ALL {
            let Ok(target) = probe_target(opcode, mode) else {
                continue;
            };
            cells += 1;
            let run = measure(Some(&target), REPS);
            // The first probed copy follows the three scaffold MOVLs.
            let mut at = (run.probe.image.addr_of("loop") - ORIGIN) as usize;
            for _ in 0..SCAFFOLD_INSNS - 1 {
                at += decode(&run.probe.image.bytes[at..]).unwrap().len as usize;
            }
            let declared = declared_counts(cs, &run.probe.image.bytes[at..]);
            for (upc, routine, offset) in &upcs {
                let count = |p: &ProbeRun| p.m.hist.read(*upc, Plane::Normal);
                let measured = count(&run) as i64 - count(&baseline) as i64;
                let want = declared.get(upc).map_or(0, |n| n * copies) as i64;
                if measured != want {
                    wrong.push(format!(
                        "{} {}: {routine} offset {offset} counted {measured}, declared {want} \
                         ({copies} copies)",
                        opcode.mnemonic(),
                        vax_asm::mode_key(mode),
                    ));
                }
            }
        }
    }
    assert!(cells > 80, "only {cells} probeable cells");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
