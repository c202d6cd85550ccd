//! The per-opcode characterization observatory, end to end.
//!
//! Four properties the ISSUE-level guarantees rest on:
//! 1. every probeable cell of the opcode × addressing-mode grid assembles
//!    into a loop whose probe instructions decode back to exactly the
//!    opcode and mode the grid asked for (encode/decode round trip);
//! 2. the cost table is byte-identical at any `--jobs` count;
//! 3. `refute` catches a seeded cycle-model error, minimizes it, and the
//!    minimized fixture round-trips through its JSON schema;
//! 4. the committed golden cost table under
//!    `tests/fixtures/characterize-golden/` matches a fresh run with the
//!    same parameters (fixture freshness — the CI smoke gate's anchor).

use std::path::{Path, PathBuf};

use vax_arch::{decode, Opcode};
use vax_asm::{probe_grid, probe_loop};
use vax_bench::charrun::{run_characterize, run_refute};
use vax_bench::cli::CharacterizeOptions;
use vax_bench::jobspec::{ProbeSpec, RefuteSpec};
use vax_bench::progress::{Progress, Verbosity};
use vax_trace::Tracer;

fn quiet() -> Progress {
    Progress::new(Verbosity::Quiet)
}

/// A modest but multi-group grid subset: data movement, arithmetic with a
/// separate destination, a write-only clear, a read–modify–write, and a
/// masking op — all with data-independent microcode paths so the probe
/// loops stay strictly periodic.
fn subset_opts() -> CharacterizeOptions {
    CharacterizeOptions {
        spec: RefuteSpec {
            probe: ProbeSpec {
                opcodes: ["MOVL", "ADDL2", "CLRL", "INCL", "BICL2"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                reps: 4,
                iters: 16,
                ..ProbeSpec::default()
            },
            ..RefuteSpec::default()
        },
        verbosity: Verbosity::Quiet,
        ..CharacterizeOptions::default()
    }
}

#[test]
fn every_probeable_grid_cell_round_trips_through_the_decoder() {
    let mut probeable = 0usize;
    for cell in probe_grid() {
        let Ok(target) = cell.target else { continue };
        probeable += 1;
        let reps = 2u32;
        let p = probe_loop(Some(&target), reps).unwrap();
        // Decode the whole loop body instruction by instruction.
        let start = (p.image.addr_of("loop") - p.image.origin) as usize;
        let end = start + p.loop_bytes as usize;
        let mut at = start;
        let mut insns = Vec::new();
        while at < end {
            let insn = decode(&p.image.bytes[at..]).unwrap_or_else(|e| {
                panic!(
                    "{} {:?}: decode failed at +{at}: {e:?}",
                    cell.opcode.mnemonic(),
                    cell.mode
                )
            });
            at += insn.len as usize;
            insns.push(insn);
        }
        assert_eq!(
            at,
            end,
            "{} {:?}: ragged loop body",
            cell.opcode.mnemonic(),
            cell.mode
        );
        // Scaffold (3 MOVL + trailing BRW) around `reps` probe copies.
        assert_eq!(
            insns.len() as u32,
            p.period,
            "{} {:?}",
            cell.opcode.mnemonic(),
            cell.mode
        );
        assert_eq!(insns.last().unwrap().opcode, Opcode::Brw);
        for probe in &insns[3..3 + reps as usize] {
            assert_eq!(probe.opcode, target.opcode);
            assert_eq!(
                probe.specifiers[target.operand].mode,
                target.mode,
                "{} probed operand {} did not decode back to {:?}",
                target.opcode.mnemonic(),
                target.operand,
                target.mode
            );
        }
    }
    // The grid must stay substantial: most of the instruction set is
    // probeable in most modes.
    assert!(probeable > 1000, "only {probeable} probeable cells");
}

#[test]
fn cost_table_is_byte_identical_across_job_counts() {
    let mut serial = subset_opts();
    serial.spec.probe.jobs = Some(1);
    let mut fanned = subset_opts();
    fanned.spec.probe.jobs = Some(4);
    let a = run_characterize(&serial, &quiet(), &Tracer::disabled());
    let b = run_characterize(&fanned, &quiet(), &Tracer::disabled());
    assert!(a.failed_cells.is_empty() && b.failed_cells.is_empty());
    assert!(!a.table.records.is_empty());
    assert_eq!(
        vax_analysis::costs_json(&a.table),
        vax_analysis::costs_json(&b.table),
        "costs.json must not depend on --jobs"
    );
}

#[test]
fn ediv_cells_characterize_with_none_quarantined() {
    // EDIV's execute phase (26 cycles) is longer than the FLOAT region (24
    // µops); it must loop on the region's last µop instead of overrunning it.
    let opts = CharacterizeOptions {
        spec: RefuteSpec {
            probe: ProbeSpec {
                opcodes: vec!["EDIV".to_string()],
                reps: 4,
                iters: 16,
                jobs: Some(2),
                ..ProbeSpec::default()
            },
            ..RefuteSpec::default()
        },
        verbosity: Verbosity::Quiet,
        ..CharacterizeOptions::default()
    };
    let out = run_characterize(&opts, &quiet(), &Tracer::disabled());
    assert!(out.failed_cells.is_empty(), "{:?}", out.failed_cells);
    let probeable = probe_grid()
        .into_iter()
        .filter(|cell| cell.opcode == Opcode::Ediv && cell.target.is_ok())
        .count();
    assert!(probeable > 0);
    assert_eq!(out.table.records.len(), probeable);
    assert!(out.table.records.iter().all(|r| r.opcode == Opcode::Ediv));
}

#[test]
fn refute_catches_and_minimizes_a_seeded_model_error() {
    let dir = std::env::temp_dir().join(format!("vax-char-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Measure the truth, then claim two extra data reads for one cell.
    let mut opts = subset_opts();
    opts.spec.probe.modes = vec!["register".into(), "register_deferred".into()];
    let truth = run_characterize(&opts, &quiet(), &Tracer::disabled());
    assert!(truth.failed_cells.is_empty());
    let mut model = truth.table.clone();
    let victim = model
        .records
        .iter_mut()
        .find(|r| r.opcode == Opcode::Incl)
        .unwrap();
    let mutated_mnemonic = victim.opcode.mnemonic();
    victim.d_reads += 2.0;
    let model_path = dir.join("model.json");
    std::fs::write(&model_path, vax_analysis::costs_json(&model)).unwrap();

    let mut ropts = opts.clone();
    ropts.model_file = Some(model_path);
    ropts.fixtures = Some(dir.join("refutations"));
    let out = run_refute(&ropts, &quiet(), &Tracer::disabled()).unwrap();
    assert_eq!(out.refuted_cells.len(), 1, "{:?}", out.refuted_cells);
    assert_eq!(out.refuted_cells[0].0, mutated_mnemonic);
    assert!(out.refuted_cells[0].2.iter().any(|c| c == "model:d_reads"));

    // The minimizer shrinks to a single probe copy and the fixture
    // round-trips through its schema.
    let (refutation, fixture_path) = &out.refutations[0];
    assert_eq!(refutation.reps, 1);
    let text = std::fs::read_to_string(fixture_path.as_ref().unwrap()).unwrap();
    let (opcode, mode, reps) = vax_analysis::refute::refutation_from_json(&text).unwrap();
    assert_eq!(opcode, refutation.opcode);
    assert_eq!(mode, refutation.mode);
    assert_eq!(reps, refutation.reps);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_refutation_fixtures_replay_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/refutations");
    let baseline = vax_analysis::run_probe(None, 0, 16, 2000).unwrap();
    let mut replayed = 0usize;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let (opcode, mode, reps) = vax_analysis::refute::refutation_from_json(&text)
            .unwrap_or_else(|e| {
                panic!("{}: {e}", path.display());
            });
        let target = vax_asm::probe_target(opcode, mode).unwrap();
        let probe = vax_analysis::run_probe(Some(&target), reps, 16, 2000).unwrap();
        // Replay against the model-free checks only: the fixture's model
        // divergence was the bug it caught; the invariant and structural
        // checks must stay clean forever.
        let failures = vax_analysis::check_cell(&target, &probe, &baseline, None);
        assert!(
            failures.is_empty(),
            "{}: regression — {:?}",
            path.display(),
            failures
        );
        replayed += 1;
    }
    assert!(replayed >= 1, "no fixtures under {}", dir.display());
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/characterize-golden/costs.json")
}

/// The parameters the golden fixture was generated with — keep in sync
/// with the `characterize-smoke` CI job and `docs/CHARACTERIZATION.md`.
fn golden_options() -> CharacterizeOptions {
    CharacterizeOptions {
        spec: RefuteSpec {
            probe: ProbeSpec {
                opcodes: ["MOVL", "ADDL2", "CLRL"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                reps: 4,
                iters: 16,
                ..ProbeSpec::default()
            },
            ..RefuteSpec::default()
        },
        verbosity: Verbosity::Quiet,
        ..CharacterizeOptions::default()
    }
}

#[test]
fn committed_golden_cost_table_is_fresh() {
    let out = run_characterize(&golden_options(), &quiet(), &Tracer::disabled());
    assert!(out.failed_cells.is_empty());
    let fresh = vax_analysis::costs_json(&out.table);
    let committed = std::fs::read_to_string(golden_path()).unwrap();
    assert_eq!(
        fresh, committed,
        "golden cost table is stale — regenerate with \
         `reproduce characterize --opcodes MOVL,ADDL2,CLRL --reps 4 --iters 16 \
         --out tests/fixtures/characterize-golden`"
    );
}
