//! Property test: the `JobSpec` codec is canonical — for any valid spec,
//! encode → decode → encode is byte-stable. This is what lets a job
//! directory's `spec.json` serve as the job's identity: re-submitting it
//! produces the same canonical bytes, and any textual difference between
//! two spec files is a real difference in the experiment.

use vax780::FaultClass;
use vax_bench::jobspec::{JobSpec, ProbeSpec, RefuteSpec, RunSpec};

/// SplitMix64 — enough randomness for a property sweep, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

const EXPERIMENTS: &[&str] = &["all", "table1", "table2", "table5", "events", "fig1"];
const OPCODES: &[&str] = &["MOVL", "ADDL2", "CMPL", "TSTL", "BICL2"];
const MODES: &[&str] = &["register", "literal", "byte_disp", "long_disp", "immediate"];

fn random_run(rng: &mut Rng) -> RunSpec {
    let fault_seed = if rng.chance(2) {
        Some(rng.below(1_000_000))
    } else {
        None
    };
    RunSpec {
        jobs: if rng.chance(2) {
            Some(1 + rng.below(16))
        } else {
            None
        },
        retries: if rng.chance(2) {
            Some(rng.below(4))
        } else {
            None
        },
        // Quarter-second deadlines have exact binary representations, so
        // the codec is not being tested on float formatting.
        deadline_secs: if rng.chance(4) {
            Some((1 + rng.below(40)) as f64 * 0.25)
        } else {
            None
        },
        instructions: 1 + rng.below(10_000_000),
        // The JSON integer domain is i64, so no seed above i64::MAX has a
        // spec; the CLI rejects such seeds too (`MAX_JSON_INT`).
        seed: rng.next() >> 1,
        shards: 1 + rng.below(8),
        experiment: EXPERIMENTS[rng.below(EXPERIMENTS.len() as u64) as usize].to_string(),
        per_workload: rng.chance(2),
        interval_cycles: 1 + rng.below(1_000_000),
        profile: rng.chance(2),
        top: 1 + rng.below(50),
        flight_recorder: rng.below(256),
        fault_classes: match fault_seed {
            None => Vec::new(),
            // Canonical order, as the decoder normalizes to.
            Some(s) if s % 3 == 0 => vec![FaultClass::Parity],
            Some(_) => FaultClass::ALL.to_vec(),
        },
        fault_seed,
        strict: rng.chance(2),
    }
}

fn random_probe(rng: &mut Rng) -> ProbeSpec {
    let npick = rng.below(OPCODES.len() as u64) as usize;
    ProbeSpec {
        jobs: if rng.chance(2) {
            Some(1 + rng.below(8))
        } else {
            None
        },
        retries: if rng.chance(2) {
            Some(rng.below(3))
        } else {
            None
        },
        deadline_secs: if rng.chance(4) {
            Some((1 + rng.below(40)) as f64 * 0.25)
        } else {
            None
        },
        opcodes: OPCODES[..npick].iter().map(|s| s.to_string()).collect(),
        modes: MODES[..rng.below(MODES.len() as u64) as usize]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        reps: 1 + rng.below(16),
        iters: 1 + rng.below(512),
        warmup: rng.below(10_000),
    }
}

fn random_spec(rng: &mut Rng) -> JobSpec {
    match rng.below(3) {
        0 => JobSpec::Run(random_run(rng)),
        1 => JobSpec::Characterize(random_probe(rng)),
        _ => JobSpec::Refute(RefuteSpec {
            probe: random_probe(rng),
            // Tolerances with exact binary representations dodge float
            // formatting questions the codec is not responsible for.
            abs_tol: (rng.below(8)) as f64 * 0.25,
            rel_tol: (rng.below(4)) as f64 * 0.125,
            max_refutations: rng.below(32),
            model: None,
        }),
    }
}

#[test]
fn encode_decode_encode_is_byte_stable() {
    let mut rng = Rng(0x1984_0780);
    for case in 0..500 {
        let spec = random_spec(&mut rng);
        let first = spec.encode().to_string_pretty();
        let decoded = JobSpec::decode(&first)
            .unwrap_or_else(|e| panic!("case {case}: canonical text failed decode: {e}\n{first}"));
        let second = decoded.encode().to_string_pretty();
        assert_eq!(first, second, "case {case}: encoding is not a fixed point");
        assert_eq!(decoded, spec, "case {case}: decode lost information");
    }
}

#[test]
fn compact_and_pretty_agree_on_content() {
    let mut rng = Rng(7);
    for _ in 0..50 {
        let spec = random_spec(&mut rng);
        let compact = JobSpec::decode(&spec.encode().to_string_compact()).unwrap();
        assert_eq!(compact, spec, "compact text must decode identically");
    }
}

#[test]
fn decoding_is_idempotent_under_field_reordering() {
    // The decoder accepts fields in any order; the re-encoding is still
    // the one canonical form.
    let reordered = r#"{
        "strict": true,
        "seed": 11,
        "kind": "run",
        "instructions": 5000,
        "format_version": 1
    }"#;
    let spec = JobSpec::decode(reordered).unwrap();
    let canonical = spec.encode().to_string_pretty();
    let again = JobSpec::decode(&canonical).unwrap();
    assert_eq!(again.encode().to_string_pretty(), canonical);
}
