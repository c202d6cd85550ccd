//! Property test: the `JobSpec` codec is canonical — for any valid spec,
//! encode → decode → encode is byte-stable. This is what lets a job
//! directory's `spec.json` serve as the job's identity: re-submitting it
//! produces the same canonical bytes, and any textual difference between
//! two spec files is a real difference in the experiment. The canonical
//! bytes themselves are pinned too.

use vax780::FaultClass;
use vax_analysis::Json;
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

/// The canonical encodings of [`pinned_specs`], byte for byte. These bytes
/// are in every `spec.json`, daemon journal and checkpoint header, so a
/// change here is a format change. Each spec's fields of one type hold
/// distinct values, so two fields swapped in the codec change the bytes
/// even where the round trip would not notice.
const PINNED: [&str; 7] = [
    r#"{"format_version":1,"kind":"run","jobs":null,"retries":null,"deadline_secs":null,"instructions":1000000,"seed":1984,"shards":1,"experiment":"all","per_workload":false,"interval_cycles":500000,"profile":false,"top":20,"flight_recorder":0,"fault_seed":null,"fault_classes":[],"strict":false}"#,
    r#"{"format_version":1,"kind":"characterize","jobs":null,"retries":null,"deadline_secs":null,"opcodes":[],"modes":[],"reps":8,"iters":64,"warmup":2000}"#,
    r#"{"format_version":1,"kind":"refute","jobs":null,"retries":null,"deadline_secs":null,"opcodes":[],"modes":[],"reps":8,"iters":64,"warmup":2000,"abs_tol":0.5,"rel_tol":0.01,"max_refutations":8,"model":null}"#,
    r#"{"format_version":1,"kind":"run","jobs":3,"retries":2,"deadline_secs":2.5,"instructions":60000,"seed":7,"shards":5,"experiment":"table2","per_workload":true,"interval_cycles":10000,"profile":false,"top":11,"flight_recorder":64,"fault_seed":9,"fault_classes":["parity","smc"],"strict":true}"#,
    r#"{"format_version":1,"kind":"run","jobs":null,"retries":null,"deadline_secs":null,"instructions":1000000,"seed":1984,"shards":1,"experiment":"all","per_workload":false,"interval_cycles":500000,"profile":true,"top":20,"flight_recorder":0,"fault_seed":0,"fault_classes":["parity","tb-storm","hw-burst","sw-burst","smc"],"strict":true}"#,
    r#"{"format_version":1,"kind":"characterize","jobs":2,"retries":1,"deadline_secs":1.5,"opcodes":["MOVL","ADDL2"],"modes":["register","byte_disp"],"reps":4,"iters":32,"warmup":500}"#,
    r#"{"format_version":1,"kind":"refute","jobs":4,"retries":0,"deadline_secs":null,"opcodes":["CMPL"],"modes":[],"reps":3,"iters":16,"warmup":100,"abs_tol":0.25,"rel_tol":0.05,"max_refutations":3,"model":{"format":"vax-characterize/v1","cells":[]}}"#,
];

/// The default of each kind, a run with every field set (and its switches
/// mixed, completed by a second run), a filtered characterize, and a
/// refute with an inline model.
fn pinned_specs() -> [JobSpec; 7] {
    [
        JobSpec::Run(RunSpec::default()),
        JobSpec::Characterize(ProbeSpec::default()),
        JobSpec::Refute(RefuteSpec::default()),
        JobSpec::Run(RunSpec {
            jobs: Some(3),
            retries: Some(2),
            deadline_secs: Some(2.5),
            instructions: 60_000,
            seed: 7,
            shards: 5,
            experiment: "table2".to_string(),
            per_workload: true,
            interval_cycles: 10_000,
            profile: false,
            top: 11,
            flight_recorder: 64,
            fault_seed: Some(9),
            fault_classes: vec![FaultClass::Parity, FaultClass::Smc],
            strict: true,
        }),
        JobSpec::Run(RunSpec {
            profile: true,
            strict: true,
            fault_seed: Some(0),
            fault_classes: FaultClass::ALL.to_vec(),
            ..RunSpec::default()
        }),
        JobSpec::Characterize(ProbeSpec {
            jobs: Some(2),
            retries: Some(1),
            deadline_secs: Some(1.5),
            opcodes: vec!["MOVL".to_string(), "ADDL2".to_string()],
            modes: vec!["register".to_string(), "byte_disp".to_string()],
            reps: 4,
            iters: 32,
            warmup: 500,
        }),
        JobSpec::Refute(RefuteSpec {
            probe: ProbeSpec {
                jobs: Some(4),
                retries: Some(0),
                opcodes: vec!["CMPL".to_string()],
                reps: 3,
                iters: 16,
                warmup: 100,
                ..ProbeSpec::default()
            },
            abs_tol: 0.25,
            rel_tol: 0.05,
            max_refutations: 3,
            model: Some(Json::obj([
                ("format", Json::from("vax-characterize/v1")),
                ("cells", Json::arr([])),
            ])),
        }),
    ]
}

#[test]
fn canonical_bytes_are_pinned() {
    for (spec, pinned) in pinned_specs().iter().zip(PINNED) {
        assert_eq!(spec.encode().to_string_compact(), pinned);
        assert_eq!(JobSpec::decode(pinned).unwrap(), *spec, "{pinned}");
    }
}
