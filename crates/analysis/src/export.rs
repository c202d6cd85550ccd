//! Machine-readable telemetry: JSON builders for measurements, interval
//! time series and the run manifest, and the bundle of a run's artifacts.
//!
//! `tables.json` comes from the table model in [`crate::tables`], the same
//! values the text report prints, so downstream tooling can diff runs
//! against each other and against the paper's published values without
//! scraping console output.

use upc_monitor::Plane;
use vax780::{IntervalSample, Measurement, TimeSeries};
use vax_arch::BranchKind;

use crate::analysis::Analysis;
use crate::json::Json;
use crate::validate::ValidationReport;

/// Everything needed to reproduce a run, written alongside its results.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Which experiment / workload ran.
    pub experiment: String,
    /// Workload RNG seed, when the workload is randomized.
    pub seed: Option<u64>,
    /// Measured instruction budget.
    pub instructions: u64,
    /// Warm-up instructions before counters were cleared.
    pub warmup: u64,
    /// Sampling interval in cycles (0 = no interval sampling).
    pub interval_cycles: u64,
    /// Replica shards per workload. Part of the experiment definition (each
    /// shard adds `instructions` under its own seed stream), unlike the job
    /// count, which is deliberately *not* recorded: exports must be
    /// byte-identical at any parallelism.
    pub shards: u64,
    /// Human-readable description of the simulated configuration.
    pub config: String,
    /// Fault-injection seed, when a fault plan was installed.
    pub fault_seed: Option<u64>,
    /// Enabled fault classes, canonical names in canonical order (empty
    /// when no faults were injected).
    pub fault_classes: Vec<String>,
    /// True when at least one (workload, shard) cell exhausted its retry
    /// budget and was quarantined — the exports then cover only the
    /// completed cells.
    pub degraded: bool,
    /// Quarantined cells as (workload name, shard index), grid order.
    pub failed_cells: Vec<(String, u64)>,
}

impl RunManifest {
    /// Serialize the manifest.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format_version", Json::Int(2)),
            (
                "paper",
                Json::from(
                    "A Characterization of Processor Performance in the VAX-11/780 \
                     (Emer & Clark, ISCA 1984)",
                ),
            ),
            ("experiment", Json::from(self.experiment.clone())),
            ("seed", self.seed.map(Json::from).unwrap_or(Json::Null)),
            ("instructions", Json::from(self.instructions)),
            ("warmup", Json::from(self.warmup)),
            ("interval_cycles", Json::from(self.interval_cycles)),
            ("shards", Json::from(self.shards)),
            ("config", Json::from(self.config.clone())),
            (
                "fault_seed",
                self.fault_seed.map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "fault_classes",
                Json::arr(self.fault_classes.iter().map(|c| Json::from(c.clone()))),
            ),
            ("degraded", Json::from(self.degraded)),
            (
                "failed_cells",
                Json::arr(self.failed_cells.iter().map(|(w, s)| {
                    Json::obj([
                        ("workload", Json::from(w.clone())),
                        ("shard", Json::from(*s)),
                    ])
                })),
            ),
        ])
    }
}

/// Serialize one measurement's raw counters.
pub fn measurement_json(m: &Measurement) -> Json {
    let cs = &m.cpu_stats;
    let branches = Json::arr(BranchKind::TABLE2_ROWS.iter().map(|k| {
        Json::obj([
            ("class", Json::from(k.name())),
            ("executed", Json::from(cs.branch_executed_of(*k))),
            ("taken", Json::from(cs.branch_taken_of(*k))),
        ])
    }));
    let opcodes = Json::Obj(
        vax_arch::opcode::OPCODE_TABLE
            .iter()
            .filter(|info| cs.opcode_counts[info.opcode as usize] > 0)
            .map(|info| {
                (
                    info.opcode.mnemonic().to_string(),
                    Json::from(cs.opcode_counts[info.opcode as usize]),
                )
            })
            .collect(),
    );
    // `instructions` sits at the top level, beside `cycles` and `cpi`.
    let cpu = cs
        .scalars()
        .into_iter()
        .filter(|&(k, _)| k != "instructions")
        .map(|(k, v)| (k, Json::from(v)))
        .chain([("branches", branches), ("opcode_counts", opcodes)]);
    Json::obj([
        ("cycles", Json::from(m.cycles)),
        ("instructions", Json::from(m.instructions())),
        ("cpi", Json::from(m.cpi())),
        ("cpu_stats", Json::obj(cpu)),
        ("mem_stats", counters_json(m.mem_stats.fields())),
        (
            "histogram",
            Json::obj([
                ("total_cycles", Json::from(m.hist.total_cycles())),
                (
                    "normal_cycles",
                    Json::from(m.hist.plane_total(Plane::Normal)),
                ),
                (
                    "stalled_cycles",
                    Json::from(m.hist.plane_total(Plane::Stalled)),
                ),
                (
                    "nonzero_buckets",
                    Json::from(m.hist.nonzero().count() as u64),
                ),
            ]),
        ),
    ])
}

/// A record's counter list as one JSON object, member per counter.
pub(crate) fn counters_json<const N: usize>(counters: [(&'static str, u64); N]) -> Json {
    Json::obj(counters.map(|(k, v)| (k, Json::from(v))))
}

/// Serialize the interval time series: one object per sample, its bounds,
/// `cycles`, and its counters, with the derived `cpi` after `instructions`
/// and `interrupt_headway` last (the columns of [`TimeSeries::to_csv`]).
pub fn timeseries_json(ts: &TimeSeries) -> Json {
    Json::obj([
        ("intervals", Json::from(ts.len() as u64)),
        (
            "samples",
            Json::arr(ts.samples.iter().map(|s| {
                let [instructions, rest @ ..] = s.counters().map(|(k, v)| (k, Json::from(v)));
                Json::obj(
                    [
                        ("start_cycle", Json::from(s.start_cycle)),
                        ("end_cycle", Json::from(s.end_cycle)),
                        ("cycles", Json::from(s.cycles())),
                        instructions,
                        ("cpi", Json::from(s.cpi())),
                    ]
                    .into_iter()
                    .chain(rest)
                    .chain([("interrupt_headway", Json::from(s.interrupt_headway()))]),
                )
            })),
        ),
    ])
}

/// Parse a [`timeseries_json`] export back into a series. Each object is a
/// sample: the integer fields are stored and the derived ones recompute
/// from them, so the parsed series equals the exported one and
/// re-serializes to the same document.
///
/// # Errors
/// Returns a message naming the first missing or mistyped field.
pub fn timeseries_from_json(j: &Json) -> Result<TimeSeries, String> {
    let samples = j
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or("timeseries: missing 'samples' array")?;
    let declared = j
        .get("intervals")
        .and_then(Json::as_i64)
        .ok_or("timeseries: missing 'intervals'")?;
    if declared as usize != samples.len() {
        return Err(format!(
            "timeseries: 'intervals' says {declared} but {} samples present",
            samples.len()
        ));
    }
    let mut ts = TimeSeries::default();
    for (i, s) in samples.iter().enumerate() {
        let int = |key: &str| -> Result<u64, String> {
            s.get(key)
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("timeseries: sample {i}: missing integer '{key}'"))
        };
        let start_cycle = int("start_cycle")?;
        let end_cycle = int("end_cycle")?;
        if end_cycle < start_cycle {
            return Err(format!(
                "timeseries: sample {i}: 'end_cycle' precedes 'start_cycle'"
            ));
        }
        if int("cycles")? != end_cycle - start_cycle {
            return Err(format!(
                "timeseries: sample {i}: 'cycles' disagrees with bounds"
            ));
        }
        let mut sample = IntervalSample {
            start_cycle,
            end_cycle,
            ..IntervalSample::default()
        };
        for (key, slot) in sample.counters_mut() {
            *slot = int(key)?;
        }
        ts.samples.push(sample);
    }
    Ok(ts)
}

/// Bundle every artifact of a run into `(file name, contents)` pairs, ready
/// to be written into an output directory.
pub fn run_artifacts(
    manifest: &RunManifest,
    a: &Analysis,
    ts: &TimeSeries,
    validation: &ValidationReport,
) -> Vec<(&'static str, String)> {
    vec![
        ("manifest.json", manifest.to_json().to_string_pretty()),
        (
            "measurement.json",
            measurement_json(&a.m).to_string_pretty(),
        ),
        (
            "tables.json",
            crate::tables::tables_json(a).to_string_pretty(),
        ),
        ("timeseries.json", timeseries_json(ts).to_string_pretty()),
        ("timeseries.csv", ts.to_csv()),
        ("validation.json", validation.to_json().to_string_pretty()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use vax780::{ProcessSpec, SystemBuilder, SystemConfig};
    use vax_arch::{Opcode, Reg};
    use vax_asm::{Asm, Operand};

    fn measured() -> (vax780::System, Measurement, TimeSeries) {
        let mut asm = Asm::new(0x200);
        asm.label("entry");
        asm.label("loop");
        asm.insn(
            Opcode::Addl2,
            &[Operand::Lit(1), Operand::Reg(Reg::new(3))],
            None,
        );
        asm.insn(Opcode::Brb, &[], Some("loop"));
        let mut b = SystemBuilder::new(SystemConfig::default());
        b.add_process(ProcessSpec::new(asm.assemble().unwrap(), "entry"));
        let mut sys = b.build();
        let (m, ts) = sys.measure_sampled(500, 5_000, 2_000);
        (sys, m, ts)
    }

    #[test]
    fn measurement_roundtrips_through_json() {
        let (_, m, _) = measured();
        let j = measurement_json(&m);
        let parsed = Json::parse(&j.to_string_pretty()).unwrap();
        assert_eq!(parsed, j);
        assert_eq!(
            parsed.get("cycles").and_then(Json::as_i64),
            Some(m.cycles as i64)
        );
        assert_eq!(
            parsed.get("instructions").and_then(Json::as_i64),
            Some(m.instructions() as i64)
        );
        let cpi = parsed.get("cpi").and_then(Json::as_f64).unwrap();
        assert_eq!(cpi.to_bits(), m.cpi().to_bits());
    }

    #[test]
    fn artifacts_complete_and_parse() {
        let (sys, m, ts) = measured();
        let a = Analysis::new(sys.cpu.cs, &m);
        let v = validate(sys.cpu.cs, &m);
        let manifest = RunManifest {
            experiment: "unit".to_string(),
            seed: Some(7),
            instructions: 5_000,
            warmup: 500,
            interval_cycles: 2_000,
            shards: 1,
            config: "default".to_string(),
            fault_seed: None,
            fault_classes: Vec::new(),
            degraded: false,
            failed_cells: Vec::new(),
        };
        let files = run_artifacts(&manifest, &a, &ts, &v);
        let names: Vec<&str> = files.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "manifest.json",
                "measurement.json",
                "tables.json",
                "timeseries.json",
                "timeseries.csv",
                "validation.json"
            ]
        );
        for (name, body) in &files {
            if name.ends_with(".json") {
                Json::parse(body).unwrap_or_else(|e| panic!("{name}: {e}"));
            } else {
                assert!(body.starts_with("start_cycle,"));
            }
        }
    }

    #[test]
    fn timeseries_json_conserves_instructions() {
        let (_, m, ts) = measured();
        let j = timeseries_json(&ts);
        let total: i64 = j
            .get("samples")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("instructions").and_then(Json::as_i64).unwrap())
            .sum();
        assert_eq!(total as u64, m.instructions());
        assert_eq!(timeseries_from_json(&j).unwrap(), ts, "rows round-trip");
    }
}
