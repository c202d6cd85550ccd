//! Machine-readable telemetry: JSON builders for measurements, the paper's
//! tables, interval time series, and the run manifest.
//!
//! Each builder mirrors the corresponding renderer in [`crate::tables`] but
//! emits numbers instead of formatted text, so downstream tooling can diff
//! runs against each other and against the paper's published values without
//! scraping console output.

use upc_monitor::{Activity, CycleClass, Plane};
use vax780::{IntervalSample, Measurement, TimeSeries};
use vax_arch::{AddressingMode, BranchKind, OpcodeGroup};

use crate::analysis::Analysis;
use crate::json::Json;
use crate::paper;
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
    let ms = &m.mem_stats;
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
    Json::obj([
        ("cycles", Json::from(m.cycles)),
        ("instructions", Json::from(m.instructions())),
        ("cpi", Json::from(m.cpi())),
        (
            "cpu_stats",
            Json::obj([
                ("istream_bytes", Json::from(cs.istream_bytes)),
                ("hw_interrupts", Json::from(cs.hw_interrupts)),
                ("sw_interrupts", Json::from(cs.sw_interrupts)),
                (
                    "sw_interrupt_requests",
                    Json::from(cs.sw_interrupt_requests),
                ),
                ("machine_checks", Json::from(cs.machine_checks)),
                ("context_switches", Json::from(cs.context_switches)),
                ("exceptions", Json::from(cs.exceptions)),
                ("spec1_count", Json::from(cs.spec1_count)),
                ("spec26_count", Json::from(cs.spec26_count)),
                ("spec1_quad_repeats", Json::from(cs.spec1_quad_repeats)),
                ("spec26_quad_repeats", Json::from(cs.spec26_quad_repeats)),
                ("branch_disps", Json::from(cs.branch_disps)),
                ("branches", branches),
                ("opcode_counts", opcodes),
            ]),
        ),
        (
            "mem_stats",
            Json::obj([
                ("d_reads", Json::from(ms.d_reads)),
                ("d_read_misses", Json::from(ms.d_read_misses)),
                ("d_writes", Json::from(ms.d_writes)),
                ("d_write_hits", Json::from(ms.d_write_hits)),
                ("i_reads", Json::from(ms.i_reads)),
                ("i_read_misses", Json::from(ms.i_read_misses)),
                ("tb_miss_d", Json::from(ms.tb_miss_d)),
                ("tb_miss_i", Json::from(ms.tb_miss_i)),
                ("unaligned_refs", Json::from(ms.unaligned_refs)),
                ("pte_reads", Json::from(ms.pte_reads)),
                ("pte_read_misses", Json::from(ms.pte_read_misses)),
                ("read_stall_cycles", Json::from(ms.read_stall_cycles)),
                ("write_stall_cycles", Json::from(ms.write_stall_cycles)),
                ("parity_faults", Json::from(ms.parity_faults)),
            ]),
        ),
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

/// Serialize the interval time series: one object per sample, its fields
/// plus the derived `cycles`, `cpi` and `interrupt_headway`.
pub fn timeseries_json(ts: &TimeSeries) -> Json {
    Json::obj([
        ("intervals", Json::from(ts.len() as u64)),
        (
            "samples",
            Json::arr(ts.samples.iter().map(|s| {
                Json::obj([
                    ("start_cycle", Json::from(s.start_cycle)),
                    ("end_cycle", Json::from(s.end_cycle)),
                    ("cycles", Json::from(s.cycles())),
                    ("instructions", Json::from(s.instructions)),
                    ("cpi", Json::from(s.cpi())),
                    ("read_stall_cycles", Json::from(s.read_stall_cycles)),
                    ("write_stall_cycles", Json::from(s.write_stall_cycles)),
                    ("ib_reads", Json::from(s.ib_reads)),
                    ("cache_read_misses", Json::from(s.cache_read_misses)),
                    ("tb_misses", Json::from(s.tb_misses)),
                    ("interrupts", Json::from(s.interrupts)),
                    ("context_switches", Json::from(s.context_switches)),
                    ("interrupt_headway", Json::from(s.interrupt_headway())),
                ])
            })),
        ),
    ])
}

/// Parse a [`timeseries_json`] export back into a series. Like
/// [`TimeSeries::from_csv`], each object is a sample: the integer fields
/// are stored and the derived ones recompute from them, so the parsed
/// series equals the exported one and re-serializes to the same document.
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
        ts.samples.push(IntervalSample {
            start_cycle,
            end_cycle,
            instructions: int("instructions")?,
            read_stall_cycles: int("read_stall_cycles")?,
            write_stall_cycles: int("write_stall_cycles")?,
            ib_reads: int("ib_reads")?,
            cache_read_misses: int("cache_read_misses")?,
            tb_misses: int("tb_misses")?,
            interrupts: int("interrupts")?,
            context_switches: int("context_switches")?,
        });
    }
    Ok(ts)
}

fn measured_paper(measured: f64, paper: f64) -> Json {
    Json::obj([
        ("measured", Json::from(measured)),
        ("paper", Json::from(paper)),
    ])
}

fn table1_json(a: &Analysis) -> Json {
    let measured = a.group_percent();
    Json::arr(OpcodeGroup::ALL.iter().enumerate().map(|(i, g)| {
        Json::obj([
            ("group", Json::from(g.name())),
            ("measured_percent", Json::from(measured[i])),
            ("paper_percent", Json::from(paper::TABLE1_GROUP_PERCENT[i])),
        ])
    }))
}

fn table2_json(a: &Analysis) -> Json {
    let n = a.instructions.max(1) as f64;
    let row = |name: &str, execd: u64, taken: u64, p: (f64, f64, f64)| {
        Json::obj([
            ("class", Json::from(name)),
            (
                "executed_percent",
                measured_paper(100.0 * execd as f64 / n, p.0),
            ),
            (
                "taken_percent",
                measured_paper(
                    if execd > 0 {
                        100.0 * taken as f64 / execd as f64
                    } else {
                        0.0
                    },
                    p.1,
                ),
            ),
            (
                "taken_of_all_percent",
                measured_paper(100.0 * taken as f64 / n, p.2),
            ),
        ])
    };
    let mut tot_exec = 0u64;
    let mut tot_taken = 0u64;
    let mut rows: Vec<Json> = BranchKind::TABLE2_ROWS
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let execd = a.m.cpu_stats.branch_executed_of(*k);
            let taken = a.m.cpu_stats.branch_taken_of(*k);
            tot_exec += execd;
            tot_taken += taken;
            row(k.name(), execd, taken, paper::TABLE2[i])
        })
        .collect();
    rows.push(row("TOTAL", tot_exec, tot_taken, paper::TABLE2_TOTAL));
    Json::Arr(rows)
}

fn table3_json(a: &Analysis) -> Json {
    let n = a.instructions.max(1) as f64;
    Json::obj([
        (
            "first_specifiers_per_instr",
            measured_paper(a.spec1.total() as f64 / n, paper::TABLE3_SPEC1),
        ),
        (
            "other_specifiers_per_instr",
            measured_paper(a.spec26.total() as f64 / n, paper::TABLE3_SPEC26),
        ),
        (
            "branch_displacements_per_instr",
            measured_paper(a.m.cpu_stats.branch_disps as f64 / n, paper::TABLE3_BDISP),
        ),
    ])
}

fn table4_json(a: &Analysis) -> Json {
    let modes = Json::arr(AddressingMode::ALL.iter().enumerate().map(|(i, m)| {
        Json::obj([
            ("mode", Json::from(format!("{m:?}"))),
            ("spec1_count", Json::from(a.spec1.by_mode[i])),
            ("spec26_count", Json::from(a.spec26.by_mode[i])),
        ])
    }));
    Json::obj([
        ("by_mode", modes),
        ("spec1_total", Json::from(a.spec1.total())),
        ("spec26_total", Json::from(a.spec26.total())),
        ("spec1_indexed", Json::from(a.spec1.indexed)),
        ("spec26_indexed", Json::from(a.spec26.indexed)),
        ("indexed_percent_paper", Json::from(paper::TABLE4_INDEXED.2)),
    ])
}

fn table5_json(a: &Analysis) -> Json {
    let rows = [
        ("Spec1", Activity::Spec1),
        ("Spec2-6", Activity::Spec26),
        ("Simple", Activity::ExecSimple),
        ("Field", Activity::ExecField),
        ("Float", Activity::ExecFloat),
        ("Call/Ret", Activity::ExecCallRet),
        ("System", Activity::ExecSystem),
        ("Character", Activity::ExecCharacter),
        ("Decimal", Activity::ExecDecimal),
    ];
    let other_rows = [
        Activity::Decode,
        Activity::BDisp,
        Activity::IntExcept,
        Activity::MemMgmt,
        Activity::Abort,
    ];
    let mut reads = 0.0;
    let mut writes = 0.0;
    let mut out: Vec<Json> = rows
        .iter()
        .map(|(name, act)| {
            let r = a.cell(*act, CycleClass::Read);
            let w = a.cell(*act, CycleClass::Write);
            reads += r;
            writes += w;
            Json::obj([
                ("source", Json::from(*name)),
                ("reads_per_instr", Json::from(r)),
                ("writes_per_instr", Json::from(w)),
            ])
        })
        .collect();
    let or: f64 = other_rows
        .iter()
        .map(|&x| a.cell(x, CycleClass::Read))
        .sum();
    let ow: f64 = other_rows
        .iter()
        .map(|&x| a.cell(x, CycleClass::Write))
        .sum();
    reads += or;
    writes += ow;
    out.push(Json::obj([
        ("source", Json::from("Other")),
        ("reads_per_instr", Json::from(or)),
        ("writes_per_instr", Json::from(ow)),
    ]));
    let n = a.instructions.max(1) as f64;
    Json::obj([
        ("rows", Json::Arr(out)),
        (
            "total_reads_per_instr",
            measured_paper(reads, paper::TABLE5_READS_TOTAL),
        ),
        (
            "total_writes_per_instr",
            measured_paper(writes, paper::TABLE5_WRITES_TOTAL),
        ),
        (
            "unaligned_refs_per_instr",
            measured_paper(
                a.m.mem_stats.unaligned_refs as f64 / n,
                paper::UNALIGNED_PER_INSTR,
            ),
        ),
    ])
}

fn table6_json(a: &Analysis) -> Json {
    Json::obj([(
        "avg_instruction_bytes",
        measured_paper(
            a.m.cpu_stats.avg_instruction_bytes(),
            paper::TABLE6_AVG_INSTR_BYTES,
        ),
    )])
}

fn table7_json(a: &Analysis) -> Json {
    let entry = |v: Option<f64>, p: f64| {
        Json::obj([
            ("measured", v.map(Json::from).unwrap_or(Json::Null)),
            ("paper", Json::from(p)),
        ])
    };
    Json::obj([
        (
            "sw_interrupt_request_headway",
            entry(
                a.headway(a.m.cpu_stats.sw_interrupt_requests),
                paper::TABLE7_SOFT_REQ_HEADWAY,
            ),
        ),
        (
            "interrupt_headway",
            entry(
                a.headway(a.m.cpu_stats.total_interrupts()),
                paper::TABLE7_INTERRUPT_HEADWAY,
            ),
        ),
        (
            "context_switch_headway",
            entry(
                a.headway(a.m.cpu_stats.context_switches),
                paper::TABLE7_CONTEXT_SWITCH_HEADWAY,
            ),
        ),
    ])
}

fn events_json(a: &Analysis) -> Json {
    let n = a.instructions.max(1) as f64;
    let ms = &a.m.mem_stats;
    let ib_refs = ms.i_reads as f64 / n;
    let avg_bytes = a.m.cpu_stats.avg_instruction_bytes();
    Json::obj([
        (
            "ib_refs_per_instr",
            measured_paper(ib_refs, paper::IB_REFS_PER_INSTR),
        ),
        (
            "ib_bytes_per_ref",
            measured_paper(
                if ib_refs > 0.0 {
                    avg_bytes / ib_refs
                } else {
                    0.0
                },
                paper::IB_BYTES_PER_REF,
            ),
        ),
        (
            "cache_read_misses_per_instr",
            measured_paper(
                ms.total_read_misses() as f64 / n,
                paper::CACHE_MISSES_PER_INSTR.0,
            ),
        ),
        (
            "cache_read_misses_istream_per_instr",
            measured_paper(ms.i_read_misses as f64 / n, paper::CACHE_MISSES_PER_INSTR.1),
        ),
        (
            "cache_read_misses_dstream_per_instr",
            measured_paper(
                (ms.d_read_misses + ms.pte_read_misses) as f64 / n,
                paper::CACHE_MISSES_PER_INSTR.2,
            ),
        ),
        (
            "tb_misses_per_instr",
            measured_paper(
                ms.total_tb_misses() as f64 / n,
                paper::TB_MISSES_PER_INSTR.0,
            ),
        ),
        (
            "tb_miss_service_cycles",
            measured_paper(
                if ms.total_tb_misses() > 0 {
                    a.tb_miss_cycles as f64 / ms.total_tb_misses() as f64
                } else {
                    0.0
                },
                paper::TB_MISS_SERVICE_CYCLES,
            ),
        ),
    ])
}

fn table8_json(a: &Analysis) -> Json {
    let class_key = crate::profile::class_key;
    let rows = Json::arr(Activity::ALL.iter().enumerate().map(|(i, act)| {
        let mut members: Vec<(String, Json)> =
            vec![("activity".to_string(), Json::from(act.name()))];
        for class in CycleClass::ALL {
            members.push((
                class_key(class).to_string(),
                Json::from(a.cell(*act, class)),
            ));
        }
        members.push(("total".to_string(), Json::from(a.row_total(*act))));
        members.push((
            "paper_total".to_string(),
            Json::from(paper::TABLE8_ROW_TOTALS[i]),
        ));
        Json::Obj(members)
    }));
    let mut totals: Vec<(String, Json)> = Vec::new();
    for (i, class) in CycleClass::ALL.iter().enumerate() {
        totals.push((
            class_key(*class).to_string(),
            measured_paper(a.col_total(*class), paper::TABLE8_COLUMN_TOTALS[i]),
        ));
    }
    Json::obj([
        ("rows", rows),
        ("column_totals", Json::Obj(totals)),
        ("cpi", measured_paper(a.cpi(), paper::TABLE8_CPI)),
    ])
}

fn table9_json(a: &Analysis) -> Json {
    let groups = a.group_percent();
    Json::arr(OpcodeGroup::ALL.iter().enumerate().filter_map(|(i, g)| {
        let freq = groups[i] / 100.0;
        if freq <= 0.0 {
            return None;
        }
        let act = Analysis::group_activity(*g);
        let mut total = 0.0;
        let mut members: Vec<(String, Json)> = vec![("group".to_string(), Json::from(g.name()))];
        for (key, class) in [
            ("compute", CycleClass::Compute),
            ("read", CycleClass::Read),
            ("read_stall", CycleClass::ReadStall),
            ("write", CycleClass::Write),
            ("write_stall", CycleClass::WriteStall),
        ] {
            let v = a.cell(act, class) / freq;
            total += v;
            members.push((key.to_string(), Json::from(v)));
        }
        members.push(("total".to_string(), Json::from(total)));
        members.push((
            "paper_total".to_string(),
            Json::from(paper::TABLE9_GROUP_TOTALS[i]),
        ));
        Some(Json::Obj(members))
    }))
}

/// Serialize Tables 1–9 plus the §4 implementation events.
pub fn tables_json(a: &Analysis) -> Json {
    Json::obj([
        ("instructions", Json::from(a.instructions)),
        ("cycles", Json::from(a.cycles)),
        ("cpi", measured_paper(a.cpi(), paper::TABLE8_CPI)),
        ("table1_opcode_groups", table1_json(a)),
        ("table2_pc_changing", table2_json(a)),
        ("table3_specifiers", table3_json(a)),
        ("table4_specifier_modes", table4_json(a)),
        ("table5_dstream_refs", table5_json(a)),
        ("table6_instruction_size", table6_json(a)),
        ("table7_headways", table7_json(a)),
        ("section4_events", events_json(a)),
        ("table8_instruction_timing", table8_json(a)),
        ("table9_group_timing", table9_json(a)),
    ])
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
        ("tables.json", tables_json(a).to_string_pretty()),
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
        let a = Analysis::new(&sys.cpu.cs, &m);
        let v = validate(&sys.cpu.cs, &m);
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
    fn tables_json_matches_analysis() {
        let (sys, m, _) = measured();
        let a = Analysis::new(&sys.cpu.cs, &m);
        let t = tables_json(&a);
        let cpi = t
            .get("cpi")
            .and_then(|v| v.get("measured"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((cpi - a.cpi()).abs() < 1e-12);
        let rows = t
            .get("table8_instruction_timing")
            .and_then(|v| v.get("rows"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(rows.len(), 14);
        let t1 = t
            .get("table1_opcode_groups")
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(t1.len(), 7);
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
