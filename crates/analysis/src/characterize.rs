//! Per-opcode characterization: run directed probe loops, attribute the
//! marginal cost of one instruction from histogram deltas, and codec the
//! resulting cost table.
//!
//! The paper's Table 9 gives per-*group* average costs over whole
//! workloads; this module produces the uops.info-style fine-grained
//! version: one record per opcode × addressing-mode grid cell, each
//! carrying total cycles, the compute/stall split by [`CycleClass`], and
//! per-[`Activity`] occupancy. Attribution is differential: a probe loop
//! with `reps` copies of the probed instruction is measured over an exact
//! number of iterations, an identical scaffold with zero copies is
//! measured the same way, and every quantity is
//! `(probe − baseline) / (iters × reps)`.
//!
//! Because the probe and baseline loops have different I-stream footprints
//! the IB-prefetch stall pattern does not subtract perfectly; deltas are
//! therefore carried as *signed* floats (a tiny negative IB-stall residue
//! is honest, not a bug). Everything else is conserved exactly — the
//! refutation pass ([`crate::refute`]) leans on that.

use upc_monitor::{Activity, CycleClass};
use vax780::{CancelKind, CancelToken, Measurement, Stop};
use vax_arch::{AddressingMode, Opcode};
use vax_asm::probe::{mode_from_key, mode_key, probe_grid, probe_loop, ProbeLoop, ProbeTarget};
use vax_asm::AsmError;
use vax_workload::probe_system;

pub use crate::analysis::reduce_matrix;
use crate::json::Json;
use crate::validate::{validate, ValidationReport};

/// Default warmup instructions (enough to drain the boot path and fill
/// the TB, cache, and decode cache).
pub const DEFAULT_WARMUP: u64 = 2000;

/// The cost-table schema identifier.
pub const SCHEMA: &str = "vax-characterize/v1";

/// One probe (or baseline) execution, already reduced against the control
/// store that produced it, so the system itself never leaves the worker
/// that built it.
#[derive(Debug, Clone)]
pub struct ProbeRun {
    /// The assembled loop.
    pub probe: ProbeLoop,
    /// Measured loop iterations.
    pub iters: u64,
    /// The raw measurement.
    pub m: Measurement,
    /// Histogram cycles by `Activity::ALL` × `CycleClass::ALL` cell.
    pub matrix: [[u64; 6]; 14],
    /// The eight conserved-invariant cross-checks, run while the control
    /// store was still in reach (the refutation pass consumes these).
    pub validation: ValidationReport,
}

/// Why [`run_probe`] returned no run.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeError {
    /// The probe loop did not assemble.
    Asm(AsmError),
    /// The job's token stopped the machine.
    Canceled(CancelKind),
}

impl From<AsmError> for ProbeError {
    fn from(e: AsmError) -> ProbeError {
        ProbeError::Asm(e)
    }
}

/// Assemble, boot, warm up, and measure one probe loop (`target` =
/// `None` for the baseline scaffold) over exactly `iters` loop
/// iterations, and reduce the histogram while the control store is still
/// in reach. The machine reads `stop` every 2,048 steps, as a run cell's
/// does, so a probe of any length ends soon after its job is canceled.
///
/// # Errors
/// Propagates assembler errors, and returns the token's cause when it
/// stopped the machine.
///
/// # Panics
/// Panics if `iters` loop periods overflow a `u64` instruction count (a
/// spec's `iters` bound keeps every probe it accepts well inside it).
pub fn run_probe(
    target: Option<&ProbeTarget>,
    reps: u32,
    iters: u64,
    warmup: u64,
    stop: &CancelToken,
) -> Result<ProbeRun, ProbeError> {
    let probe = probe_loop(target, reps)?;
    let mut sys = probe_system(&probe);
    sys.set_stop(stop.clone(), None);
    let measured = iters
        .checked_mul(u64::from(probe.period))
        .expect("a probe's measured length fits in a u64");
    let m = sys.measure(warmup, measured);
    if let Some(Stop::Canceled(kind)) = sys.stopped() {
        return Err(ProbeError::Canceled(kind));
    }
    let matrix = reduce_matrix(sys.cpu.cs, &m);
    let validation = validate(sys.cpu.cs, &m);
    Ok(ProbeRun {
        probe,
        iters,
        m,
        matrix,
        validation,
    })
}

/// The attributed marginal cost of one probed instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRecord {
    /// Probed opcode.
    pub opcode: Opcode,
    /// Probed addressing mode.
    pub mode: AddressingMode,
    /// Specifier position carrying the probed mode.
    pub operand: usize,
    /// Total cycles per instruction.
    pub cycles: f64,
    /// Cycles by [`CycleClass`], `ALL` order.
    pub classes: [f64; 6],
    /// Cycles by [`Activity`], `ALL` order.
    pub activities: [f64; 14],
    /// I-stream bytes per instruction.
    pub istream_bytes: f64,
    /// Data-stream reads per instruction.
    pub d_reads: f64,
    /// Data-stream writes per instruction.
    pub d_writes: f64,
}

impl CostRecord {
    /// Compute cycles (the paper's "µcode" time): everything that is not
    /// a stall.
    pub fn compute_cycles(&self) -> f64 {
        self.classes[CycleClass::Compute.index()]
            + self.classes[CycleClass::Read.index()]
            + self.classes[CycleClass::Write.index()]
    }

    /// Stall cycles: read + write + IB stalls.
    pub fn stall_cycles(&self) -> f64 {
        self.classes[CycleClass::ReadStall.index()]
            + self.classes[CycleClass::WriteStall.index()]
            + self.classes[CycleClass::IbStall.index()]
    }
}

/// Signed per-instruction delta between a probe run and the shared
/// baseline run: `(probe − baseline) / (iters × reps)`.
pub fn attribute(target: &ProbeTarget, probe: &ProbeRun, baseline: &ProbeRun) -> CostRecord {
    assert_eq!(
        probe.iters, baseline.iters,
        "probe and baseline must measure the same iteration count"
    );
    let denom = (probe.iters * u64::from(probe.probe.reps)) as f64;
    let d = |p: u64, b: u64| (p as i64 - b as i64) as f64 / denom;

    let mut classes = [0.0; 6];
    let mut activities = [0.0; 14];
    for (ai, row) in probe.matrix.iter().enumerate() {
        for (ci, &c) in row.iter().enumerate() {
            let delta = d(c, baseline.matrix[ai][ci]);
            classes[ci] += delta;
            activities[ai] += delta;
        }
    }
    CostRecord {
        opcode: target.opcode,
        mode: target.mode,
        operand: target.operand,
        cycles: d(probe.m.cycles, baseline.m.cycles),
        classes,
        activities,
        istream_bytes: d(
            probe.m.cpu_stats.istream_bytes,
            baseline.m.cpu_stats.istream_bytes,
        ),
        d_reads: d(probe.m.mem_stats.d_reads, baseline.m.mem_stats.d_reads),
        d_writes: d(probe.m.mem_stats.d_writes, baseline.m.mem_stats.d_writes),
    }
}

/// A skipped grid cell and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipRecord {
    /// The opcode row.
    pub opcode: Opcode,
    /// The addressing-mode column.
    pub mode: AddressingMode,
    /// Human-readable skip reason.
    pub reason: String,
}

/// The complete instruction-cost table.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    /// Probe copies per iteration.
    pub reps: u32,
    /// Measured loop iterations.
    pub iters: u64,
    /// Warmup instructions.
    pub warmup: u64,
    /// Baseline scaffold cycles per instruction.
    pub baseline_cpi: f64,
    /// Baseline code bytes per iteration.
    pub baseline_loop_bytes: u32,
    /// Attributed records, grid order.
    pub records: Vec<CostRecord>,
    /// Skipped cells, grid order.
    pub skips: Vec<SkipRecord>,
}

impl CostTable {
    /// Look up a record by mnemonic and mode key.
    pub fn find(&self, mnemonic: &str, mode: AddressingMode) -> Option<&CostRecord> {
        self.records
            .iter()
            .find(|r| r.opcode.mnemonic() == mnemonic && r.mode == mode)
    }
}

/// The grid cells an opcode/mode filter selects, in grid order (empty
/// filters select everything): what `select_grid` and `--list` walk.
pub fn filtered_grid<'a>(
    opcodes: &'a [Opcode],
    modes: &'a [AddressingMode],
) -> impl Iterator<Item = vax_asm::probe::GridCell> + 'a {
    probe_grid().into_iter().filter(move |cell| {
        (opcodes.is_empty() || opcodes.contains(&cell.opcode))
            && (modes.is_empty() || modes.contains(&cell.mode))
    })
}

/// The targets (and skips) of [`filtered_grid`], in grid order.
pub fn select_grid(
    opcodes: &[Opcode],
    modes: &[AddressingMode],
) -> (Vec<ProbeTarget>, Vec<SkipRecord>) {
    let mut targets = Vec::new();
    let mut skips = Vec::new();
    for cell in filtered_grid(opcodes, modes) {
        match cell.target {
            Ok(t) => targets.push(t),
            Err(r) => skips.push(SkipRecord {
                opcode: cell.opcode,
                mode: cell.mode,
                reason: r.describe().to_string(),
            }),
        }
    }
    (targets, skips)
}

fn record_json(r: &CostRecord) -> Json {
    let classes = Json::obj(
        CycleClass::ALL
            .iter()
            .zip(r.classes.iter())
            .map(|(c, &v)| (c.key(), Json::Num(v))),
    );
    // Only nonzero activity rows: most cells touch a handful of the 14.
    let activities = Json::obj(
        Activity::ALL
            .iter()
            .zip(r.activities.iter())
            .filter(|(_, &v)| v != 0.0)
            .map(|(a, &v)| (a.name(), Json::Num(v))),
    );
    Json::obj([
        ("opcode", Json::Str(r.opcode.mnemonic().to_string())),
        ("mode", Json::Str(mode_key(r.mode).to_string())),
        ("operand", Json::Int(r.operand as i64)),
        ("cycles", Json::Num(r.cycles)),
        ("classes", classes),
        ("activities", activities),
        ("istream_bytes", Json::Num(r.istream_bytes)),
        ("d_reads", Json::Num(r.d_reads)),
        ("d_writes", Json::Num(r.d_writes)),
    ])
}

/// Serialize a cost table (pretty, stable member order — byte-identical
/// for identical inputs).
pub fn costs_json(t: &CostTable) -> String {
    let mut s = Json::obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("reps", Json::Int(i64::from(t.reps))),
        ("iters", Json::Int(t.iters as i64)),
        ("warmup", Json::Int(t.warmup as i64)),
        (
            "baseline",
            Json::obj([
                ("cycles_per_insn", Json::Num(t.baseline_cpi)),
                ("loop_bytes", Json::Int(i64::from(t.baseline_loop_bytes))),
            ]),
        ),
        ("records", Json::arr(t.records.iter().map(record_json))),
        (
            "skips",
            Json::arr(t.skips.iter().map(|s| {
                Json::obj([
                    ("opcode", Json::Str(s.opcode.mnemonic().to_string())),
                    ("mode", Json::Str(mode_key(s.mode).to_string())),
                    ("reason", Json::Str(s.reason.clone())),
                ])
            })),
        ),
    ])
    .to_string_pretty();
    s.push('\n');
    s
}

fn parse_f64(j: &Json, ctx: &str, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: missing or non-numeric '{key}'"))
}

fn parse_record(j: &Json, i: usize) -> Result<CostRecord, String> {
    let ctx = format!("record {i}");
    let mnemonic = j
        .get("opcode")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing 'opcode'"))?;
    let opcode = Opcode::from_mnemonic(mnemonic)
        .ok_or_else(|| format!("{ctx}: unknown opcode '{mnemonic}'"))?;
    let mode_s = j
        .get("mode")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: missing 'mode'"))?;
    let mode = mode_from_key(mode_s).ok_or_else(|| format!("{ctx}: unknown mode '{mode_s}'"))?;
    let operand = j
        .get("operand")
        .and_then(Json::as_i64)
        .ok_or_else(|| format!("{ctx}: missing 'operand'"))? as usize;
    let classes_j = j
        .get("classes")
        .ok_or_else(|| format!("{ctx}: missing 'classes'"))?;
    let mut classes = [0.0; 6];
    for (slot, class) in classes.iter_mut().zip(CycleClass::ALL) {
        *slot = parse_f64(classes_j, &ctx, class.key())?;
    }
    let mut activities = [0.0; 14];
    if let Some(acts) = j.get("activities") {
        for (slot, a) in activities.iter_mut().zip(Activity::ALL.iter()) {
            if let Some(v) = acts.get(a.name()).and_then(Json::as_f64) {
                *slot = v;
            }
        }
    }
    Ok(CostRecord {
        opcode,
        mode,
        operand,
        cycles: parse_f64(j, &ctx, "cycles")?,
        classes,
        activities,
        istream_bytes: parse_f64(j, &ctx, "istream_bytes")?,
        d_reads: parse_f64(j, &ctx, "d_reads")?,
        d_writes: parse_f64(j, &ctx, "d_writes")?,
    })
}

/// Parse a cost table back from its JSON text.
///
/// # Errors
/// Returns a message locating the first structural problem.
pub fn costs_from_json(text: &str) -> Result<CostTable, String> {
    let doc = Json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema'")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema '{schema}' (want '{SCHEMA}')"));
    }
    let int = |key: &str| {
        doc.get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("missing or non-integer '{key}'"))
    };
    let baseline = doc.get("baseline").ok_or("missing 'baseline'")?;
    let mut records = Vec::new();
    for (i, r) in doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("missing 'records' array")?
        .iter()
        .enumerate()
    {
        records.push(parse_record(r, i)?);
    }
    let mut skips = Vec::new();
    for (i, s) in doc
        .get("skips")
        .and_then(Json::as_arr)
        .ok_or("missing 'skips' array")?
        .iter()
        .enumerate()
    {
        let ctx = format!("skip {i}");
        let mnemonic = s
            .get("opcode")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing 'opcode'"))?;
        let opcode = Opcode::from_mnemonic(mnemonic)
            .ok_or_else(|| format!("{ctx}: unknown opcode '{mnemonic}'"))?;
        let mode_s = s
            .get("mode")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing 'mode'"))?;
        let mode =
            mode_from_key(mode_s).ok_or_else(|| format!("{ctx}: unknown mode '{mode_s}'"))?;
        let reason = s
            .get("reason")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: missing 'reason'"))?
            .to_string();
        skips.push(SkipRecord {
            opcode,
            mode,
            reason,
        });
    }
    Ok(CostTable {
        reps: int("reps")? as u32,
        iters: int("iters")? as u64,
        warmup: int("warmup")? as u64,
        baseline_cpi: parse_f64(baseline, "baseline", "cycles_per_insn")?,
        baseline_loop_bytes: baseline
            .get("loop_bytes")
            .and_then(Json::as_i64)
            .ok_or("baseline: missing 'loop_bytes'")? as u32,
        records,
        skips,
    })
}

/// Render the human-readable companion table (`costs.md`).
pub fn costs_markdown(t: &CostTable) -> String {
    let mut out = String::new();
    out.push_str("# Instruction-cost table\n\n");
    out.push_str(&format!(
        "Per-instruction marginal costs from directed probe loops \
         ({} probe cop{} × {} iterations per cell, warmup {}; baseline \
         scaffold {:.2} cycles/instruction). Cycles split by the µPC \
         histogram's cycle classes; a small negative IB-stall residue \
         reflects the probe/baseline I-stream footprint difference.\n\n",
        t.reps,
        if t.reps == 1 { "y" } else { "ies" },
        t.iters,
        t.warmup,
        t.baseline_cpi,
    ));
    out.push_str("| opcode | mode | cycles | compute | stall | I-bytes | D-reads | D-writes |\n");
    out.push_str("|---|---|---:|---:|---:|---:|---:|---:|\n");
    for r in &t.records {
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
            r.opcode.mnemonic(),
            mode_key(r.mode),
            r.cycles,
            r.compute_cycles(),
            r.stall_cycles(),
            r.istream_bytes,
            r.d_reads,
            r.d_writes,
        ));
    }
    if !t.skips.is_empty() {
        out.push_str(&format!(
            "\n{} grid cell(s) skipped (see `costs.json` for the full list).\n",
            t.skips.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_table() -> CostTable {
        let (targets, skips) = select_grid(
            &[Opcode::Movl],
            &[AddressingMode::Register, AddressingMode::Literal],
        );
        let baseline = run_probe(None, 0, 16, DEFAULT_WARMUP, &CancelToken::default()).unwrap();
        let baseline_cpi = baseline.m.cycles as f64 / baseline.m.instructions() as f64;
        let records = targets
            .iter()
            .map(|t| {
                let p = run_probe(Some(t), 4, 16, DEFAULT_WARMUP, &CancelToken::default()).unwrap();
                attribute(t, &p, &baseline)
            })
            .collect();
        CostTable {
            reps: 4,
            iters: 16,
            warmup: DEFAULT_WARMUP,
            baseline_cpi,
            baseline_loop_bytes: baseline.probe.loop_bytes,
            records,
            skips,
        }
    }

    #[test]
    fn attribution_is_sane_for_register_movl() {
        let t = tiny_table();
        let r = t.find("MOVL", AddressingMode::Register).unwrap();
        // A register-to-register MOVL costs a handful of cycles, touches
        // no data stream, and occupies decode + spec + execute.
        assert!(r.cycles > 0.5 && r.cycles < 20.0, "cycles = {}", r.cycles);
        assert!(r.d_reads.abs() < 0.01, "d_reads = {}", r.d_reads);
        assert!(r.d_writes.abs() < 0.01, "d_writes = {}", r.d_writes);
        // Class split sums to total cycles (same histogram, same delta).
        let split: f64 = r.classes.iter().sum();
        assert!((split - r.cycles).abs() < 1e-9, "{split} vs {}", r.cycles);
        let by_act: f64 = r.activities.iter().sum();
        assert!((by_act - r.cycles).abs() < 1e-9);
        // I-stream: opcode + register specifier + register specifier = 3.
        assert!((r.istream_bytes - 3.0).abs() < 0.01);
    }

    #[test]
    fn cost_table_json_round_trips() {
        let t = tiny_table();
        let text = costs_json(&t);
        let back = costs_from_json(&text).unwrap();
        assert_eq!(back, t);
        // Re-serialization is byte-identical (the diff gate relies on it).
        assert_eq!(costs_json(&back), text);
    }

    #[test]
    fn markdown_mentions_every_record() {
        let t = tiny_table();
        let md = costs_markdown(&t);
        for r in &t.records {
            assert!(md.contains(r.opcode.mnemonic()));
        }
    }

    #[test]
    fn select_grid_filters_and_reports_skips() {
        let (targets, skips) = select_grid(&[Opcode::Clrl], &[]);
        // CLRL probes every mode except literal/immediate (write-only).
        assert_eq!(targets.len(), 14);
        assert_eq!(skips.len(), 2);
        assert!(skips.iter().all(|s| s.reason.contains("read")));
    }

    #[test]
    fn bad_json_is_rejected_with_context() {
        assert!(costs_from_json("{}").unwrap_err().contains("schema"));
        let err = costs_from_json(&format!(
            r#"{{"schema":"{SCHEMA}","reps":1,"iters":1,"warmup":0,
                "baseline":{{"cycles_per_insn":1.0,"loop_bytes":24}},
                "records":[{{"opcode":"NOPE","mode":"register"}}],"skips":[]}}"#
        ))
        .unwrap_err();
        assert!(err.contains("unknown opcode"), "{err}");
    }
}
