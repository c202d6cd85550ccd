//! Full-fidelity (workload, shard) cell codec for crash-safe resume.
//!
//! The run exporters ([`crate::export`]) are deliberately *lossy*
//! projections — totals without components, histogram summaries without
//! buckets — because they are read by humans and diff tooling. A resumable
//! run needs the opposite: every counter, every histogram bucket, and the
//! interval series of a completed cell, so that a `reproduce resume` can
//! merge checkpointed cells with freshly-run ones and export bytes
//! identical to an uninterrupted run.
//!
//! The interval series is stored via [`crate::export::timeseries_json`]
//! unchanged: a sample is already just the counters that export carries,
//! so the parsed series equals the journaled one. The measurement, by
//! contrast, feeds the analysis/validation pipeline and is stored in full.

use upc_monitor::{ControlStoreMap, Histogram, MicroPc, Plane};
use vax780::{Measurement, TimeSeries};
use vax_arch::Opcode;

use crate::export::{timeseries_from_json, timeseries_json};
use crate::json::Json;

/// Format version of cell checkpoints; bump on any schema change so a
/// resume never silently merges cells written by an older binary.
pub const CELL_FORMAT_VERSION: i64 = 1;

/// One completed grid cell, as journaled to `checkpoints/cell-<w>-<s>.json`.
#[derive(Debug, Clone)]
pub struct CheckpointCell {
    /// Workload index within the experiment's workload list.
    pub workload: u64,
    /// Shard index within the workload.
    pub shard: u64,
    /// The cell's full measurement (histogram included, bucket by bucket).
    pub m: Measurement,
    /// The cell's interval series.
    pub series: TimeSeries,
}

/// CpuStats scalar fields, in declaration order. One list shared by encode
/// and decode so the two cannot drift apart.
const CPU_SCALARS: [&str; 13] = [
    "instructions",
    "istream_bytes",
    "hw_interrupts",
    "sw_interrupts",
    "sw_interrupt_requests",
    "machine_checks",
    "context_switches",
    "exceptions",
    "spec1_count",
    "spec26_count",
    "spec1_quad_repeats",
    "spec26_quad_repeats",
    "branch_disps",
];

/// MemStats fields, in declaration order.
const MEM_FIELDS: [&str; 14] = [
    "d_reads",
    "d_read_misses",
    "d_writes",
    "d_write_hits",
    "i_reads",
    "i_read_misses",
    "tb_miss_d",
    "tb_miss_i",
    "unaligned_refs",
    "pte_reads",
    "pte_read_misses",
    "read_stall_cycles",
    "write_stall_cycles",
    "parity_faults",
];

fn cpu_scalar_values(m: &Measurement) -> [u64; 13] {
    let c = &m.cpu_stats;
    [
        c.instructions,
        c.istream_bytes,
        c.hw_interrupts,
        c.sw_interrupts,
        c.sw_interrupt_requests,
        c.machine_checks,
        c.context_switches,
        c.exceptions,
        c.spec1_count,
        c.spec26_count,
        c.spec1_quad_repeats,
        c.spec26_quad_repeats,
        c.branch_disps,
    ]
}

fn cpu_scalar_slots(m: &mut Measurement) -> [&mut u64; 13] {
    let c = &mut m.cpu_stats;
    [
        &mut c.instructions,
        &mut c.istream_bytes,
        &mut c.hw_interrupts,
        &mut c.sw_interrupts,
        &mut c.sw_interrupt_requests,
        &mut c.machine_checks,
        &mut c.context_switches,
        &mut c.exceptions,
        &mut c.spec1_count,
        &mut c.spec26_count,
        &mut c.spec1_quad_repeats,
        &mut c.spec26_quad_repeats,
        &mut c.branch_disps,
    ]
}

fn mem_field_values(m: &Measurement) -> [u64; 14] {
    let s = &m.mem_stats;
    [
        s.d_reads,
        s.d_read_misses,
        s.d_writes,
        s.d_write_hits,
        s.i_reads,
        s.i_read_misses,
        s.tb_miss_d,
        s.tb_miss_i,
        s.unaligned_refs,
        s.pte_reads,
        s.pte_read_misses,
        s.read_stall_cycles,
        s.write_stall_cycles,
        s.parity_faults,
    ]
}

fn mem_field_slots(m: &mut Measurement) -> [&mut u64; 14] {
    let s = &mut m.mem_stats;
    [
        &mut s.d_reads,
        &mut s.d_read_misses,
        &mut s.d_writes,
        &mut s.d_write_hits,
        &mut s.i_reads,
        &mut s.i_read_misses,
        &mut s.tb_miss_d,
        &mut s.tb_miss_i,
        &mut s.unaligned_refs,
        &mut s.pte_reads,
        &mut s.pte_read_misses,
        &mut s.read_stall_cycles,
        &mut s.write_stall_cycles,
        &mut s.parity_faults,
    ]
}

/// Serialize one completed cell.
pub fn cell_to_json(cell: &CheckpointCell) -> Json {
    let m = &cell.m;
    let cpu = Json::Obj(
        CPU_SCALARS
            .iter()
            .zip(cpu_scalar_values(m))
            .map(|(k, v)| (k.to_string(), Json::from(v)))
            .collect(),
    );
    let mem = Json::Obj(
        MEM_FIELDS
            .iter()
            .zip(mem_field_values(m))
            .map(|(k, v)| (k.to_string(), Json::from(v)))
            .collect(),
    );
    let opcodes = Json::arr(
        m.cpu_stats
            .opcode_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![Json::from(i as u64), Json::from(n)])),
    );
    let branch = |arr: &[u64; 10]| Json::arr(arr.iter().map(|&v| Json::from(v)));
    let hist = Json::arr(m.hist.nonzero().map(|(upc, plane, n)| {
        let p = match plane {
            Plane::Normal => 0u64,
            Plane::Stalled => 1,
        };
        Json::Arr(vec![Json::from(upc.0 as u64), Json::from(p), Json::from(n)])
    }));
    Json::obj([
        ("format_version", Json::Int(CELL_FORMAT_VERSION)),
        ("workload", Json::from(cell.workload)),
        ("shard", Json::from(cell.shard)),
        ("cycles", Json::from(m.cycles)),
        ("cpu_scalars", cpu),
        ("opcode_counts", opcodes),
        ("branch_executed", branch(&m.cpu_stats.branch_executed)),
        ("branch_taken", branch(&m.cpu_stats.branch_taken)),
        ("mem_stats", mem),
        ("histogram", hist),
        ("series", timeseries_json(&cell.series)),
    ])
}

/// Parse a cell checkpoint journaled by a run that reduces against `map`.
/// Any structural defect is an error, and the caller treats an unreadable
/// checkpoint as "cell not done" and re-runs it. Defects include a wrong
/// version, a missing field, an out-of-range index, a histogram µPC outside
/// `map`, a `(µPC, plane)` pair listed twice, and bucket counts that do not
/// sum to the cell's `cycles` (the first conservation invariant).
pub fn cell_from_json(j: &Json, map: &ControlStoreMap) -> Result<CheckpointCell, String> {
    let int = |j: &Json, key: &str| -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_i64)
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| format!("checkpoint: missing integer '{key}'"))
    };
    let version = j
        .get("format_version")
        .and_then(Json::as_i64)
        .ok_or("checkpoint: missing 'format_version'")?;
    if version != CELL_FORMAT_VERSION {
        return Err(format!(
            "checkpoint: format_version {version} (this binary writes {CELL_FORMAT_VERSION})"
        ));
    }
    let workload = int(j, "workload")?;
    let shard = int(j, "shard")?;
    let mut m = Measurement {
        cycles: int(j, "cycles")?,
        ..Measurement::default()
    };

    let cpu = j
        .get("cpu_scalars")
        .ok_or("checkpoint: missing 'cpu_scalars'")?;
    for (key, slot) in CPU_SCALARS.iter().zip(cpu_scalar_slots(&mut m)) {
        *slot = int(cpu, key)?;
    }
    let mem = j
        .get("mem_stats")
        .ok_or("checkpoint: missing 'mem_stats'")?;
    for (key, slot) in MEM_FIELDS.iter().zip(mem_field_slots(&mut m)) {
        *slot = int(mem, key)?;
    }

    let pairs = j
        .get("opcode_counts")
        .and_then(Json::as_arr)
        .ok_or("checkpoint: missing 'opcode_counts' array")?;
    for p in pairs {
        let pair = p
            .as_arr()
            .filter(|a| a.len() == 2)
            .ok_or("checkpoint: opcode_counts entry is not a pair")?;
        let idx = pair[0]
            .as_i64()
            .and_then(|v| usize::try_from(v).ok())
            .filter(|&i| i < Opcode::COUNT)
            .ok_or("checkpoint: opcode index out of range")?;
        let n = pair[1]
            .as_i64()
            .and_then(|v| u64::try_from(v).ok())
            .ok_or("checkpoint: opcode count is not a u64")?;
        m.cpu_stats.opcode_counts[idx] = n;
    }

    for (key, dest) in [
        ("branch_executed", &mut m.cpu_stats.branch_executed),
        ("branch_taken", &mut m.cpu_stats.branch_taken),
    ] {
        let arr = j
            .get(key)
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 10)
            .ok_or_else(|| format!("checkpoint: '{key}' is not a 10-element array"))?;
        for (slot, v) in dest.iter_mut().zip(arr) {
            *slot = v
                .as_i64()
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("checkpoint: '{key}' entry is not a u64"))?;
        }
    }

    // The board backs exactly the control store, so a µPC past it, which
    // the reduction could not attribute, is refused here rather than
    // panicking the reduction.
    let locations = map.len();
    let mut hist = Histogram::new(locations);
    let mut seen = vec![false; 2 * locations];
    let mut total = 0u64;
    hist.start();
    let triples = j
        .get("histogram")
        .and_then(Json::as_arr)
        .ok_or("checkpoint: missing 'histogram' array")?;
    for t in triples {
        let triple = t
            .as_arr()
            .filter(|a| a.len() == 3)
            .ok_or("checkpoint: histogram entry is not a triple")?;
        let upc = triple[0]
            .as_i64()
            .and_then(|v| u16::try_from(v).ok())
            .filter(|&upc| usize::from(upc) < locations)
            .ok_or_else(|| {
                format!("checkpoint: histogram µPC outside the {locations}-location control store")
            })?;
        let plane = match triple[1].as_i64() {
            Some(0) => Plane::Normal,
            Some(1) => Plane::Stalled,
            _ => return Err("checkpoint: histogram plane must be 0 or 1".to_string()),
        };
        let n = triple[2]
            .as_i64()
            .and_then(|v| u64::try_from(v).ok())
            .ok_or("checkpoint: histogram count is not a u64")?;
        let stalled = usize::from(plane == Plane::Stalled);
        if std::mem::replace(&mut seen[2 * usize::from(upc) + stalled], true) {
            return Err(format!(
                "checkpoint: histogram µPC {upc} plane {stalled} listed twice"
            ));
        }
        total = total
            .checked_add(n)
            .ok_or("checkpoint: histogram counts overflow")?;
        hist.record_n(MicroPc(upc), plane, n);
    }
    hist.stop();
    if total != m.cycles {
        return Err(format!(
            "checkpoint: histogram counts sum to {total}, not the cell's {} cycles",
            m.cycles
        ));
    }
    m.hist = hist;

    let series = timeseries_from_json(j.get("series").ok_or("checkpoint: missing 'series'")?)?;

    Ok(CheckpointCell {
        workload,
        shard,
        m,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax780::{ProcessSpec, SystemBuilder, SystemConfig};
    use vax_arch::Reg;
    use vax_asm::{Asm, Operand};

    fn map() -> ControlStoreMap {
        vax_cpu::ControlStore::new(&vax_cpu::CpuConfig::default()).map
    }

    fn measured_cell() -> CheckpointCell {
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
        let (m, series) = sys.measure_sampled(500, 4_000, 2_000);
        CheckpointCell {
            workload: 3,
            shard: 1,
            m,
            series,
        }
    }

    #[test]
    fn cell_roundtrips_measurement_exactly() {
        let cell = measured_cell();
        let j = cell_to_json(&cell);
        let text = j.to_string_pretty();
        let back = cell_from_json(&Json::parse(&text).unwrap(), &map()).unwrap();
        assert_eq!(back.workload, 3);
        assert_eq!(back.shard, 1);
        // Full fidelity: the measurement (histogram buckets included) is
        // reconstructed exactly, so analysis and validation of a resumed
        // composite see the same inputs as an uninterrupted run.
        assert_eq!(back.m, cell.m);
        // The series is its rows, so it round-trips exactly too.
        assert_eq!(back.series, cell.series);
    }

    #[test]
    fn cell_encoding_is_deterministic() {
        let cell = measured_cell();
        assert_eq!(
            cell_to_json(&cell).to_string_pretty(),
            cell_to_json(&cell).to_string_pretty()
        );
    }

    #[test]
    fn rejects_corrupt_cells() {
        let cell = measured_cell();
        let good = cell_to_json(&cell).to_string_pretty();
        // Wrong version.
        let j = Json::parse(&good.replacen("\"format_version\": 1", "\"format_version\": 99", 1))
            .unwrap();
        assert!(cell_from_json(&j, &map())
            .unwrap_err()
            .contains("format_version"));
        // Truncation is a parse error upstream of the codec.
        assert!(Json::parse(&good[..good.len() / 2]).is_err());
        // Missing field.
        let j = Json::parse(&good.replacen("\"cycles\"", "\"cycle_count\"", 1)).unwrap();
        assert!(cell_from_json(&j, &map()).unwrap_err().contains("cycles"));
    }
}
