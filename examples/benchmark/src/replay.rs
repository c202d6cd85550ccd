//! The traced replay: one job's worth of the engine's work, redone call by
//! call through the same public functions, with a benchmark span around
//! each layer. Its outputs must be byte-identical to the engine's, so the
//! per-layer times describe the computation the engine actually does.
//!
//! A run spec replays per cell `shard_processes` → `boot_image` →
//! `System::from_boot_image` → `measure_sampled`, then `merge_ordered` →
//! `Analysis::new` → `validate` → the JSON exports. A characterize spec
//! replays per probe cell `probe_loop` → `SystemBuilder::build_image` →
//! `System::from_boot_image` → `measure` → `reduce_matrix` → `validate` →
//! `attribute`, then the merge of every cell's counters and `costs_json`.
//!
//! The replay mirrors `vax_bench::runner` and `vax_bench::charrun` call for
//! call, so a change to either pipeline must be made here too. Two checks
//! catch a replay that has fallen behind: its output must match the
//! engine's byte for byte, and its simulation time must stay within 10% of
//! the engine's own `simulate` (per-cell `probe` for characterize) phase
//! time, measured alternately with it.

use upc_monitor::CycleClass;
use vax780::{
    merge_ordered, FaultPlan, Measurement, ProcessSpec, System, SystemBuilder, TimeSeries,
};
use vax_analysis::characterize::reduce_matrix;
use vax_analysis::{
    attribute, costs_json, costs_markdown, measurement_json, tables_json, timeseries_json,
    validate, Analysis, CostRecord, CostTable, ProbeRun, Profile,
};
use vax_asm::probe::{mode_key, probe_loop, ProbeTarget};
use vax_bench::jobspec::{ProbeSpec, RunSpec};
use vax_cpu::{ControlStore, CpuConfig, DecodeCacheStats, SharedFlightRecorder};
use vax_workload::rte::{boot_image, shard_processes, shard_seed, PROCESSES_PER_WORKLOAD};
use vax_workload::{quiesced_config, Workload};

use crate::spans::Recorder;
use crate::workloads::probe_targets;

/// What a replay measured besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    /// Span index of the replay's root.
    pub root: usize,
    pub cells: u64,
    /// Simulated steps, warm-up included.
    pub steps: u64,
    /// Simulated cycles since boot, warm-up included.
    pub cycles: u64,
    pub icache: DecodeCacheStats,
    pub samples: u64,
    pub sample_bytes: u64,
    pub export_bytes: u64,
    /// Every cell's measured interval, merged.
    pub measured: Measurement,
    /// IB-stall cycles of `measured` (Table 8 column).
    pub ib_stall_cycles: u64,
    /// `measurement.json` as the replay serializes it (run specs).
    pub measurement_json: String,
    /// Replayed cost records (characterize), grid order.
    pub records: Vec<CostRecord>,
    /// Cells whose eight conservation invariants did not all hold.
    pub unclean_cells: u64,
}

impl Replay {
    /// The simulated work and output sizes, which repeat exactly for one
    /// spec.
    pub fn counts(&self) -> [u64; 9] {
        [
            self.cells,
            self.steps,
            self.cycles,
            self.icache.hits,
            self.icache.misses,
            self.icache.flushes,
            self.samples,
            self.sample_bytes,
            self.export_bytes,
        ]
    }

    /// Add the per-cell counts of another part of the same replay.
    fn add(&mut self, part: &Replay) {
        self.cells += part.cells;
        self.steps += part.steps;
        self.cycles += part.cycles;
        add_icache(&mut self.icache, part.icache);
        self.samples += part.samples;
        self.ib_stall_cycles += part.ib_stall_cycles;
        self.unclean_cells += part.unclean_cells;
    }
}

fn add_icache(total: &mut DecodeCacheStats, d: DecodeCacheStats) {
    total.hits += d.hits;
    total.misses += d.misses;
    total.flushes += d.flushes;
}

/// Run `cell` over `items` on `workers` threads, as the engine's pool runs
/// a grid: concurrent cells contend for the memory system, so one thread
/// alone would time each cell faster than the engine does. Each thread
/// records into a fork of `rec`; the results come back in item order and
/// the threads' counts are added to `out`.
fn on_workers<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    rec: &mut Recorder,
    out: &mut Replay,
    cell: impl Fn(&T, &mut Recorder, &mut Replay) -> R + Sync,
) -> Vec<R> {
    let workers = workers.max(1);
    let parts = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut wrec = rec.fork();
                let cell = &cell;
                scope.spawn(move || {
                    let mut part = Replay::default();
                    let done: Vec<(usize, R)> = (w..items.len())
                        .step_by(workers)
                        .map(|i| (i, cell(&items[i], &mut wrec, &mut part)))
                        .collect();
                    (wrec, part, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut results = Vec::with_capacity(items.len());
    for (wrec, part, done) in parts {
        rec.adopt(wrec);
        out.add(&part);
        results.extend(done);
    }
    results.sort_by_key(|r| r.0);
    results.into_iter().map(|r| r.1).collect()
}

/// Replay a measurement run, its cells on `workers` threads.
pub fn run(spec: &RunSpec, workers: usize, rec: &mut Recorder) -> Replay {
    let mut out = Replay::default();
    rec.begin("replay", None);
    out.root = rec.last("replay").expect("replay span is open");
    let n = spec.instructions;
    let grid: Vec<(usize, Workload, u64)> = Workload::ALL
        .iter()
        .enumerate()
        .flat_map(|(w, &workload)| (0..spec.shards).map(move |s| (w, workload, s)))
        .collect();
    let cells = on_workers(
        workers,
        &grid,
        rec,
        &mut out,
        |&(w, workload, s), rec, part| {
            rec.begin("cell", Some(&format!("{}/{s}", workload.name())));
            let seed = shard_seed(spec.seed, w as u64, s);
            let specs = rec.time("codegen", || {
                shard_processes(workload, PROCESSES_PER_WORKLOAD, seed)
            });
            let img = rec.time("boot", || boot_image(specs.clone()));
            let mut sys = rec.time("rehydrate", || {
                let mut sys = System::from_boot_image(&img);
                if spec.flight_recorder > 0 {
                    sys.cpu.flight =
                        SharedFlightRecorder::with_capacity(spec.flight_recorder as usize);
                }
                if let Some(fault_seed) = spec.fault_seed {
                    let plan =
                        FaultPlan::generate(fault_seed, w, s as usize, n, &spec.fault_classes);
                    sys.install_fault_plan(plan);
                }
                sys
            });
            let cell = rec.time("measure", || {
                sys.measure_sampled(n / 10, n, spec.interval_cycles)
            });
            rec.end();
            part.cells += 1;
            add_icache(&mut part.icache, sys.cpu.decode_cache_stats());
            part.steps += n / 10 + cell.0.instructions();
            part.cycles += sys.cpu.cycle;
            part.samples += cell.1.samples.len() as u64;
            (cell, (specs, img))
        },
    );
    // The engine's warm caches keep every cell's process specs and boot
    // image until the job ends; so does the replay, so that its cells
    // allocate their machines among the same live memory.
    let (cells, kept): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
    let shards = spec.shards as usize;
    let (composite, series) = rec.time("merge", || {
        let mut composite = Measurement::default();
        let mut series = TimeSeries::default();
        let mut offset = 0u64;
        for part in cells.chunks(shards) {
            let merged: Measurement = merge_ordered(part.iter().map(|c| &c.0));
            for (m, s) in part {
                series.splice(offset, s);
                offset += m.cycles;
            }
            composite.merge(&merged);
        }
        (composite, series)
    });
    let (cs, analysis) = rec.time("reduce", || {
        let cs = ControlStore::new(&CpuConfig::default());
        let analysis = Analysis::new(&cs, &composite);
        (cs, analysis)
    });
    let validation = rec.time("validate", || validate(&cs, &composite));
    let mut files = rec.time("export", || {
        let mut files = vec![
            measurement_json(&analysis.m).to_string_pretty(),
            tables_json(&analysis).to_string_pretty(),
            timeseries_json(&series).to_string_pretty(),
            series.to_csv(),
            validation.to_json().to_string_pretty(),
        ];
        if spec.profile {
            let profile = Profile::new(&cs.map, &analysis.m.hist);
            files.push(profile.folded());
            files.push(profile.to_json().to_string_pretty());
        }
        files
    });
    rec.end();
    out.unclean_cells = u64::from(!validation.is_clean());
    out.sample_bytes = (files[2].len() + files[3].len()) as u64;
    out.export_bytes = files.iter().map(|f| f.len() as u64).sum();
    out.ib_stall_cycles =
        (analysis.col_total(CycleClass::IbStall) * analysis.instructions as f64).round() as u64;
    out.measurement_json = files.swap_remove(0);
    out.measured = composite;
    drop(kept);
    out
}

/// Replay every `stride`-th cell of a characterize grid on `workers`
/// threads, after the shared baseline every cell is attributed against,
/// which the engine measures first and alone.
pub fn probes(spec: &ProbeSpec, stride: usize, workers: usize, rec: &mut Recorder) -> Replay {
    let mut out = Replay::default();
    rec.begin("replay", None);
    out.root = rec.last("replay").expect("replay span is open");
    let reps = spec.reps as u32;
    rec.begin("cell", Some("baseline"));
    let baseline = probe_cell(spec, rec, &mut out, None, 0);
    rec.end();
    let targets: Vec<ProbeTarget> = probe_targets(spec).into_iter().step_by(stride).collect();
    let cells = on_workers(workers, &targets, rec, &mut out, |target, rec, part| {
        let id = format!("{} {}", target.opcode.mnemonic(), mode_key(target.mode));
        rec.begin("cell", Some(&id));
        let run = probe_cell(spec, rec, part, Some(target), reps);
        let record = rec.time("attribute", || attribute(target, &run, &baseline));
        rec.end();
        (run.m, record)
    });
    let mut runs = vec![baseline.m.clone()];
    for (m, record) in cells {
        runs.push(m);
        out.records.push(record);
    }
    out.measured = rec.time("merge", || merge_ordered(runs.iter()));
    let files = rec.time("export", || {
        let table = CostTable {
            reps,
            iters: spec.iters,
            warmup: spec.warmup,
            baseline_cpi: baseline.m.cycles as f64 / baseline.m.instructions().max(1) as f64,
            baseline_loop_bytes: baseline.probe.loop_bytes,
            records: out.records.clone(),
            skips: Vec::new(),
        };
        [costs_json(&table), costs_markdown(&table)]
    });
    rec.end();
    out.export_bytes = files.iter().map(|f| f.len() as u64).sum();
    out
}

/// One probe cell (`target` = `None` for the baseline scaffold).
fn probe_cell(
    spec: &ProbeSpec,
    rec: &mut Recorder,
    out: &mut Replay,
    target: Option<&ProbeTarget>,
    reps: u32,
) -> ProbeRun {
    let probe = rec.time("codegen", || {
        probe_loop(target, reps).expect("grid probes assemble")
    });
    let img = rec.time("boot", || {
        let mut b = SystemBuilder::new(quiesced_config());
        b.add_process(ProcessSpec::new(probe.image.clone(), "entry"));
        b.build_image()
    });
    let mut sys = rec.time("rehydrate", || System::from_boot_image(&img));
    let measured = spec.iters * u64::from(probe.period);
    let m = rec.time("measure", || sys.measure(spec.warmup, measured));
    let matrix = rec.time("reduce", || reduce_matrix(&sys.cpu.cs, &m));
    let validation = rec.time("validate", || validate(&sys.cpu.cs, &m));
    add_icache(&mut out.icache, sys.cpu.decode_cache_stats());
    out.steps += spec.warmup + m.instructions();
    out.cycles += sys.cpu.cycle;
    out.ib_stall_cycles += matrix
        .iter()
        .map(|row| row[CycleClass::IbStall.index()])
        .sum::<u64>();
    out.unclean_cells += u64::from(!validation.is_clean());
    out.cells += 1;
    ProbeRun {
        probe,
        iters: spec.iters,
        m,
        matrix,
        validation,
    }
}

/// One cost record exactly as `costs_json` renders it inside a table, so
/// the engine's `costs.json` can be searched for it byte for byte (parsing
/// the whole table back is far slower than the replay itself).
pub fn record_text(r: &CostRecord) -> String {
    let one = CostTable {
        reps: 0,
        iters: 0,
        warmup: 0,
        baseline_cpi: 0.0,
        baseline_loop_bytes: 0,
        records: vec![r.clone()],
        skips: Vec::new(),
    };
    let text = costs_json(&one);
    let open = text
        .find("\"records\": [")
        .map_or(0, |i| i + "\"records\": [".len());
    let close = text.find("\"skips\"").unwrap_or(text.len());
    text[open..close]
        .trim_end()
        .trim_end_matches(',')
        .trim_end()
        .trim_end_matches(']')
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::{AddressingMode, Opcode};

    fn record(opcode: Opcode, cycles: f64) -> CostRecord {
        CostRecord {
            opcode,
            mode: AddressingMode::Register,
            operand: 0,
            cycles,
            classes: [cycles, 0.0, 0.0, 0.0, 0.0, 0.0],
            activities: [0.0; 14],
            istream_bytes: 3.0,
            d_reads: 0.0,
            d_writes: 0.0,
        }
    }

    #[test]
    fn record_text_finds_exactly_the_records_of_a_table() {
        let table = CostTable {
            reps: 8,
            iters: 64,
            warmup: 2000,
            baseline_cpi: 4.5,
            baseline_loop_bytes: 20,
            records: vec![record(Opcode::Movl, 1.25), record(Opcode::Addl2, 2.0)],
            skips: Vec::new(),
        };
        let text = costs_json(&table);
        for r in &table.records {
            assert!(text.contains(&record_text(r)), "{}", record_text(r));
        }
        assert!(!text.contains(&record_text(&record(Opcode::Movl, 1.5))));
        assert!(!text.contains(&record_text(&record(Opcode::Clrl, 1.25))));
    }
}
