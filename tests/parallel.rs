//! The sharded engine's headline guarantee, end to end: a parallel run
//! (`--jobs 4`) exports byte-identical artifacts to a serial run
//! (`--jobs 1`) of the same grid, because results are reduced in
//! `(workload, shard)` index order regardless of completion order.

use vax_analysis::RunManifest;
use vax_bench::cache::WarmCaches;
use vax_bench::cli::Options;
use vax_bench::jobspec::RunSpec;
use vax_bench::progress::{Progress, Verbosity};
use vax_bench::runner::{self, RunOutput};
use vax_trace::Tracer;

fn run_with_jobs(jobs: usize, shards: u64) -> (RunOutput, Vec<(&'static str, String)>) {
    let opts = Options {
        spec: RunSpec {
            instructions: 1_500,
            seed: 42,
            interval_cycles: 5_000,
            jobs: Some(jobs as u64),
            shards,
            ..RunSpec::default()
        },
        ..Options::default()
    };
    let out = runner::run_composite(
        &opts,
        &Progress::new(Verbosity::Quiet),
        &Tracer::disabled(),
        &WarmCaches::new(),
    );
    let manifest = RunManifest {
        experiment: opts.spec.experiment.clone(),
        seed: Some(opts.spec.seed),
        instructions: opts.spec.instructions,
        warmup: opts.spec.instructions / 10,
        interval_cycles: opts.spec.interval_cycles,
        shards: opts.spec.shards,
        config: "default VAX-11/780 configuration, 5-workload composite".to_string(),
        fault_seed: opts.spec.fault_seed,
        fault_classes: opts
            .spec
            .fault_classes
            .iter()
            .map(|c| c.name().to_string())
            .collect(),
        degraded: out.degraded,
        failed_cells: out
            .failed_cells
            .iter()
            .map(|(w, s)| (w.name().to_string(), *s))
            .collect(),
    };
    let files = vax_analysis::run_artifacts(&manifest, &out.analysis, &out.series, &out.validation);
    (out, files)
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let (serial, serial_files) = run_with_jobs(1, 2);
    let (parallel, parallel_files) = run_with_jobs(4, 2);

    assert_eq!(serial.per_workload, parallel.per_workload);
    assert_eq!(serial.analysis.m, parallel.analysis.m);
    assert_eq!(serial.series.to_csv(), parallel.series.to_csv());

    assert_eq!(serial_files.len(), parallel_files.len());
    for ((name_s, body_s), (name_p, body_p)) in serial_files.iter().zip(&parallel_files) {
        assert_eq!(name_s, name_p);
        assert_eq!(body_s, body_p, "{name_s} differs between --jobs 1 and 4");
    }
}

#[test]
fn sharded_grid_has_expected_shape() {
    let (out, _) = run_with_jobs(4, 2);
    assert_eq!(out.per_workload.len(), 5, "one CPI per workload");
    assert!(out.validation.is_clean());
    // Two shards of ~1500 instructions each, five workloads: the composite
    // measured roughly 15 000 instructions (interrupt dispatch makes each
    // shard land a few short or long of its budget).
    let n = out.analysis.m.instructions();
    assert!((14_000..16_000).contains(&n), "instructions {n}");
    // The spliced timeline covers every shard's cycles, in order.
    for w in out.series.samples.windows(2) {
        assert!(
            w[0].start_cycle <= w[1].start_cycle,
            "timeline out of order"
        );
    }
    assert_eq!(
        out.series.merged().instructions,
        n,
        "series conserves the composite's instructions"
    );
}

#[test]
fn shard_seeds_are_decorrelated() {
    use vax_workload::rte::shard_seed;
    let mut seen = std::collections::HashSet::new();
    for w in 0..5u64 {
        for s in 0..8u64 {
            assert!(
                seen.insert(shard_seed(1984, w, s)),
                "collision at ({w},{s})"
            );
        }
    }
    // Shard 0 of workload 0 is not the root seed itself: every cell goes
    // through the SplitMix64 finalizer.
    assert_ne!(shard_seed(1984, 0, 0), 1984);
}
