//! One run's results: metrics, correctness checks, and their two outputs
//! (the printed ledger ending in the one-line JSON result, and the full
//! `--json` record that compare mode reads).

use std::collections::BTreeMap;

use vax_analysis::Json;

use crate::stats::{median, quartiles};

/// Metrics a user of the system sees; every untraced run reports each.
/// `(name, unit, better, bound)` — BENCHMARK.json carries the same list.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("job_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.08),
];

/// Layer metrics; every traced run reports each. `(name, unit, better)`;
/// README.md maps each to the end-to-end metric and workload it should move.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workload.codegen.ms_per_cell", "ms", "lower"),
    ("workload.boot.ms_per_cell", "ms", "lower"),
    ("core.rehydrate.ms_per_cell", "ms", "lower"),
    ("core.measure.ns_per_instr", "ns", "lower"),
    ("core.measure.ns_per_cycle", "ns", "lower"),
    ("core.measure.self_share", "fraction", "lower"),
    ("core.merge.ms", "ms", "lower"),
    ("core.sampler.samples", "count", "lower"),
    ("core.sampler.bytes", "bytes", "lower"),
    ("analysis.reduce.ms", "ms", "lower"),
    ("analysis.validate.ms", "ms", "lower"),
    ("analysis.export.ms", "ms", "lower"),
    ("analysis.export.bytes", "bytes", "lower"),
    ("cpu.icache.hit_ratio", "fraction", "higher"),
    ("cpu.icache.misses_per_kinstr", "1/kinstr", "lower"),
    ("cpu.icache.flushes", "count", "lower"),
    ("bench.pool.job_us_per_cell", "us", "lower"),
    ("bench.pool.busy_frac", "fraction", "higher"),
    ("bench.engine.run_ms_per_job", "ms", "lower"),
    ("bench.engine.overhead_ms_per_job", "ms", "lower"),
    ("bench.cache.workload_hits_per_job", "count", "higher"),
    ("bench.cache.boot_hits_per_job", "count", "higher"),
    ("bench.trace.coverage", "fraction", "higher"),
    ("arch.decode.ns_per_insn", "ns", "lower"),
    ("cpu.icache.hit_ns", "ns", "lower"),
    ("cpu.icache.miss_insert_ns", "ns", "lower"),
    ("cpu.step.ns_cached", "ns", "lower"),
    ("cpu.step.ns_uncached", "ns", "lower"),
    ("mem.tb.probe_ns", "ns", "lower"),
    ("mem.cache.access_ns", "ns", "lower"),
    ("mem.memsys.read_cycle_ns", "ns", "lower"),
    ("monitor.histogram.record_ns", "ns", "lower"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: String,
    /// `(q1, q3, n)` when the value is the median of several samples.
    pub spread: Option<(f64, f64, usize)>,
}

impl Metric {
    fn to_json(&self) -> Json {
        let mut m = vec![
            ("value".to_string(), Json::from(self.value)),
            ("unit".to_string(), Json::from(self.unit.as_str())),
            ("better".to_string(), Json::from(self.better.as_str())),
        ];
        if let Some((q1, q3, n)) = self.spread {
            m.push(("q1".into(), Json::from(q1)));
            m.push(("q3".into(), Json::from(q3)));
            m.push(("n".into(), Json::from(n as u64)));
        }
        Json::Obj(m)
    }
}

/// Attempts and failures of one kind of operation or check.
#[derive(Debug, Clone, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// The gated metrics (END_TO_END untraced, PER_LAYER traced).
    metrics: Vec<Metric>,
    /// Everything else worth keeping: workload-specific timings, model
    /// accuracy, digests' inputs, simulated counters beside the paper.
    extras: Vec<Metric>,
    tallies: BTreeMap<String, Tally>,
    samples: Vec<(String, Vec<f64>)>,
    pub digest: Option<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            metrics: Vec::new(),
            extras: Vec::new(),
            tallies: BTreeMap::new(),
            samples: Vec::new(),
            digest: None,
        }
    }

    /// Count one operation or check; a failure makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let t = self.tallies.entry(name.to_string()).or_default();
        t.attempted += 1;
        if !ok {
            t.failed += 1;
            if t.first_failure.is_none() {
                let d = detail();
                eprintln!("benchmark: check {name} FAILED: {d}");
                t.first_failure = Some(d);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.tallies.values().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.values().map(|t| t.failed).sum()
    }

    fn metric(name: &str, unit: &str, better: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            better: better.to_string(),
            spread: None,
        }
    }

    fn timed(name: &str, unit: &str, better: &str, samples: &[f64]) -> Metric {
        let (q1, q3) = quartiles(samples);
        Metric {
            spread: Some((q1, q3, samples.len())),
            ..Report::metric(name, unit, better, median(samples))
        }
    }

    /// A gated metric; its unit and direction come from the ledger tables.
    pub fn gated(&mut self, name: &str, value: f64) {
        let (unit, better) = ledger_entry(name);
        self.metrics.push(Report::metric(name, unit, better, value));
    }

    /// A gated metric with the quartiles of the repeats it is the median of.
    pub fn gated_spread(&mut self, name: &str, value: f64, spread: (f64, f64, usize)) {
        self.gated(name, value);
        if let Some(m) = self.metrics.last_mut() {
            m.spread = Some(spread);
        }
    }

    /// A gated metric that is the median of `samples`.
    pub fn gated_samples(&mut self, name: &str, samples: &[f64]) {
        let (unit, better) = ledger_entry(name);
        self.metrics
            .push(Report::timed(name, unit, better, samples));
        self.samples.push((name.to_string(), samples.to_vec()));
    }

    pub fn extra(&mut self, name: &str, unit: &str, better: &str, value: f64) {
        self.extras.push(Report::metric(name, unit, better, value));
    }

    pub fn extra_samples(&mut self, name: &str, unit: &str, better: &str, samples: &[f64]) {
        self.extras.push(Report::timed(name, unit, better, samples));
        self.samples.push((name.to_string(), samples.to_vec()));
    }

    /// Every ledger metric this run must report and did not is a failure
    /// of the benchmark itself.
    pub fn check_complete(&mut self) {
        let names: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        for name in names {
            let found = self.metrics.iter().find(|m| m.name == name);
            let ok = found.is_some_and(|m| m.value.is_finite());
            self.check("ledger-complete", ok, || {
                format!("metric {name} missing or not finite")
            });
        }
    }

    /// The printed ledger: one line per metric, then the checks.
    pub fn print_ledger(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!(
            "benchmark {} seed {} ({mode}, {} s window, {} thread(s) available)",
            self.workload,
            self.seed,
            self.seconds,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        for (title, list) in [("metric", &self.metrics), ("extra", &self.extras)] {
            for m in list {
                let spread = m
                    .spread
                    .map(|(q1, q3, n)| format!("  (q1 {q1:.6}, q3 {q3:.6}, n {n})"))
                    .unwrap_or_default();
                println!(
                    "{title} {:<36} {:>16.6} {}{spread}",
                    m.name, m.value, m.unit
                );
            }
        }
        for (name, t) in &self.tallies {
            let status = if t.failed == 0 { "ok" } else { "FAILED" };
            println!(
                "check {name:<28} {status} ({} of {} failed)",
                t.failed, t.attempted
            );
        }
        if let Some(d) = &self.digest {
            println!("digest {d}");
        }
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::from(m.value)),
                            ("unit", Json::from(m.unit.as_str())),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("correct", Json::from(self.failed() == 0)),
            ("attempted", Json::from(self.attempted().max(1))),
            ("failed", Json::from(self.failed())),
            ("metrics", metrics),
        ])
        .to_string_compact()
    }

    /// The full record for `--json`.
    pub fn to_json(&self) -> Json {
        let list =
            |v: &[Metric]| Json::Obj(v.iter().map(|m| (m.name.clone(), m.to_json())).collect());
        Json::obj([
            ("schema", Json::from("vax780-benchmark/v1")),
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("traced", Json::from(self.traced)),
            (
                "available_parallelism",
                Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
            ),
            ("correct", Json::from(self.failed() == 0)),
            ("attempted", Json::from(self.attempted())),
            ("failed", Json::from(self.failed())),
            ("metrics", list(&self.metrics)),
            ("extras", list(&self.extras)),
            (
                "checks",
                Json::Obj(
                    self.tallies
                        .iter()
                        .map(|(name, t)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("attempted", Json::from(t.attempted)),
                                    ("failed", Json::from(t.failed)),
                                    (
                                        "first_failure",
                                        t.first_failure.as_deref().map_or(Json::Null, Json::from),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::arr(v.iter().map(|&x| Json::from(x)))))
                        .collect(),
                ),
            ),
            (
                "digest",
                self.digest.as_deref().map_or(Json::Null, Json::from),
            ),
        ])
    }
}

fn ledger_entry(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .find(|m| m.0 == name)
        .map(|m| (m.1, m.2))
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| (m.1, m.2)))
        .unwrap_or_else(|| panic!("{name} is not a ledger metric"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root lists exactly these metrics.
    #[test]
    fn ledger_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            j.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        for (m, (_, _, _, bound)) in j
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(*bound));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("composite-long", 1, 10, false);
        r.check("job-exit-0", true, String::new);
        r.gated_samples("job_p50_ms", &[3.0, 1.0, 2.0]);
        let line = Json::parse(&r.result_line()).unwrap();
        let Json::Obj(members) = &line else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line
            .get("metrics")
            .and_then(|m| m.get("job_p50_ms"))
            .unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(2.0));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        r.check("job-exit-0", false, || "exit 1".to_string());
        assert!(r.result_line().starts_with("{\"correct\":false"));
    }
}
