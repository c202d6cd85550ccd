//! The `--progress` heartbeat and the `runtime.json` roll-up.
//!
//! Both are thin consumers of the [`vax_trace::Tracer`]:
//!
//! * [`Heartbeat`] is a background thread that periodically renders the
//!   tracer's live counters and per-worker activity as one compact JSON
//!   line on **stderr** (stdout stays machine-clean for `--format json`).
//!   The serve daemon relays the same line as a running job's `progress`
//!   in `GET /jobs/:id` and `GET /jobs/:id/events`: each line is
//!   self-contained, so a consumer can attach mid-run and still know cells
//!   done/total, throughput, ETA, and what every worker is doing right
//!   now.
//! * [`runtime_json`] rolls the finished tracer up into the
//!   `runtime.json` export artifact: counters, per-phase span totals, and
//!   instant-event tallies. All *counts* in it are deterministic for a
//!   deterministic run grid (invariant in `--jobs`); the microsecond
//!   totals are wall-clock and are stripped by the `reproduce diff`
//!   machinery before comparison.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vax_analysis::Json;
use vax_trace::Tracer;

/// One heartbeat line: the tracer's counters and worker states right now,
/// as a compact JSON object. `elapsed_ms` is the run's age; it (and the
/// derived rates) are the only nondeterministic members.
pub fn progress_line(tracer: &Tracer, elapsed_ms: u64) -> Json {
    let counters = tracer.counters();
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    let cells_done = get("cells_done");
    let cells_total = get("cells_total");
    let instructions = get("instructions");
    let elapsed_s = elapsed_ms as f64 / 1000.0;
    let instr_per_sec = if elapsed_s > 0.0 {
        instructions as f64 / elapsed_s
    } else {
        0.0
    };
    // ETA by linear extrapolation over cells; unknowable until the first
    // cell lands, and null rather than a guess when it is.
    let eta = if cells_done > 0 && cells_total >= cells_done {
        Json::Num(elapsed_s / cells_done as f64 * (cells_total - cells_done) as f64)
    } else {
        Json::Null
    };
    let workers: Vec<Json> = tracer
        .worker_states()
        .into_iter()
        .map(|(tid, state)| {
            Json::Obj(vec![
                ("tid".to_string(), Json::Int(tid as i64)),
                (
                    "state".to_string(),
                    match state {
                        Some(s) => Json::Str(s),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("type".to_string(), Json::Str("progress".to_string())),
        ("elapsed_ms".to_string(), Json::Int(elapsed_ms as i64)),
        ("cells_done".to_string(), Json::Int(cells_done as i64)),
        ("cells_total".to_string(), Json::Int(cells_total as i64)),
        ("instructions".to_string(), Json::Int(instructions as i64)),
        ("instr_per_sec".to_string(), Json::Num(instr_per_sec)),
        ("eta_seconds".to_string(), eta),
        // Recovery and cancellation counters (serve daemon lifecycle;
        // zero for ordinary CLI runs).
        (
            "jobs_recovered".to_string(),
            Json::Int(get("jobs_recovered") as i64),
        ),
        (
            "jobs_resumed".to_string(),
            Json::Int(get("jobs_resumed") as i64),
        ),
        (
            "jobs_canceled".to_string(),
            Json::Int(get("jobs_canceled") as i64),
        ),
        (
            "retry_backoff_ms".to_string(),
            Json::Int(get("retry_backoff_ms") as i64),
        ),
        ("workers".to_string(), Json::Arr(workers)),
    ])
}

/// Roll the finished tracer up into the `runtime.json` artifact.
///
/// Shape: `{"format_version", "counters": {name: n}, "phases": {name:
/// {"count": n, "total_us": t}}, "events": {name: n}}`. Keys are sorted
/// (BTreeMap order) so the bytes are stable; `total_us` is the only
/// wall-clock member and is excluded from `reproduce diff` comparisons.
pub fn runtime_json(tracer: &Tracer) -> Json {
    let counters: Vec<(String, Json)> = tracer
        .counters()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Int(v as i64)))
        .collect();
    let phases: Vec<(String, Json)> = tracer
        .phase_totals()
        .into_iter()
        .map(|(name, t)| {
            (
                name,
                Json::Obj(vec![
                    ("count".to_string(), Json::Int(t.count as i64)),
                    ("total_us".to_string(), Json::Int(t.total_us as i64)),
                ]),
            )
        })
        .collect();
    let events: Vec<(String, Json)> = tracer
        .instant_totals()
        .into_iter()
        .map(|(name, n)| (name, Json::Int(n as i64)))
        .collect();
    Json::Obj(vec![
        ("format_version".to_string(), Json::Int(1)),
        ("counters".to_string(), Json::Obj(counters)),
        ("phases".to_string(), Json::Obj(phases)),
        ("events".to_string(), Json::Obj(events)),
    ])
}

/// The background heartbeat thread. Construct with [`Heartbeat::start`];
/// dropping it stops the thread promptly (it sleeps in short slices) and
/// joins it, so no line is ever emitted after the owner moved on.
#[derive(Debug)]
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Start emitting a [`progress_line`] on stderr every `period_ms`
    /// milliseconds (clamped to ≥ 1). With a disabled tracer the thread
    /// still runs but reports zeros — callers normally gate on
    /// [`Tracer::is_enabled`] before starting one.
    pub fn start(tracer: Tracer, period_ms: u64) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let period = Duration::from_millis(period_ms.max(1));
        let handle = std::thread::Builder::new()
            .name("heartbeat".to_string())
            .spawn(move || {
                let started = Instant::now();
                let mut next = started + period;
                while !stop_flag.load(Ordering::Relaxed) {
                    // Sleep in ≤50 ms slices so Drop never waits a full
                    // period for the thread to notice the stop flag.
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep((next - now).min(Duration::from_millis(50)));
                        continue;
                    }
                    next += period;
                    let elapsed_ms = started.elapsed().as_millis() as u64;
                    eprintln!("{}", progress_line(&tracer, elapsed_ms).to_string_compact());
                }
            })
            .expect("spawn heartbeat thread");
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_trace::{worker_tid, MAIN_TID};

    #[test]
    fn progress_line_reports_counters_and_workers() {
        let t = Tracer::enabled();
        t.counter_set("cells_total", 10);
        t.count(MAIN_TID, "cells_done", 4);
        t.count(MAIN_TID, "instructions", 2_000_000);
        t.count(MAIN_TID, "jobs_recovered", 1);
        t.count(MAIN_TID, "jobs_resumed", 1);
        t.count(MAIN_TID, "retry_backoff_ms", 35);
        t.set_thread_name(worker_tid(0), "worker-0");
        let _g = t.span(worker_tid(0), "simulate", vec![]);

        let j = progress_line(&t, 2_000);
        assert_eq!(j.get("type").and_then(Json::as_str), Some("progress"));
        assert_eq!(j.get("cells_done").and_then(Json::as_i64), Some(4));
        assert_eq!(j.get("cells_total").and_then(Json::as_i64), Some(10));
        assert_eq!(
            j.get("instr_per_sec").and_then(Json::as_f64),
            Some(1_000_000.0)
        );
        // 2 s for 4 cells → 3 s for the remaining 6.
        assert_eq!(j.get("eta_seconds").and_then(Json::as_f64), Some(3.0));
        // Recovery/cancel counters ride along; absent counters are 0.
        assert_eq!(j.get("jobs_recovered").and_then(Json::as_i64), Some(1));
        assert_eq!(j.get("jobs_resumed").and_then(Json::as_i64), Some(1));
        assert_eq!(j.get("jobs_canceled").and_then(Json::as_i64), Some(0));
        assert_eq!(j.get("retry_backoff_ms").and_then(Json::as_i64), Some(35));
        let workers = j.get("workers").and_then(Json::as_arr).unwrap();
        let sim = workers
            .iter()
            .find(|w| w.get("tid").and_then(Json::as_i64) == Some(worker_tid(0) as i64))
            .unwrap();
        assert_eq!(sim.get("state").and_then(Json::as_str), Some("simulate"));
        // The line is valid, parseable JSON — the contract the streaming
        // daemon depends on.
        let text = j.to_string_compact();
        assert!(Json::parse(&text).is_ok(), "{text}");
        assert!(!text.contains('\n'), "one line per heartbeat");
    }

    #[test]
    fn progress_line_eta_is_null_before_first_cell() {
        let t = Tracer::enabled();
        t.counter_set("cells_total", 10);
        let j = progress_line(&t, 500);
        assert!(matches!(j.get("eta_seconds"), Some(Json::Null)));
        let j = progress_line(&t, 0);
        assert_eq!(j.get("instr_per_sec").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn runtime_json_rolls_up_phases_counters_events() {
        let t = Tracer::enabled();
        drop(t.span(MAIN_TID, "run", vec![]));
        drop(t.span(MAIN_TID, "boot", vec![]));
        drop(t.span(MAIN_TID, "boot", vec![]));
        t.instant(MAIN_TID, "retry", vec![]);
        t.count(MAIN_TID, "cells_done", 5);

        let j = runtime_json(&t);
        assert_eq!(j.get("format_version").and_then(Json::as_i64), Some(1));
        let boot = j.get("phases").and_then(|p| p.get("boot")).unwrap();
        assert_eq!(boot.get("count").and_then(Json::as_i64), Some(2));
        assert!(boot.get("total_us").is_some());
        assert_eq!(
            j.get("events")
                .and_then(|e| e.get("retry"))
                .and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("cells_done"))
                .and_then(Json::as_i64),
            Some(5)
        );
        // Serialization is stable: two renders of the same tracer agree.
        assert_eq!(
            runtime_json(&t).to_string_pretty(),
            j.to_string_pretty(),
            "deterministic bytes"
        );
    }

    #[test]
    fn heartbeat_thread_starts_and_stops_cleanly() {
        let t = Tracer::enabled();
        t.counter_set("cells_total", 1);
        let hb = Heartbeat::start(t, 5);
        std::thread::sleep(Duration::from_millis(30));
        drop(hb); // must stop and join without hanging
    }
}
