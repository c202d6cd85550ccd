//! A supervised scoped-thread job pool for the sharded execution engine.
//!
//! The simulated systems are deliberately `!Send` (the trace bus hands
//! `Rc<RefCell<dyn TraceSink>>` handles to every subsystem), so the pool
//! never moves a system between threads. Instead each worker *builds* its
//! systems locally: jobs go in as `Sync` descriptions (`&I`), results come
//! out as `Send` values (`O`), and the caller sees them in input order —
//! slot `i` of the returned vector always holds the output for `inputs[i]`,
//! no matter which worker ran it or when it finished. That input-indexed
//! contract is what lets the runner merge shard results deterministically.
//!
//! Supervision: a panicking job (shard panic or watchdog timeout) does not
//! poison the pool, deadlock the scope, or abandon the rest of the queue.
//! The worker retries the job in place up to `retries` more times — each
//! attempt builds a fresh system from the same seed, so a successful retry
//! is byte-identical to a first-attempt success — and only after exhausting
//! its attempts records a [`JobFailure`] and moves on. Every other job
//! still runs to completion, so the caller always gets the full picture:
//! all finished results *and* all failures, never just the first panic.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use vax_trace::{worker_tid, SpanId, Tracer};

use crate::cancel::CancelToken;

/// First-retry backoff in milliseconds; doubles per attempt up to
/// [`BACKOFF_CAP_MS`], with deterministic jitter on top.
const BACKOFF_BASE_MS: u64 = 10;

/// Upper bound on a single retry backoff, jitter included.
const BACKOFF_CAP_MS: u64 = 1_000;

/// Seeded exponential backoff before retry `attempt + 1` of input `i`:
/// `BACKOFF_BASE_MS << attempt` plus SplitMix64-style jitter in `[0, base)`
/// derived from `(i, attempt)` alone — deterministic and jobs-invariant, so
/// a retried run's `retry_backoff_ms` counter never depends on the worker
/// count. Capped at [`BACKOFF_CAP_MS`].
fn backoff_ms(i: u64, attempt: u32) -> u64 {
    let base = (BACKOFF_BASE_MS << attempt.min(16)).min(BACKOFF_CAP_MS);
    let mut z = i
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let jitter = (z ^ (z >> 31)) % base.max(1);
    (base + jitter).min(BACKOFF_CAP_MS)
}

/// A job that exhausted its attempts: which input failed, how many times it
/// was tried, and the payload of the *last* panic (re-raise it with
/// [`std::panic::resume_unwind`], or render it with [`panic_message`]).
pub struct JobFailure {
    /// Index into the `inputs` slice of the job that failed.
    pub index: usize,
    /// Total attempts made (`1 + retries`).
    pub attempts: u32,
    /// The final panic payload, exactly as `catch_unwind` caught it.
    pub payload: Box<dyn Any + Send>,
}

impl std::fmt::Debug for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobFailure")
            .field("index", &self.index)
            .field("attempts", &self.attempts)
            .field("message", &panic_message(&self.payload))
            .finish()
    }
}

/// Everything the pool produced: one slot per input (in input order;
/// `None` where the job exhausted its attempts) plus the failures, sorted
/// by input index.
pub struct PoolOutcome<O> {
    /// `slots[i]` holds the output for `inputs[i]`, or `None` if it failed.
    pub slots: Vec<Option<O>>,
    /// Jobs that exhausted every attempt, ordered by input index.
    pub failures: Vec<JobFailure>,
}

impl<O> PoolOutcome<O> {
    /// True when every job produced a result.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Unwrap into plain results; panics if any job failed.
    pub fn into_results(self) -> Vec<O> {
        assert!(
            self.failures.is_empty(),
            "PoolOutcome::into_results on a degraded outcome"
        );
        self.slots
            .into_iter()
            .map(|s| s.expect("no failure recorded yet a slot is empty"))
            .collect()
    }
}

/// Best-effort extraction of the human-readable message from a panic
/// payload (`&str` and `String` payloads cover `panic!` and `assert!`).
pub fn panic_message(payload: &Box<dyn Any + Send>) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else if payload.downcast_ref::<vax780::WatchdogExpired>().is_some() {
        "shard watchdog deadline expired"
    } else {
        "<non-string panic payload>"
    }
}

/// Run `f` over every input on `jobs` worker threads under supervision.
///
/// `f(i, &inputs[i], attempt)` may run on any worker; workers pull the next
/// unclaimed index from a shared counter, so at most `jobs` calls are in
/// flight and long jobs don't starve short ones of a thread. With
/// `jobs == 1` the single worker processes indices `0..n` strictly in
/// order — the serial loop, verbatim. `attempt` starts at 0 and counts the
/// retries of that particular index.
///
/// A panicking attempt is retried in place up to `retries` more times; a
/// job that exhausts all `1 + retries` attempts becomes a [`JobFailure`]
/// and the worker moves on to the next index. The queue always drains.
///
/// # Panics
/// Panics if `jobs == 0` (the CLI rejects this before we get here).
pub fn run_supervised<I, O, F>(jobs: usize, inputs: &[I], retries: u32, f: F) -> PoolOutcome<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I, u32) -> O + Sync,
{
    run_supervised_traced(
        jobs,
        inputs,
        retries,
        &Tracer::disabled(),
        0,
        |_worker, i, input, attempt| f(i, input, attempt),
    )
}

/// [`run_supervised`] with per-worker observability.
///
/// Each worker gets its own trace track ([`worker_tid`], named
/// `worker-N`). On that track the pool records, per job: a `queue-wait`
/// span covering the gap between finishing the previous job and claiming
/// this one (recorded only when a job is actually claimed, so span counts
/// stay invariant under the worker count), and a `job` span per attempt
/// (parented under `parent`, normally the run's root span) inside which
/// `f` runs — so any spans `f` opens nest under it. Irregular moments are
/// instant events: `shard-panic` or `watchdog` (by panic payload) per
/// failed attempt, `retry` when another attempt follows, `quarantine` when
/// attempts are exhausted; `retries`/`quarantines` counters track totals.
///
/// `f(worker, i, &inputs[i], attempt)` additionally receives the worker
/// index so callers can place their own spans on the right track.
pub fn run_supervised_traced<I, O, F>(
    jobs: usize,
    inputs: &[I],
    retries: u32,
    tracer: &Tracer,
    parent: SpanId,
    f: F,
) -> PoolOutcome<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, usize, &I, u32) -> O + Sync,
{
    run_supervised_cancelable(
        jobs,
        inputs,
        retries,
        tracer,
        parent,
        &CancelToken::default(),
        f,
    )
}

/// [`run_supervised_traced`] with a cooperative [`CancelToken`].
///
/// Workers poll the token *before claiming* each input — the same cadence
/// as the watchdog, one check per cell — so a fired token stops the grid
/// within one cell boundary: in-flight cells finish normally (and
/// checkpoint, when the caller checkpoints), unclaimed cells are left as
/// empty slots with no failure recorded. The caller distinguishes "not
/// run because canceled" from "quarantined" by re-checking the token.
///
/// Retries of a failed attempt back off exponentially ([`backoff_ms`]):
/// a transient host hiccup (the usual cause of a watchdog trip) gets time
/// to clear instead of an immediate identical attempt, and the
/// `retry_backoff_ms` counter records the total sleep. A fired token also
/// stops further retries of the current input.
pub fn run_supervised_cancelable<I, O, F>(
    jobs: usize,
    inputs: &[I],
    retries: u32,
    tracer: &Tracer,
    parent: SpanId,
    cancel: &CancelToken,
    f: F,
) -> PoolOutcome<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, usize, &I, u32) -> O + Sync,
{
    assert!(jobs > 0, "run_supervised: jobs must be at least 1");
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let failures: Mutex<Vec<JobFailure>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let workers = jobs.min(inputs.len().max(1));
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let f = &f;
            let next = &next;
            let slots = &slots;
            let failures = &failures;
            handles.push(scope.spawn(move || {
                let tid = worker_tid(w);
                if tracer.is_enabled() {
                    tracer.set_thread_name(tid, &format!("worker-{w}"));
                }
                loop {
                    if cancel.fired().is_some() {
                        return;
                    }
                    let wait_start = tracer.now_us();
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(input) = inputs.get(i) else { return };
                    tracer.complete(tid, "queue-wait", wait_start, vec![("index", i.into())]);
                    let mut last_payload = None;
                    for attempt in 0..=retries {
                        let job = tracer.span_under(
                            tid,
                            "job",
                            parent,
                            vec![("index", i.into()), ("attempt", attempt.into())],
                        );
                        let result = catch_unwind(AssertUnwindSafe(|| f(w, i, input, attempt)));
                        drop(job);
                        match result {
                            Ok(out) => {
                                *slots[i].lock().unwrap() = Some(out);
                                last_payload = None;
                                break;
                            }
                            Err(payload) => {
                                let kind = if payload
                                    .downcast_ref::<vax780::WatchdogExpired>()
                                    .is_some()
                                {
                                    "watchdog"
                                } else {
                                    "shard-panic"
                                };
                                tracer.instant(
                                    tid,
                                    kind,
                                    vec![("index", i.into()), ("attempt", attempt.into())],
                                );
                                last_payload = Some(payload);
                                if cancel.fired().is_some() {
                                    break;
                                }
                                if attempt < retries {
                                    let ms = backoff_ms(i as u64, attempt);
                                    tracer.instant(
                                        tid,
                                        "retry",
                                        vec![("index", i.into()), ("backoff_ms", ms.into())],
                                    );
                                    tracer.count(tid, "retries", 1);
                                    tracer.count(tid, "retry_backoff_ms", ms);
                                    std::thread::sleep(Duration::from_millis(ms));
                                }
                            }
                        }
                    }
                    if let Some(payload) = last_payload {
                        if cancel.fired().is_some() {
                            // Canceled between attempts: the input was not
                            // quarantined, it simply wasn't finished —
                            // leave the slot empty with no failure, like
                            // an unclaimed cell.
                            return;
                        }
                        tracer.instant(tid, "quarantine", vec![("index", i.into())]);
                        tracer.count(tid, "quarantines", 1);
                        failures.lock().unwrap().push(JobFailure {
                            index: i,
                            attempts: 1 + retries,
                            payload,
                        });
                    }
                }
            }));
        }
        // Join every worker instead of letting the scope wait for their
        // closures only: a join returns once the thread has exited and
        // handed its malloc arena back, so the next call's workers reuse
        // the same arenas rather than racing a thread still exiting.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut failures = failures.into_inner().unwrap();
    failures.sort_by_key(|fail| fail.index);
    PoolOutcome {
        slots: slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap())
            .collect(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn run_ok<I: Sync, O: Send>(
        jobs: usize,
        inputs: &[I],
        f: impl Fn(usize, &I) -> O + Sync,
    ) -> Vec<O> {
        run_supervised(jobs, inputs, 0, |i, input, _| f(i, input)).into_results()
    }

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<u64> = (0..32).collect();
        let out = run_ok(4, &inputs, |i, &x| {
            // Stagger completion so later indices tend to finish first.
            std::thread::sleep(std::time::Duration::from_micros((32 - i as u64) * 50));
            x * x
        });
        let want: Vec<u64> = inputs.iter().map(|x| x * x).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn more_jobs_than_inputs_and_empty_input() {
        let out = run_ok(8, &[1u32, 2], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3]);
        let none: Vec<u32> = run_ok(4, &[], |_, &x: &u32| x);
        assert!(none.is_empty());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let inputs: Vec<u64> = (0..20).collect();
        let f = |i: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(i as u32);
        let serial = run_ok(1, &inputs, f);
        let parallel = run_ok(4, &inputs, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn failure_drains_the_rest_of_the_queue() {
        let inputs: Vec<u64> = (0..16).collect();
        let outcome = run_supervised(4, &inputs, 0, |_, &x, _| {
            if x == 5 {
                panic!("shard {x} exploded");
            }
            x
        });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 5);
        assert_eq!(outcome.failures[0].attempts, 1);
        assert_eq!(
            panic_message(&outcome.failures[0].payload),
            "shard 5 exploded"
        );
        // Every *other* job still completed: the crash report reflects all
        // finished work, not just what happened to finish before the panic.
        for (i, slot) in outcome.slots.iter().enumerate() {
            if i == 5 {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(i as u64));
            }
        }
    }

    #[test]
    fn retry_recovers_a_flaky_job() {
        let tries = AtomicU32::new(0);
        let outcome = run_supervised(2, &[7u32], 2, |_, &x, attempt| {
            tries.fetch_add(1, Ordering::Relaxed);
            if attempt < 2 {
                panic!("transient");
            }
            x
        });
        assert!(outcome.is_complete());
        assert_eq!(outcome.slots, vec![Some(7)]);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn exhausted_retries_report_the_attempt_count() {
        let outcome: PoolOutcome<u32> = run_supervised(1, &[0u32], 3, |_, _, _| panic!("always"));
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].attempts, 4);
        assert_eq!(outcome.slots, vec![None]);
    }

    #[test]
    fn zero_jobs_is_a_programming_error() {
        let r = std::panic::catch_unwind(|| run_supervised(0, &[1u8], 0, |_, &x, _| x));
        assert!(r.is_err());
    }

    #[test]
    fn traced_pool_records_queue_waits_and_job_spans() {
        let tracer = Tracer::enabled();
        let inputs: Vec<u64> = (0..6).collect();
        let outcome =
            run_supervised_traced(3, &inputs, 0, &tracer, 0, |_w, _i, &x, _attempt| x * 2);
        assert!(outcome.is_complete());
        let phases = tracer.phase_totals();
        // One claim per input, one attempt per input — invariant in the
        // worker count, which is what keeps runtime.json jobs-invariant.
        assert_eq!(phases["queue-wait"].count, 6);
        assert_eq!(phases["job"].count, 6);
        // Every worker track got a thread-name metadata event.
        let names: Vec<String> = tracer
            .events()
            .iter()
            .filter(|e| e.kind == vax_trace::EventKind::Meta)
            .filter_map(|e| match &e.args[..] {
                [(_, vax_trace::ArgValue::Str(s))] => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"worker-0".to_string()), "{names:?}");
    }

    #[test]
    fn traced_pool_records_retry_and_quarantine_instants() {
        let tracer = Tracer::enabled();
        let outcome: PoolOutcome<u32> =
            run_supervised_traced(1, &[0u32], 1, &tracer, 0, |_, _, _, _| panic!("always"));
        assert_eq!(outcome.failures.len(), 1);
        let instants = tracer.instant_totals();
        assert_eq!(instants["shard-panic"], 2, "one per attempt");
        assert_eq!(instants["retry"], 1, "one retry before exhaustion");
        assert_eq!(instants["quarantine"], 1);
        assert_eq!(tracer.counter_value("retries"), 1);
        assert_eq!(tracer.counter_value("quarantines"), 1);
    }

    #[test]
    fn traced_pool_classifies_watchdog_panics() {
        let tracer = Tracer::enabled();
        let _outcome: PoolOutcome<u32> =
            run_supervised_traced(1, &[0u32], 0, &tracer, 0, |_, _, _, _| {
                std::panic::panic_any(vax780::WatchdogExpired)
            });
        let instants = tracer.instant_totals();
        assert_eq!(instants["watchdog"], 1);
        assert!(!instants.contains_key("shard-panic"));
    }

    #[test]
    fn canceled_pool_stops_claiming_at_a_cell_boundary() {
        use crate::cancel::CancelToken;
        let token = CancelToken::new();
        let inputs: Vec<u32> = (0..64).collect();
        let started = AtomicUsize::new(0);
        // One worker makes the claim order deterministic: cells 0..=3 run,
        // the token fires inside cell 3, and the pre-claim check stops the
        // sweep before cell 4.
        let outcome = run_supervised_cancelable(
            1,
            &inputs,
            0,
            &Tracer::disabled(),
            0,
            &token,
            |_w, _i, &x, _attempt| {
                started.fetch_add(1, Ordering::Relaxed);
                if x == 3 {
                    token.cancel();
                }
                x
            },
        );
        // The in-flight cell finishes (cancellation is a boundary, not an
        // abort), nothing is quarantined, and the rest of the grid never
        // runs.
        assert!(outcome.failures.is_empty());
        let done = outcome.slots.iter().flatten().count();
        assert_eq!(done, 4);
        assert_eq!(started.load(Ordering::Relaxed), 4);
        assert_eq!(outcome.slots[3], Some(3), "the canceling cell completed");
    }

    #[test]
    fn canceled_retries_are_not_quarantines() {
        use crate::cancel::CancelToken;
        let token = CancelToken::new();
        let outcome: PoolOutcome<u32> = run_supervised_cancelable(
            1,
            &[0u32],
            5,
            &Tracer::disabled(),
            0,
            &token,
            |_, _, _, _| {
                token.cancel();
                panic!("transient");
            },
        );
        assert_eq!(outcome.slots, vec![None]);
        assert!(
            outcome.failures.is_empty(),
            "a cell abandoned by cancel is unfinished, not quarantined"
        );
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        for i in 0..50u64 {
            for attempt in 0..12u32 {
                let ms = backoff_ms(i, attempt);
                assert_eq!(ms, backoff_ms(i, attempt), "deterministic");
                assert!(ms >= (BACKOFF_BASE_MS << attempt.min(16)).min(BACKOFF_CAP_MS));
                assert!(ms <= BACKOFF_CAP_MS);
            }
        }
        assert_ne!(
            backoff_ms(1, 0),
            backoff_ms(2, 0),
            "jitter separates indices"
        );
    }

    #[test]
    fn retries_record_backoff_counters() {
        let tracer = Tracer::enabled();
        let outcome: PoolOutcome<u32> =
            run_supervised_traced(1, &[0u32], 1, &tracer, 0, |_, _, _, _| panic!("always"));
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(
            tracer.counter_value("retry_backoff_ms"),
            backoff_ms(0, 0),
            "one retry, one seeded backoff"
        );
    }

    #[test]
    fn callback_sees_a_valid_worker_index() {
        let max_worker = AtomicUsize::new(0);
        let inputs: Vec<u32> = (0..12).collect();
        let out = run_supervised_traced(
            3,
            &inputs,
            0,
            &Tracer::disabled(),
            0,
            |worker, _i, &x, _attempt| {
                max_worker.fetch_max(worker, Ordering::Relaxed);
                x
            },
        )
        .into_results();
        assert_eq!(out, inputs);
        assert!(max_worker.load(Ordering::Relaxed) < 3);
    }
}
