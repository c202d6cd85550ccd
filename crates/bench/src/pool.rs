//! A supervised scoped-thread job pool for the sharded execution engine.
//!
//! Jobs go in as `Sync` descriptions (`&I`) and each attempt builds its
//! simulated system from that description on the worker that claims it.
//! Systems are `Send`, but a machine that already ran (or half-ran and
//! panicked) carries state a fresh one does not: building every attempt
//! from its seed is what makes a result independent of which worker ran
//! it, of what that worker ran before, and of how many attempts it took.
//! Results come out as `Send` values (`O`), and the caller sees them in
//! input order — slot `i` of the returned vector always holds the output
//! for `inputs[i]`, no matter which worker ran it or when it finished. That
//! input-indexed contract is what lets the runner merge shard results
//! deterministically.
//!
//! Supervision: a failed attempt (a panic, or a machine stopped by its
//! watchdog) does not poison the pool, deadlock the scope, or abandon the
//! rest of the queue. The worker retries the job in place up to `retries`
//! more times — each attempt builds a fresh system from the same seed, so
//! a successful retry is byte-identical to a first-attempt success — and
//! only after exhausting its attempts records a [`JobFailure`] and moves
//! on. Every other job still runs to completion, so the caller always gets
//! the full picture: all finished results *and* all failures, never just
//! the first panic. An attempt stopped by the job's cancel token is
//! neither: its slot stays empty, and nothing more is claimed.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use vax780::{CancelKind, CancelToken, Stop};
use vax_trace::{worker_tid, SpanId, Tracer, MAIN_TID};

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
/// was tried, and why the *last* attempt failed.
#[derive(Debug)]
pub struct JobFailure {
    /// Index into the `inputs` slice of the job that failed.
    pub index: usize,
    /// Total attempts made (`1 + retries`).
    pub attempts: u32,
    /// The last attempt's panic message, or the watchdog's.
    pub message: String,
}

/// Everything the pool produced: one slot per input (in input order;
/// `None` where the job exhausted its attempts or never ran) plus the
/// failures, sorted by input index, and whether the cancel token stopped
/// the workers.
pub struct PoolOutcome<O> {
    /// `slots[i]` holds the output for `inputs[i]`, or `None` if it failed
    /// or was left unrun by a cancel.
    pub slots: Vec<Option<O>>,
    /// Jobs that exhausted every attempt, ordered by input index.
    pub failures: Vec<JobFailure>,
    /// The token's cause, read once when the workers stopped: the one
    /// value every later decision of the job uses. A token that fires
    /// after the pool returns leaves it unset.
    pub canceled: Option<CancelKind>,
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

/// The human-readable message of a panic payload (`&str` and `String`
/// payloads cover `panic!` and `assert!`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `f` over every input on `jobs` worker threads under supervision.
///
/// `f(worker, i, &inputs[i], attempt)` may run on any worker; workers pull
/// the next unclaimed index from a shared counter, so at most `jobs` calls
/// are in flight and long jobs don't starve short ones of a thread. With
/// `jobs == 1` the single worker processes indices `0..n` strictly in
/// order — the serial loop, verbatim. `worker` lets callers place their own
/// spans on the right track; `attempt` starts at 0 and counts the retries
/// of that particular index.
///
/// An attempt that panics or returns [`Stop::Watchdog`] fails, and is
/// retried in place up to `retries` more times; a job that exhausts all
/// `1 + retries` attempts becomes a [`JobFailure`] and the worker moves on
/// to the next index. The queue always drains. Retries back off
/// exponentially (`backoff_ms`): a transient host hiccup (the usual cause
/// of a watchdog trip) gets time to clear instead of an immediate
/// identical attempt, and the `retry_backoff_ms` counter records the total
/// sleep.
///
/// Workers poll `cancel` *before claiming* each input, so a fired token
/// claims nothing more; unclaimed cells are left as empty slots with no
/// failure recorded. An attempt whose machine read the same token mid-cell
/// returns [`Stop::Canceled`]: its slot stays empty too, with no failure
/// and no retry. A fired token also stops further retries of the current
/// input. The caller distinguishes "not run because canceled" from
/// "quarantined" by [`PoolOutcome::canceled`], the token read once after
/// the workers stop; pass `&CancelToken::default()` to never stop.
///
/// Observability: each worker gets its own trace track ([`worker_tid`],
/// named `worker-N`). On that track the pool records, per job, a
/// `queue-wait` span covering the gap between finishing the previous job
/// and claiming this one (recorded only when a job is actually claimed, so
/// span counts stay invariant under the worker count), and a `job` span per
/// attempt (parented under `parent`, normally the run's root span) inside
/// which `f` runs — so any spans `f` opens nest under it. Irregular moments
/// are instant events: `shard-panic` or `watchdog` per failed attempt,
/// `retry` when another attempt follows, `quarantine` when attempts are
/// exhausted; `retries`/`quarantines` counters track totals.
/// A canceled pool records a `cancel` instant (with its `kind`) and the
/// `jobs_canceled` counter on the main track. A disabled tracer records
/// nothing.
///
/// # Panics
/// Panics if `jobs == 0` (the CLI rejects this before we get here).
pub fn run_supervised<I, O, F>(
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
    F: Fn(usize, usize, &I, u32) -> Result<O, Stop> + Sync,
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
                    let mut failure = None;
                    for attempt in 0..=retries {
                        let job = tracer.span_under(
                            tid,
                            "job",
                            parent,
                            vec![("index", i.into()), ("attempt", attempt.into())],
                        );
                        let result = catch_unwind(AssertUnwindSafe(|| f(w, i, input, attempt)));
                        drop(job);
                        failure = match result {
                            Ok(Ok(out)) => {
                                *slots[i].lock().unwrap() = Some(out);
                                None
                            }
                            Ok(Err(Stop::Canceled(_))) => None,
                            Ok(Err(Stop::Watchdog)) => {
                                Some(("watchdog", "shard watchdog deadline expired".to_string()))
                            }
                            Err(payload) => Some(("shard-panic", panic_message(&*payload))),
                        };
                        let Some((kind, _)) = &failure else { break };
                        tracer.instant(
                            tid,
                            kind,
                            vec![("index", i.into()), ("attempt", attempt.into())],
                        );
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
                    if let Some((_, message)) = failure {
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
                            message,
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

    let canceled = cancel.fired();
    if let Some(kind) = canceled {
        record_cancel(tracer, kind);
    }
    let mut failures = failures.into_inner().unwrap();
    failures.sort_by_key(|fail| fail.index);
    PoolOutcome {
        slots: slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap())
            .collect(),
        failures,
        canceled,
    }
}

/// Mark a job stopped by its token: a `cancel` instant (with its kind)
/// and the `jobs_canceled` counter on the main track.
pub(crate) fn record_cancel(tracer: &Tracer, kind: CancelKind) {
    tracer.instant(MAIN_TID, "cancel", vec![("kind", kind.name().into())]);
    tracer.count(MAIN_TID, "jobs_canceled", 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// [`run_supervised`] with spans parented under 0, no cancel, and
    /// attempts that never stop.
    fn supervise<I: Sync, O: Send>(
        jobs: usize,
        inputs: &[I],
        retries: u32,
        tracer: &Tracer,
        f: impl Fn(usize, usize, &I, u32) -> O + Sync,
    ) -> PoolOutcome<O> {
        let never = CancelToken::default();
        run_supervised(jobs, inputs, retries, tracer, 0, &never, |w, i, x, a| {
            Ok(f(w, i, x, a))
        })
    }

    /// [`run_supervised`] of one input with no cancel, every attempt
    /// ending in `stop`.
    fn stop_every_attempt(retries: u32, tracer: &Tracer, stop: Stop) -> PoolOutcome<u32> {
        let never = CancelToken::default();
        run_supervised(1, &[0u32], retries, tracer, 0, &never, |_, _, _, _| {
            Err(stop)
        })
    }

    fn run_ok<I: Sync, O: Send>(
        jobs: usize,
        inputs: &[I],
        f: impl Fn(usize, &I) -> O + Sync,
    ) -> Vec<O> {
        supervise(jobs, inputs, 0, &Tracer::disabled(), |_, i, input, _| {
            f(i, input)
        })
        .into_results()
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
        let outcome = supervise(4, &inputs, 0, &Tracer::disabled(), |_, _, &x, _| {
            if x == 5 {
                panic!("shard {x} exploded");
            }
            x
        });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 5);
        assert_eq!(outcome.failures[0].attempts, 1);
        assert_eq!(outcome.failures[0].message, "shard 5 exploded");
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
        let outcome = supervise(2, &[7u32], 2, &Tracer::disabled(), |_, _, &x, attempt| {
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
        let outcome: PoolOutcome<u32> =
            supervise(1, &[0u32], 3, &Tracer::disabled(), |_, _, _, _| {
                panic!("always")
            });
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].attempts, 4);
        assert_eq!(outcome.slots, vec![None]);
    }

    #[test]
    fn zero_jobs_is_a_programming_error() {
        let r = std::panic::catch_unwind(|| {
            supervise(0, &[1u8], 0, &Tracer::disabled(), |_, _, &x, _| x)
        });
        assert!(r.is_err());
    }

    #[test]
    fn traced_pool_records_queue_waits_and_job_spans() {
        let tracer = Tracer::enabled();
        let inputs: Vec<u64> = (0..6).collect();
        let outcome = supervise(3, &inputs, 0, &tracer, |_w, _i, &x, _attempt| x * 2);
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
            supervise(1, &[0u32], 1, &tracer, |_, _, _, _| panic!("always"));
        assert_eq!(outcome.failures.len(), 1);
        let instants = tracer.instant_totals();
        assert_eq!(instants["shard-panic"], 2, "one per attempt");
        assert_eq!(instants["retry"], 1, "one retry before exhaustion");
        assert_eq!(instants["quarantine"], 1);
        assert_eq!(tracer.counter_value("retries"), 1);
        assert_eq!(tracer.counter_value("quarantines"), 1);
    }

    #[test]
    fn traced_pool_classifies_watchdog_stops() {
        let tracer = Tracer::enabled();
        let outcome = stop_every_attempt(0, &tracer, Stop::Watchdog);
        let instants = tracer.instant_totals();
        assert_eq!(instants["watchdog"], 1);
        assert!(!instants.contains_key("shard-panic"));
        assert_eq!(
            outcome.failures[0].message,
            "shard watchdog deadline expired"
        );
    }

    #[test]
    fn a_canceled_attempt_is_neither_failed_nor_retried() {
        let tracer = Tracer::enabled();
        let outcome = stop_every_attempt(3, &tracer, Stop::Canceled(CancelKind::Canceled));
        assert_eq!(outcome.slots, vec![None]);
        assert!(outcome.failures.is_empty());
        assert_eq!(tracer.phase_totals()["job"].count, 1, "one attempt");
        let instants = tracer.instant_totals();
        for kind in ["watchdog", "shard-panic", "retry", "quarantine"] {
            assert!(!instants.contains_key(kind), "{kind}");
        }
    }

    #[test]
    fn canceled_pool_stops_claiming_at_a_cell_boundary() {
        let token = CancelToken::new();
        let inputs: Vec<u32> = (0..64).collect();
        let started = AtomicUsize::new(0);
        let tracer = Tracer::enabled();
        // One worker makes the claim order deterministic: cells 0..=3 run,
        // the token fires inside cell 3, and the pre-claim check stops the
        // sweep before cell 4.
        let outcome = run_supervised(1, &inputs, 0, &tracer, 0, &token, |_w, _i, &x, _attempt| {
            started.fetch_add(1, Ordering::Relaxed);
            if x == 3 {
                token.cancel();
            }
            Ok(x)
        });
        // The in-flight cell finishes (cancellation is a boundary, not an
        // abort), nothing is quarantined, and the rest of the grid never
        // runs.
        assert!(outcome.failures.is_empty());
        let done = outcome.slots.iter().flatten().count();
        assert_eq!(done, 4);
        assert_eq!(started.load(Ordering::Relaxed), 4);
        assert_eq!(outcome.slots[3], Some(3), "the canceling cell completed");
        assert_eq!(outcome.canceled, Some(CancelKind::Canceled));
        assert_eq!(tracer.instant_totals()["cancel"], 1);
        assert_eq!(tracer.counter_value("jobs_canceled"), 1);
    }

    #[test]
    fn a_token_fired_after_the_pool_returns_leaves_canceled_unset() {
        let token = CancelToken::new();
        let tracer = Tracer::enabled();
        let outcome = run_supervised(2, &[1u32, 2, 3], 0, &tracer, 0, &token, |_, _, &x, _| Ok(x));
        token.cancel();
        assert_eq!(outcome.canceled, None);
        assert!(!tracer.instant_totals().contains_key("cancel"));
        assert_eq!(tracer.counter_value("jobs_canceled"), 0);
        assert_eq!(outcome.into_results(), vec![1, 2, 3]);
    }

    #[test]
    fn canceled_retries_are_not_quarantines() {
        let token = CancelToken::new();
        let outcome: PoolOutcome<u32> = run_supervised(
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
            supervise(1, &[0u32], 1, &tracer, |_, _, _, _| panic!("always"));
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
        let out = supervise(
            3,
            &inputs,
            0,
            &Tracer::disabled(),
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
