//! # vax-trace — observability for the *harness*, not the simulated machine.
//!
//! The simulated VAX has first-class instrumentation (the µPC histogram,
//! the CPU and memory event counters, the interval sampler, the flight
//! recorder). This crate gives the *runtime around it* — workload codegen,
//! kernel boot, the shard pool, merge, export — the same treatment: every
//! phase of a run becomes a **span** on a monotonic clock, with an explicit
//! parent id, a thread track, and structured arguments; irregular moments
//! (a retry, a watchdog trip, a quarantine) become **instant events**; and
//! scalar progress (cells done, decode-cache hits, bytes exported) becomes
//! **counters**.
//!
//! Three consumers sit on top:
//!
//! * [`Tracer::chrome_trace`] serializes everything in Chrome Trace Event
//!   format, so a run opens directly in Perfetto or `chrome://tracing`
//!   with one track per worker thread;
//! * [`Tracer::phase_totals`] / [`Tracer::counters`] feed the `runtime.json`
//!   roll-up and the `--progress` heartbeat in `vax-bench`;
//! * [`Tracer::register_panic_flush`] arranges for a crashing process to
//!   leave an *openable* partial trace on disk (open spans are synthesized
//!   closed), next to the flight-recorder dump.
//!
//! ## Cost model
//!
//! A disabled tracer ([`Tracer::disabled`], the default) is a `None`: every
//! recording call is one branch and returns immediately — no clock read, no
//! lock, no allocation. Spans are only ever placed around whole pipeline
//! phases (a cell's codegen, boot, simulate, …), never inside the
//! simulator's hot loop, so even an *enabled* tracer records a few dozen
//! events per million simulated instructions. The repository benchmark's
//! untraced runs, which the `perf-gate` CI job pairs against the parent
//! commit, carry a disabled tracer.
//!
//! ## Determinism contract
//!
//! Timestamps are wall-clock and therefore nondeterministic; they live
//! **only** in the trace file and heartbeat lines. Everything derived from
//! the tracer that lands in a diffed export (`runtime.json`) is either a
//! count or is keyed by name in sorted order, so `--jobs N` runs stay
//! byte-identical after the diff machinery strips the timing fields.

mod chrome;

pub use chrome::{render_chrome_trace, PID};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

/// The track id of the orchestrating (main) thread.
pub const MAIN_TID: u64 = 0;

/// The track id of pool worker `worker` (main thread is track 0).
pub fn worker_tid(worker: usize) -> u64 {
    worker as u64 + 1
}

/// Identifier of a recorded span. `0` is the "no span" sentinel (used both
/// for "no parent" and for guards handed out by a disabled tracer).
pub type SpanId = u64;

/// A structured argument value attached to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An integer argument.
    Int(i64),
    /// A string argument.
    Str(String),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> ArgValue {
        ArgValue::Int(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::Int(v as i64)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::Int(v as i64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> ArgValue {
        ArgValue::Int(i64::from(v))
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// Event arguments: `(key, value)` pairs, insertion-ordered.
pub type Args = Vec<(&'static str, ArgValue)>;

/// What kind of trace event a record is (maps onto the Chrome Trace Event
/// `ph` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span begin (`ph: "B"`).
    Begin,
    /// Span end (`ph: "E"`).
    End,
    /// A point-in-time event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`).
    Counter,
    /// Track metadata, e.g. a thread name (`ph: "M"`).
    Meta,
}

impl EventKind {
    /// The Chrome Trace Event phase code.
    pub fn code(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
            EventKind::Meta => "M",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event kind (span begin/end, instant, counter, metadata).
    pub kind: EventKind,
    /// Event name. For spans this is the phase name (`"simulate"`); for
    /// counters the counter name; for metadata the Chrome metadata key.
    pub name: String,
    /// Track (thread) id; [`MAIN_TID`] or [`worker_tid`].
    pub tid: u64,
    /// Microseconds since the tracer was created (monotonic clock).
    pub ts_us: u64,
    /// The span this event opens or closes (`0` when not a span event).
    pub span: SpanId,
    /// The opening span's parent (`0` = root; only set on [`EventKind::Begin`]).
    pub parent: SpanId,
    /// Structured arguments.
    pub args: Args,
}

/// A fully-resolved span, reconstructed from its begin/end events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span id.
    pub id: SpanId,
    /// Parent span id (`0` = root).
    pub parent: SpanId,
    /// Track the span ran on.
    pub tid: u64,
    /// Phase name.
    pub name: String,
    /// Start, µs since tracer creation.
    pub start_us: u64,
    /// End, µs since tracer creation (synthesized as "now" for spans still
    /// open at snapshot time).
    pub end_us: u64,
}

impl SpanRec {
    /// Span duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Aggregate of all spans sharing one phase name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTotal {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their durations, µs. Wall-clock — nondeterministic; the diff
    /// machinery strips this field from `runtime.json` comparisons.
    pub total_us: u64,
}

/// How a new span chooses its parent.
enum ParentSpec {
    /// Parent is the innermost open span on the same track (root if none).
    FromStack,
    /// Explicit parent id (use `0` for an explicit root span).
    Explicit(SpanId),
}

#[derive(Default)]
struct State {
    events: Vec<Event>,
    next_span: SpanId,
    /// Open spans per track, innermost last. Also doubles as the "current
    /// activity" the heartbeat reports per worker.
    stacks: BTreeMap<u64, Vec<(SpanId, String)>>,
    counters: BTreeMap<&'static str, u64>,
}

struct Inner {
    anchor: Instant,
    state: Mutex<State>,
}

/// A shareable, thread-safe handle to a trace collector.
///
/// Clones share the same buffer (like [`std::sync::Arc`]); a disabled
/// tracer carries no buffer at all, making every call a cheap no-op.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer: every recording call is a no-op.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer anchored at "now".
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                anchor: Instant::now(),
                state: Mutex::new(State {
                    next_span: 1,
                    ..State::default()
                }),
            })),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the tracer was created (0 when disabled).
    #[inline]
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.anchor.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Name track `tid` (shows as the thread name in Perfetto).
    pub fn set_thread_name(&self, tid: u64, name: &str) {
        let Some(inner) = &self.inner else { return };
        let ts = inner.anchor.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().unwrap();
        // Register the track even before its first span, so the heartbeat
        // can report the worker as idle rather than unknown.
        st.stacks.entry(tid).or_default();
        st.events.push(Event {
            kind: EventKind::Meta,
            name: "thread_name".to_string(),
            tid,
            ts_us: ts,
            span: 0,
            parent: 0,
            args: vec![("name", ArgValue::from(name))],
        });
    }

    fn begin_with(&self, tid: u64, name: &str, parent: ParentSpec, args: Args) -> SpanId {
        let Some(inner) = &self.inner else { return 0 };
        let ts = inner.anchor.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().unwrap();
        let id = st.next_span;
        st.next_span += 1;
        let stack = st.stacks.entry(tid).or_default();
        let parent = match parent {
            ParentSpec::FromStack => stack.last().map(|(id, _)| *id).unwrap_or(0),
            ParentSpec::Explicit(p) => p,
        };
        stack.push((id, name.to_string()));
        st.events.push(Event {
            kind: EventKind::Begin,
            name: name.to_string(),
            tid,
            ts_us: ts,
            span: id,
            parent,
            args,
        });
        id
    }

    /// Close span `id` on track `tid`. Closes any younger spans still open
    /// on the track first (panic unwinds can skip intermediate guards), so
    /// begin/end events always nest. Unknown ids are ignored.
    pub fn end(&self, tid: u64, id: SpanId) {
        let Some(inner) = &self.inner else { return };
        if id == 0 {
            return;
        }
        let ts = inner.anchor.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().unwrap();
        let Some(stack) = st.stacks.get_mut(&tid) else {
            return;
        };
        let Some(pos) = stack.iter().rposition(|(sid, _)| *sid == id) else {
            return;
        };
        let closing: Vec<(SpanId, String)> = stack.drain(pos..).collect();
        for (sid, name) in closing.into_iter().rev() {
            st.events.push(Event {
                kind: EventKind::End,
                name,
                tid,
                ts_us: ts,
                span: sid,
                parent: 0,
                args: Vec::new(),
            });
        }
    }

    /// Open a span whose parent is the innermost open span on `tid`.
    /// The returned guard closes it on drop.
    pub fn span(&self, tid: u64, name: &str, args: Args) -> SpanGuard {
        let id = self.begin_with(tid, name, ParentSpec::FromStack, args);
        SpanGuard {
            tracer: self.clone(),
            tid,
            id,
        }
    }

    /// Open a span with an explicit parent (use `0` for an explicit root —
    /// e.g. a worker-track span whose logical parent lives on the main
    /// track).
    pub fn span_under(&self, tid: u64, name: &str, parent: SpanId, args: Args) -> SpanGuard {
        let id = self.begin_with(tid, name, ParentSpec::Explicit(parent), args);
        SpanGuard {
            tracer: self.clone(),
            tid,
            id,
        }
    }

    /// Record an already-finished span: begin at `start_us` (a value from
    /// [`Tracer::now_us`] taken earlier on the same track), end now. Used
    /// where the interesting interval is only known in hindsight, e.g. a
    /// worker's queue wait.
    pub fn complete(&self, tid: u64, name: &str, start_us: u64, args: Args) {
        let Some(inner) = &self.inner else { return };
        let end = inner.anchor.elapsed().as_micros() as u64;
        let start = start_us.min(end);
        let mut st = inner.state.lock().unwrap();
        let id = st.next_span;
        st.next_span += 1;
        let parent = st
            .stacks
            .get(&tid)
            .and_then(|s| s.last())
            .map(|(id, _)| *id)
            .unwrap_or(0);
        st.events.push(Event {
            kind: EventKind::Begin,
            name: name.to_string(),
            tid,
            ts_us: start,
            span: id,
            parent,
            args,
        });
        st.events.push(Event {
            kind: EventKind::End,
            name: name.to_string(),
            tid,
            ts_us: end,
            span: id,
            parent: 0,
            args: Vec::new(),
        });
    }

    /// Record an instant event (a retry, a quarantine, a watchdog trip).
    pub fn instant(&self, tid: u64, name: &str, args: Args) {
        let Some(inner) = &self.inner else { return };
        let ts = inner.anchor.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().unwrap();
        st.events.push(Event {
            kind: EventKind::Instant,
            name: name.to_string(),
            tid,
            ts_us: ts,
            span: 0,
            parent: 0,
            args,
        });
    }

    /// Add `delta` to counter `name`, record a counter sample on `tid`, and
    /// return the new total.
    pub fn count(&self, tid: u64, name: &'static str, delta: u64) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let ts = inner.anchor.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().unwrap();
        let total = {
            let c = st.counters.entry(name).or_insert(0);
            *c += delta;
            *c
        };
        st.events.push(Event {
            kind: EventKind::Counter,
            name: name.to_string(),
            tid,
            ts_us: ts,
            span: 0,
            parent: 0,
            args: vec![("value", ArgValue::from(total))],
        });
        total
    }

    /// Set counter `name` to an absolute value without emitting an event
    /// (used for static facts such as the total cell count).
    pub fn counter_set(&self, name: &'static str, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner.state.lock().unwrap().counters.insert(name, value);
    }

    /// The current value of counter `name` (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .counters
                .get(name)
                .copied()
                .unwrap_or(0),
            None => 0,
        }
    }

    /// A sorted snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        match &self.inner {
            Some(inner) => inner.state.lock().unwrap().counters.clone(),
            None => BTreeMap::new(),
        }
    }

    /// Per-track current activity: the innermost open span's name, or
    /// `None` for an idle (registered but spanless) track. Sorted by tid.
    pub fn worker_states(&self) -> Vec<(u64, Option<String>)> {
        match &self.inner {
            Some(inner) => inner
                .state
                .lock()
                .unwrap()
                .stacks
                .iter()
                .map(|(tid, stack)| (*tid, stack.last().map(|(_, name)| name.clone())))
                .collect(),
            None => Vec::new(),
        }
    }

    /// A snapshot of every recorded event, in recording order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.state.lock().unwrap().events.clone(),
            None => Vec::new(),
        }
    }

    /// Events plus synthesized [`EventKind::End`]s (at "now") for spans
    /// still open, so every begin is matched — this is what makes a
    /// mid-crash flush openable.
    fn events_closed(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let now = inner.anchor.elapsed().as_micros() as u64;
        let st = inner.state.lock().unwrap();
        Self::events_closed_locked(&st, now)
    }

    fn events_closed_locked(st: &State, now: u64) -> Vec<Event> {
        let mut events = st.events.clone();
        for (tid, stack) in &st.stacks {
            for (id, name) in stack.iter().rev() {
                events.push(Event {
                    kind: EventKind::End,
                    name: name.clone(),
                    tid: *tid,
                    ts_us: now,
                    span: *id,
                    parent: 0,
                    args: Vec::new(),
                });
            }
        }
        events
    }

    /// Reconstruct every span (open spans are closed at "now").
    pub fn spans(&self) -> Vec<SpanRec> {
        let events = self.events_closed();
        let mut open: BTreeMap<SpanId, SpanRec> = BTreeMap::new();
        let mut done = Vec::new();
        for e in &events {
            match e.kind {
                EventKind::Begin => {
                    open.insert(
                        e.span,
                        SpanRec {
                            id: e.span,
                            parent: e.parent,
                            tid: e.tid,
                            name: e.name.clone(),
                            start_us: e.ts_us,
                            end_us: e.ts_us,
                        },
                    );
                }
                EventKind::End => {
                    if let Some(mut rec) = open.remove(&e.span) {
                        rec.end_us = e.ts_us;
                        done.push(rec);
                    }
                }
                _ => {}
            }
        }
        done.sort_by_key(|s| s.id);
        done
    }

    /// Aggregate spans by phase name: `{name: (count, total_us)}`, sorted
    /// by name. Counts are deterministic for a deterministic run grid; the
    /// µs totals are wall-clock.
    pub fn phase_totals(&self) -> BTreeMap<String, PhaseTotal> {
        let mut out: BTreeMap<String, PhaseTotal> = BTreeMap::new();
        for s in self.spans() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += s.end_us - s.start_us;
        }
        out
    }

    /// Instant-event tallies by name, sorted.
    pub fn instant_totals(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for e in self.events() {
            if e.kind == EventKind::Instant {
                *out.entry(e.name).or_insert(0) += 1;
            }
        }
        out
    }

    /// Serialize everything recorded so far as a Chrome Trace Event JSON
    /// document (open spans synthesized closed). Returns an empty trace
    /// (`{"traceEvents":[]}`-shaped) for a disabled tracer.
    pub fn chrome_trace(&self) -> String {
        render_chrome_trace(&self.events_closed())
    }

    /// [`Tracer::chrome_trace`] via `try_lock`, for use inside a panic
    /// hook: if the panic happened while the tracer lock was held, returns
    /// `None` rather than deadlocking.
    pub fn try_chrome_trace(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let now = inner.anchor.elapsed().as_micros() as u64;
        let st = inner.state.try_lock().ok()?;
        Some(render_chrome_trace(&Self::events_closed_locked(&st, now)))
    }

    /// Register this tracer with the process-wide panic hook: any panic
    /// (even one later caught by a supervisor) flushes the partial trace to
    /// `path`, so a crashed shard leaves an openable `trace.json` next to
    /// its flight-recorder dump. The hook chains to the previous hook; the
    /// most recently registered tracer wins.
    pub fn register_panic_flush(&self, path: &Path) {
        if !self.is_enabled() {
            return;
        }
        *flush_target().lock().unwrap() = Some((self.clone(), path.to_path_buf()));
        FLUSH_HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                prev(info);
                panic_flush();
            }));
        });
    }
}

/// RAII guard returned by [`Tracer::span`]: closes the span when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    tid: u64,
    id: SpanId,
}

impl SpanGuard {
    /// The opened span's id (0 when the tracer is disabled), for use as an
    /// explicit parent of spans on other tracks.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.tracer.end(self.tid, self.id);
    }
}

static FLUSH_HOOK: Once = Once::new();

fn flush_target() -> &'static Mutex<Option<(Tracer, PathBuf)>> {
    static TARGET: Mutex<Option<(Tracer, PathBuf)>> = Mutex::new(None);
    &TARGET
}

/// Flush the registered tracer to its path (best-effort, deadlock-free:
/// `try_lock` everywhere). Public so tests can exercise the flush without
/// panicking. Returns the path written, if a flush happened.
pub fn panic_flush() -> Option<PathBuf> {
    let (tracer, path) = flush_target().try_lock().ok()?.clone()?;
    let body = tracer.try_chrome_trace()?;
    // Temp-and-rename so a reader never sees a torn file, even when the
    // process is panicking.
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, body).ok()?;
    std::fs::rename(&tmp, &path).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now_us(), 0);
        let g = t.span(MAIN_TID, "run", vec![]);
        assert_eq!(g.id(), 0);
        drop(g);
        t.instant(MAIN_TID, "x", vec![]);
        assert_eq!(t.count(MAIN_TID, "n", 5), 0);
        assert!(t.events().is_empty());
        assert!(t.spans().is_empty());
        assert!(t.counters().is_empty());
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let t = Tracer::enabled();
        let run = t.span(MAIN_TID, "run", vec![("seed", ArgValue::from(7u64))]);
        let run_id = run.id();
        assert!(run_id > 0);
        {
            let cell = t.span_under(worker_tid(0), "cell", run_id, vec![]);
            let inner = t.span(worker_tid(0), "simulate", vec![]);
            assert!(inner.id() > cell.id());
            drop(inner);
            drop(cell);
        }
        drop(run);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let run = by_name("run");
        let cell = by_name("cell");
        let sim = by_name("simulate");
        assert_eq!(run.parent, 0);
        assert_eq!(cell.parent, run.id, "explicit cross-track parent");
        assert_eq!(sim.parent, cell.id, "stack-derived parent");
        assert!(sim.start_us >= cell.start_us && sim.end_us <= cell.end_us);
        assert!(cell.end_us <= run.end_us);
    }

    #[test]
    fn end_closes_skipped_children() {
        // A panic unwind can drop an outer guard while an inner span is
        // still open; the inner span must still get its End event.
        let t = Tracer::enabled();
        let outer = t.begin_with(MAIN_TID, "outer", ParentSpec::FromStack, vec![]);
        let _inner = t.begin_with(MAIN_TID, "inner", ParentSpec::FromStack, vec![]);
        t.end(MAIN_TID, outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(t.worker_states().iter().all(|(_, s)| s.is_none()));
        // Ends are emitted innermost-first so B/E pairs nest.
        let kinds: Vec<(EventKind, String)> = t
            .events()
            .iter()
            .map(|e| (e.kind, e.name.clone()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Begin, "outer".to_string()),
                (EventKind::Begin, "inner".to_string()),
                (EventKind::End, "inner".to_string()),
                (EventKind::End, "outer".to_string()),
            ]
        );
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let t = Tracer::enabled();
        assert_eq!(t.count(MAIN_TID, "cells_done", 1), 1);
        assert_eq!(t.count(MAIN_TID, "cells_done", 2), 3);
        t.counter_set("cells_total", 10);
        assert_eq!(t.counter_value("cells_done"), 3);
        assert_eq!(t.counter_value("cells_total"), 10);
        assert_eq!(t.counter_value("missing"), 0);
        let c = t.counters();
        assert_eq!(c.get("cells_done"), Some(&3));
        // Two counter events were recorded (counter_set records none).
        let n = t
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Counter)
            .count();
        assert_eq!(n, 2);
    }

    #[test]
    fn complete_records_matched_pair_with_back_dated_start() {
        let t = Tracer::enabled();
        let start = t.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.complete(
            worker_tid(3),
            "queue-wait",
            start,
            vec![("slot", 0usize.into())],
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "queue-wait");
        assert_eq!(spans[0].start_us, start);
        assert!(
            spans[0].dur_us() >= 1_000,
            "slept ≥2ms: {}",
            spans[0].dur_us()
        );
    }

    #[test]
    fn phase_and_instant_totals_aggregate_by_name() {
        let t = Tracer::enabled();
        for _ in 0..3 {
            drop(t.span(MAIN_TID, "boot", vec![]));
        }
        t.instant(MAIN_TID, "retry", vec![]);
        t.instant(MAIN_TID, "retry", vec![]);
        t.instant(MAIN_TID, "quarantine", vec![]);
        let phases = t.phase_totals();
        assert_eq!(phases["boot"].count, 3);
        let instants = t.instant_totals();
        assert_eq!(instants["retry"], 2);
        assert_eq!(instants["quarantine"], 1);
    }

    #[test]
    fn open_spans_are_synthesized_closed_in_snapshots() {
        let t = Tracer::enabled();
        let _open = t.span(MAIN_TID, "run", vec![]);
        let spans = t.spans();
        assert_eq!(spans.len(), 1, "open span visible in snapshot");
        assert!(t.chrome_trace().contains("\"ph\":\"E\""));
        // The live stack is untouched by the snapshot.
        assert_eq!(t.worker_states(), vec![(MAIN_TID, Some("run".to_string()))]);
    }

    #[test]
    fn worker_states_report_current_activity() {
        let t = Tracer::enabled();
        t.set_thread_name(worker_tid(0), "worker-0");
        t.set_thread_name(worker_tid(1), "worker-1");
        let _g = t.span(worker_tid(1), "simulate", vec![]);
        let states = t.worker_states();
        assert_eq!(
            states,
            vec![
                (worker_tid(0), None),
                (worker_tid(1), Some("simulate".to_string())),
            ]
        );
    }

    #[test]
    fn panic_flush_writes_an_openable_trace() {
        let dir = std::env::temp_dir().join(format!("vax-trace-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let t = Tracer::enabled();
        let _open = t.span(MAIN_TID, "run", vec![]);
        t.register_panic_flush(&path);
        let written = panic_flush().expect("flush must happen");
        assert_eq!(written, path);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"traceEvents\""), "{body}");
        assert!(body.contains("\"ph\":\"B\"") && body.contains("\"ph\":\"E\""));
        // An actual (caught) panic also triggers the hook.
        std::fs::remove_file(&path).unwrap();
        let _ = std::panic::catch_unwind(|| panic!("injected"));
        assert!(path.is_file(), "panic hook rewrote the trace");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
