//! `reproduce serve`: the long-lived, multi-tenant characterization
//! daemon.
//!
//! One process, one [`JobEngine`], many jobs. Clients POST a
//! [`JobSpec`] (see `crate::jobspec`) and get a job ID back; the daemon
//! executes jobs one at a time, FIFO, on a single worker thread that
//! keeps the engine — and therefore the warm codegen/boot caches — alive
//! between jobs. A second job with the same experiment definition skips
//! workload generation and kernel boot entirely, and says so in its
//! `runtime.json` cache counters.
//!
//! Because a served job is materialized into the *same* option structs
//! the CLI parsers produce and handed to the *same* engine, its artifact
//! directory is byte-identical to a CLI run of the same spec (the CI
//! serve-smoke job downloads artifacts over HTTP and `cmp`s them against
//! a CLI run).
//!
//! ## Endpoints
//!
//! | Method & path                  | Purpose                                  |
//! |--------------------------------|------------------------------------------|
//! | `POST /jobs`                   | Submit a spec; `202` + job ID            |
//! | `GET /jobs`                    | List jobs, oldest first                  |
//! | `GET /jobs/:id`                | Status (+ live progress while running)   |
//! | `POST /jobs/:id/cancel`        | Cancel a queued or running job           |
//! | `GET /jobs/:id/artifacts`      | List the job's artifact files            |
//! | `GET /jobs/:id/artifacts/NAME` | Download one artifact                    |
//! | `GET /jobs/:id/events`         | ndjson status stream until terminal      |
//! | `GET /healthz`                 | Liveness + state (always `200`)          |
//! | `GET /readyz`                  | `200` when ready, `503` otherwise        |
//! | `POST /shutdown`               | Drain (same as SIGTERM)                  |
//!
//! ## Durability and recovery
//!
//! Every submission and state transition is appended to
//! `ROOT/journal.ndjson` (one fsynced `O_APPEND` line each). A daemon
//! restarted on the same `--root` replays the journal before accepting
//! traffic: terminal jobs keep their status (and their downloadable
//! artifacts), still-queued jobs are re-enqueued, and a job that was
//! mid-run is re-enqueued first. A measurement run whose checkpoint
//! header survived resumes from its per-cell journal under its own spec:
//! the request is the one a fresh run of the spec gets, with its
//! `strict`, `jobs` and `retries`, sent as `JobRequest::Resume` (what
//! `reproduce resume` sends, in-process). So the recovered artifacts are
//! byte-identical to an uninterrupted run. On startup the replayed
//! history is compacted to one folded record per job.
//!
//! ## Lifecycle and drain
//!
//! `SIGTERM`/`SIGINT` (or `POST /shutdown`) puts the daemon into drain:
//! new submissions get `503`, the running job finishes cleanly, and the
//! process exits 0. Jobs still queued at drain stay journaled as queued
//! and are recovered by the next daemon on the same root; a measurement
//! run interrupted harder than that is recoverable via `reproduce
//! resume` from its checkpoint journal (`docs/ROBUSTNESS.md`).
//!
//! Nothing on the request path sleeps. The accept loop blocks in
//! `accept()`; when the worker returns after a drain it connects once to
//! the listener to wake the loop so it can exit. A signal handler only
//! sets a flag, which a watcher thread turns into a drain. The worker and
//! the events streams wait on the registry's condvar, which every
//! submission, state transition and drain notifies. Connection handler
//! threads wait for the next connection instead of exiting, so a steady
//! client is served by the same thread. A finished job keeps only its
//! registry entry in memory; its journal records live on disk.
//!
//! Protocol plumbing (parsing, limits, serialization) lives in the
//! dependency-free `vax_serve` crate; this module owns the registry, the
//! journal, the worker, and the HTTP surface. See `docs/SERVICE.md`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use vax780::{CancelKind, CancelToken};
use vax_analysis::Json;
use vax_serve::{write_streaming_head, HttpError, Request, Response};
use vax_trace::{Tracer, MAIN_TID};

use crate::cache::WarmCaches;
use crate::cli::{Format, ServeOptions};
use crate::engine::{JobEngine, JobOutcome, JobRequest};
use crate::fsio::write_atomic;
use crate::heartbeat::progress_line;
use crate::jobspec::JobSpec;
use crate::progress::{Progress, Verbosity};

/// How often the signal watcher checks for SIGTERM/SIGINT, and how long
/// the accept loop backs off after a failed `accept()`.
const POLL: Duration = Duration::from_millis(50);
/// Events-stream sampling period while a job's state holds.
const EVENTS_PERIOD: Duration = Duration::from_millis(200);
/// Per-connection socket timeout: a stalled client cannot pin its
/// handler thread forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest a shed connection waits for its client to close.
const LINGER: Duration = Duration::from_secs(1);
/// Most unfinished (queued + running) jobs admitted at once.
const MAX_PENDING_JOBS: usize = 64;
/// File name of the durable job journal under the serve root.
const JOURNAL_NAME: &str = "journal.ndjson";

/// Where a job is in its life.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    /// Terminal; `code` 0 = done, nonzero = failed.
    Finished {
        code: i32,
    },
    /// Terminal; stopped by `POST /jobs/:id/cancel` or an expired
    /// `deadline_secs`. Completed cells stay checkpointed.
    Canceled {
        kind: CancelKind,
    },
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Finished { code: 0 } => "done",
            JobState::Finished { .. } => "failed",
            JobState::Canceled { kind } => kind.name(),
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(self, JobState::Finished { .. } | JobState::Canceled { .. })
    }

    /// The exit code of a `done` or `failed` job.
    fn code(&self) -> Option<i32> {
        match self {
            JobState::Finished { code } => Some(*code),
            _ => None,
        }
    }
}

/// One submitted job.
#[derive(Debug)]
struct Job {
    id: String,
    spec: JobSpec,
    dir: PathBuf,
    state: JobState,
    /// The running job's tracer (live progress source); dropped when the
    /// job turns terminal, by which time `runtime.json` holds its totals.
    tracer: Option<Tracer>,
    started: Option<Instant>,
    /// The running job's cancel token; inert until the job starts.
    cancel: CancelToken,
    /// Restored from the journal in a non-terminal state by a restarted
    /// daemon (counts toward the `recovering` health state).
    recovered: bool,
}

/// The durable job journal: newline-delimited JSON under the serve root.
/// Each append is one `O_APPEND` line write plus fsync — O(1) per state
/// transition regardless of history length (rewriting the full file per
/// append would be O(n²) write amplification over a daemon's lifetime).
/// A crash can tear at most the trailing line, which replay already
/// warns about and skips; startup compaction then rewrites the file
/// atomically to one folded record per job, healing any damage. The file
/// is the journal: no record is kept in memory.
#[derive(Debug, Default)]
struct Journal {
    /// `None` journals nowhere (unit tests).
    path: Option<PathBuf>,
}

impl Journal {
    fn at(path: PathBuf) -> Journal {
        Journal { path: Some(path) }
    }

    /// Durably append one record. A write failure is warned about, not
    /// fatal: the daemon keeps serving (degraded durability beats
    /// refusing work).
    fn append(&self, record: &Json) {
        let Some(path) = &self.path else { return };
        if let Err(e) = append_line(path, &record.to_string_compact()) {
            eprintln!(
                "reproduce serve: cannot append to journal {}: {e}",
                path.display()
            );
        }
    }

    /// Rewrite the whole journal atomically as `lines` — the startup
    /// compaction path, not the append path. Failures are warned about,
    /// not fatal.
    fn rewrite(&self, lines: &[String]) {
        let Some(path) = &self.path else { return };
        let mut text = lines.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        if let Err(e) = write_atomic(path, &text) {
            eprintln!(
                "reproduce serve: cannot write journal {}: {e}",
                path.display()
            );
        }
    }
}

/// One `O_APPEND` write of `line` + newline, fsynced before returning so
/// the record is durable when the caller's state transition proceeds.
fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(format!("{line}\n").as_bytes())?;
    file.sync_data()
}

/// A submission record: carries the canonical spec so a restart can
/// rebuild the job without trusting anything else on disk.
fn journal_submit(id: &str, spec: &JobSpec) -> Json {
    Json::obj([
        ("id", Json::from(id)),
        ("state", "queued".into()),
        ("spec", spec.encode()),
    ])
}

/// A state-transition record (`code` only for `done`/`failed`).
fn journal_state(id: &str, state: &str, code: Option<i32>) -> Json {
    Json::obj([
        ("id", Json::from(id)),
        ("state", state.into()),
        ("code", code.map_or(Json::Null, |c| i64::from(c).into())),
    ])
}

/// The compacted form: one record carrying a job's spec and last state.
fn folded_record(id: &str, spec: &JobSpec, state: &JobState) -> Json {
    Json::obj([
        ("id", Json::from(id)),
        ("state", state.name().into()),
        (
            "code",
            match state {
                JobState::Finished { code } => i64::from(*code).into(),
                _ => Json::Null,
            },
        ),
        ("spec", spec.encode()),
    ])
}

/// The sequence number a job ID encodes (`j-000042` → 42).
fn id_seq(id: &str) -> u64 {
    id.strip_prefix("j-")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// One job reconstructed from the journal.
#[derive(Debug)]
struct ReplayedJob {
    id: String,
    spec: JobSpec,
    /// `Queued` for any job that was not terminal — a crashed `running`
    /// job goes back to the queue (it re-runs or resumes).
    state: JobState,
    /// True when the job still needs to run to completion.
    recovered: bool,
}

/// Fold the journal into per-job records, in ID (= submission) order.
/// Corrupt lines and jobs with no recoverable spec are skipped with a
/// warning — a damaged journal degrades, it does not brick the daemon.
fn replay_journal(text: &str) -> (Vec<ReplayedJob>, Vec<String>) {
    #[derive(Default)]
    struct Folded {
        spec: Option<JobSpec>,
        state: String,
        code: Option<i32>,
    }
    let mut warnings = Vec::new();
    let mut folded: BTreeMap<String, Folded> = BTreeMap::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let record = match Json::parse(line) {
            Ok(j) => j,
            Err(e) => {
                warnings.push(format!("journal: skipping corrupt line: {e}"));
                continue;
            }
        };
        let Some(id) = record.get("id").and_then(Json::as_str) else {
            warnings.push("journal: skipping record without an 'id'".to_string());
            continue;
        };
        let entry = folded.entry(id.to_string()).or_default();
        if let Some(spec_json) = record.get("spec") {
            match JobSpec::decode(&spec_json.to_string_compact()) {
                Ok(spec) => entry.spec = Some(spec),
                Err(e) => warnings.push(format!("journal: job {id}: unreadable spec: {e}")),
            }
        }
        if let Some(state) = record.get("state").and_then(Json::as_str) {
            entry.state = state.to_string();
        }
        if let Some(code) = record.get("code").and_then(Json::as_i64) {
            entry.code = Some(code as i32);
        }
    }
    let mut jobs = Vec::new();
    for (id, f) in folded {
        let Some(spec) = f.spec else {
            warnings.push(format!("journal: job {id} has no spec record; dropping it"));
            continue;
        };
        let (state, recovered) = match f.state.as_str() {
            "queued" | "running" => (JobState::Queued, true),
            "done" | "failed" => {
                let fallback = i32::from(f.state == "failed");
                (
                    JobState::Finished {
                        code: f.code.unwrap_or(fallback),
                    },
                    false,
                )
            }
            other => match CancelKind::parse(other) {
                Some(kind) => (JobState::Canceled { kind }, false),
                None => {
                    warnings.push(format!(
                        "journal: job {id} has unknown state '{other}'; re-queueing it"
                    ));
                    (JobState::Queued, true)
                }
            },
        };
        jobs.push(ReplayedJob {
            id,
            spec,
            state,
            recovered,
        });
    }
    (jobs, warnings)
}

/// Registry guarded by one mutex; the condvar wakes the worker and the
/// events streams.
#[derive(Debug, Default)]
struct Registry {
    jobs: BTreeMap<String, Job>,
    /// Submission order (BTreeMap iteration order matches because IDs
    /// are zero-padded sequence numbers, but the queue is authoritative).
    queue: VecDeque<String>,
    next_seq: u64,
    journal: Journal,
}

/// Everything the connection handlers, worker, and accept loop share.
#[derive(Debug)]
struct Shared {
    opts: ServeOptions,
    registry: Mutex<Registry>,
    /// Notified on every registry change a thread waits for: a
    /// submission (the worker), a job state transition (events streams),
    /// and the start of a drain (both).
    wake: Condvar,
    /// Set by SIGTERM/SIGINT or `POST /shutdown` through [`begin_drain`]:
    /// refuse new jobs, finish the current one, exit.
    draining: AtomicBool,
    /// Set when the worker is gone; the accept loop exits on the
    /// connection the worker makes to wake it ([`WorkerExit`]).
    stopped: AtomicBool,
    /// Journal-recovered jobs not yet terminal; `/readyz` reports
    /// `recovering` (503) until this drains to zero.
    recovering: AtomicUsize,
    /// In-flight connections, for the `--max-connections` load-shed cap.
    connections: AtomicUsize,
}

impl Shared {
    fn new(opts: ServeOptions, registry: Registry, recovering: usize) -> Shared {
        Shared {
            opts,
            registry: Mutex::new(registry),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            recovering: AtomicUsize::new(recovering),
            connections: AtomicUsize::new(0),
        }
    }
}

/// One claimed slot under the `--max-connections` cap. Claiming and
/// releasing go through this guard so the count stays balanced on every
/// exit path — including a panicking handler thread, which would
/// otherwise leak its slot forever and eventually wedge the load-shed
/// path into answering 503 to all traffic.
struct ConnectionSlot(Arc<Shared>);

impl ConnectionSlot {
    /// Claim a slot; returns the guard and the in-flight count after
    /// claiming (for the over-cap check).
    fn acquire(shared: &Arc<Shared>) -> (ConnectionSlot, usize) {
        let active = shared.connections.fetch_add(1, Ordering::SeqCst) + 1;
        (ConnectionSlot(Arc::clone(shared)), active)
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Lock the registry, recovering from a poisoned mutex: a handler
/// thread that panicked mid-update must not wedge every future request,
/// and registry updates are small enough that the state a panicking
/// thread leaves behind is still coherent (worst case, a job stays in
/// its previous state).
fn lock_registry(shared: &Shared) -> MutexGuard<'_, Registry> {
    shared
        .registry
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Start a drain and wake every waiter. The flag is set under the
/// registry lock, so a thread that checks it before waiting on
/// [`Shared::wake`] cannot miss the notification.
fn begin_drain(shared: &Shared) {
    let _reg = lock_registry(shared);
    shared.draining.store(true, Ordering::SeqCst);
    shared.wake.notify_all();
}

/// Move job `id` to `state`, journal the transition, and wake every
/// waiter. A terminal job drops its tracer: the engine has written
/// `runtime.json` by then, so a finished job costs only its registry
/// entry.
fn transition(shared: &Shared, reg: &mut Registry, id: &str, state: JobState) {
    reg.journal
        .append(&journal_state(id, state.name(), state.code()));
    if let Some(job) = reg.jobs.get_mut(id) {
        if state.is_terminal() {
            job.tracer = None;
        }
        job.state = state;
    }
    shared.wake.notify_all();
}

/// The daemon's coarse health: `draining` > `recovering` > `ready`.
fn health_state(shared: &Shared) -> &'static str {
    if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else if shared.recovering.load(Ordering::SeqCst) > 0 {
        "recovering"
    } else {
        "ready"
    }
}

#[cfg(unix)]
mod sig {
    //! Minimal signal hookup without a libc crate: `signal(2)` is in
    //! every libc this build links anyway, and an `AtomicBool` store is
    //! async-signal-safe. A watcher thread polls the flag
    //! (`watch_signals`).
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERMINATE: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_terminate(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            let handler = on_terminate as extern "C" fn(i32) as usize;
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn pending() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
}

/// Run the daemon until drained. Returns the process exit code. Every
/// thread it starts is joined before it returns.
pub fn run_serve(opts: &ServeOptions) -> i32 {
    let progress = Progress::new(opts.verbosity);
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("reproduce serve: cannot bind {}: {e}", opts.addr);
            return 1;
        }
    };
    let bound = match listener.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("reproduce serve: cannot read the bound address: {e}");
            return 1;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.root) {
        eprintln!(
            "reproduce serve: cannot create {}: {e}",
            opts.root.display()
        );
        return 1;
    }
    sig::install();

    // Replay the journal before accepting traffic: a restart on the
    // same root picks up exactly where the previous daemon died.
    let journal_path = opts.root.join(JOURNAL_NAME);
    let journal_text = match std::fs::read_to_string(&journal_path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            eprintln!(
                "reproduce serve: cannot read journal {}: {e}",
                journal_path.display()
            );
            String::new()
        }
    };
    let (replayed, warnings) = replay_journal(&journal_text);
    for w in &warnings {
        progress.warn(w);
    }
    let mut registry = Registry {
        journal: Journal::at(journal_path),
        ..Registry::default()
    };
    let mut recovering = 0usize;
    for rj in replayed {
        registry.next_seq = registry.next_seq.max(id_seq(&rj.id));
        if rj.recovered {
            // ID order is submission order, so the job that was running
            // when the daemon died lands at the front again.
            registry.queue.push_back(rj.id.clone());
            recovering += 1;
        }
        let dir = opts.root.join(&rj.id);
        registry.jobs.insert(
            rj.id.clone(),
            Job {
                id: rj.id,
                spec: rj.spec,
                dir,
                state: rj.state,
                tracer: None,
                started: None,
                cancel: CancelToken::default(),
                recovered: rj.recovered,
            },
        );
    }
    if !registry.jobs.is_empty() || !journal_text.is_empty() {
        // Startup compaction: the replayed history collapses to one
        // folded record per job.
        let folded: Vec<String> = registry
            .jobs
            .values()
            .map(|j| folded_record(&j.id, &j.spec, &j.state).to_string_compact())
            .collect();
        registry.journal.rewrite(&folded);
        progress.info(&format!(
            "journal replay: {} job(s), {} to finish",
            registry.jobs.len(),
            recovering
        ));
    }

    let shared = Arc::new(Shared::new(opts.clone(), registry, recovering));
    progress.info(&format!(
        "serving on http://{bound} (root {})",
        opts.root.display()
    ));

    let worker = {
        let exit = WorkerExit {
            shared: Arc::clone(&shared),
            listener: loopback_if_unspecified(bound),
        };
        std::thread::spawn(move || worker_loop(&exit.shared))
    };
    let watcher = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || watch_signals(&shared))
    };

    // The accept loop outlives the drain signal: status, artifact, and
    // events requests keep working while the running job finishes. It
    // ends on the connection the worker makes when it is gone.
    let mut handlers = Handlers::new();
    let mut shedders: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if shared.stopped.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            Err(e) => {
                // Back off, so a lasting failure (out of file
                // descriptors) cannot spin the loop.
                eprintln!("reproduce serve: accept failed: {e}");
                std::thread::sleep(POLL);
                continue;
            }
        };
        let (slot, active) = ConnectionSlot::acquire(&shared);
        if active > shared.opts.max_connections {
            // Load-shed: the connection holds no slot; a short-lived
            // thread answers it and closes it.
            drop(slot);
            shedders.retain(|h| !h.is_finished());
            shedders.push(std::thread::spawn(move || shed(stream)));
        } else {
            handlers.dispatch(stream, slot, &shared);
        }
    }

    progress.info("draining: finishing the running job");
    let _ = worker.join();
    watcher.thread().unpark();
    let _ = watcher.join();
    handlers.join();
    for h in shedders {
        let _ = h.join();
    }
    progress.info("drained cleanly");
    0
}

/// An accepted connection and its slot under the cap, on its way to a
/// handler thread.
type Handoff = (TcpStream, ConnectionSlot);

/// The connection handler threads. A handler that has answered its
/// connection waits for the next one instead of exiting, and the accept
/// loop starts a thread only when none is waiting. The pool grows to the
/// most connections ever open at once (at most `--max-connections`), and
/// a client that sends one request at a time is served by one thread for
/// the daemon's life. Handlers must not exit between jobs: glibc gives a
/// new thread the malloc arena of the thread that exited last, so a
/// handler exiting just before a job's pool thread starts would move that
/// job's memory to another arena, every arena a job has used keeps its
/// freed memory resident, and the daemon's peak memory would depend on
/// thread timing.
struct Handlers {
    /// Handlers that have answered their connection and not yet been
    /// handed another.
    idle: Arc<AtomicUsize>,
    sender: Sender<Handoff>,
    receiver: Arc<Mutex<Receiver<Handoff>>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Handlers {
    fn new() -> Handlers {
        let (sender, receiver) = channel();
        Handlers {
            idle: Arc::new(AtomicUsize::new(0)),
            sender,
            receiver: Arc::new(Mutex::new(receiver)),
            threads: Vec::new(),
        }
    }

    /// Hand a connection to a waiting handler, or start one for it.
    fn dispatch(&mut self, stream: TcpStream, slot: ConnectionSlot, shared: &Arc<Shared>) {
        let claimed = self
            .idle
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if claimed.is_ok() {
            // The receiver lives as long as `self`, so the send cannot
            // fail; the claimed handler takes it from the queue.
            let _ = self.sender.send((stream, slot));
            return;
        }
        let idle = Arc::clone(&self.idle);
        let receiver = Arc::clone(&self.receiver);
        let shared = Arc::clone(shared);
        self.threads.push(std::thread::spawn(move || {
            handler_loop((stream, slot), &receiver, &idle, &shared);
        }));
    }

    /// Close the queue and join every handler; a busy one finishes its
    /// connection first.
    fn join(self) {
        drop(self.sender);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// One handler thread: serve `first`, then every connection handed to it,
/// until the accept loop closes the queue.
fn handler_loop(
    first: Handoff,
    receiver: &Mutex<Receiver<Handoff>>,
    idle: &AtomicUsize,
    shared: &Shared,
) {
    let mut next = first;
    loop {
        let (stream, slot) = next;
        handle_connection(&stream, shared);
        // Free the slot and report this handler idle before the
        // connection closes, so a client that has read its whole answer
        // and reconnects at once never finds its connection still
        // counted or this handler still busy. The guard rides into the
        // handler thread so even a panic unwinds through its Drop.
        drop(slot);
        idle.fetch_add(1, Ordering::SeqCst);
        drop(stream);
        let handoff = receiver
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        match handoff {
            Ok(handoff) => next = handoff,
            Err(_) => return,
        }
    }
}

/// Answer a connection over the `--max-connections` cap with 503 and
/// `Retry-After`, then close it lingering: closing with the client's
/// request unread would make the kernel reset the connection, and the
/// client could lose the answer. So stop writing, and discard what the
/// client sends until it closes, for at most [`LINGER`] in all.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let _ = error_response(503, "connection limit reached; retry shortly")
        .with_header("Retry-After", "1")
        .write(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut buf = [0u8; 4096];
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        if matches!(stream.read(&mut buf), Ok(0) | Err(_)) {
            break;
        }
    }
}

/// The address that reaches `bound` from this host: itself, or the
/// loopback address of its family when the listener is bound to an
/// unspecified address (`0.0.0.0`, `::`).
fn loopback_if_unspecified(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        let loopback: IpAddr = match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        bound.set_ip(loopback);
    }
    bound
}

/// Owned by the worker thread. Its drop, when the worker returns after a
/// drain or unwinds, marks the daemon stopped and connects once to the
/// listener, which wakes the accept loop out of `accept()` so it can
/// exit.
struct WorkerExit {
    shared: Arc<Shared>,
    listener: SocketAddr,
}

impl Drop for WorkerExit {
    fn drop(&mut self) {
        // A worker that died without a drain runs no more jobs either.
        begin_drain(&self.shared);
        self.shared.stopped.store(true, Ordering::SeqCst);
        if let Err(e) = TcpStream::connect(self.listener) {
            eprintln!(
                "reproduce serve: cannot wake the accept loop at {}: {e}",
                self.listener
            );
        }
    }
}

/// Turn SIGTERM/SIGINT, which only set `sig::TERMINATE`, into a drain.
/// Ticks every [`POLL`], off the request path, and ends once the daemon
/// is draining (`run_serve` unparks it to end it at once).
fn watch_signals(shared: &Shared) {
    while !shared.draining.load(Ordering::SeqCst) {
        if sig::pending() {
            begin_drain(shared);
            return;
        }
        std::thread::park_timeout(POLL);
    }
}

/// The single job-executing thread. One [`JobEngine`] lives here for the
/// daemon's whole life, over a cache that retains boot images — that is
/// the warm-cache tenancy.
fn worker_loop(shared: &Shared) {
    let engine = JobEngine::with_caches(Arc::new(WarmCaches::new()));
    loop {
        let next = {
            let reg = lock_registry(shared);
            let mut reg = shared
                .wake
                .wait_while(reg, |reg| {
                    !shared.draining.load(Ordering::SeqCst) && reg.queue.is_empty()
                })
                .unwrap_or_else(PoisonError::into_inner);
            // Check drain BEFORE claiming: a job left queued at drain
            // stays journaled as queued, so the next daemon on this root
            // recovers it.
            if shared.draining.load(Ordering::SeqCst) {
                None
            } else {
                reg.queue.pop_front()
            }
        };
        let Some(id) = next else { return };
        execute_job(shared, &engine, &id);
    }
}

/// Run one job start to finish, updating the registry and journal
/// around it. A recovered run job resumes from its checkpoints when the
/// checkpoint header survived; cancellation and deadlines stop it
/// through the job's [`CancelToken`].
fn execute_job(shared: &Shared, engine: &JobEngine, id: &str) {
    let tracer = Tracer::enabled();
    let cancel = CancelToken::new();
    let recover_start = tracer.now_us();
    let (spec, dir, recovered) = {
        let mut reg = lock_registry(shared);
        let Some(job) = reg.jobs.get_mut(id) else {
            return;
        };
        if job.state != JobState::Queued {
            // Canceled between enqueue and claim; nothing to run.
            return;
        }
        job.tracer = Some(tracer.clone());
        job.started = Some(Instant::now());
        job.cancel = cancel.clone();
        let picked = (job.spec.clone(), job.dir.clone(), job.recovered);
        transition(shared, &mut reg, id, JobState::Running);
        picked
    };
    // JobSpec::decode bounds deadline_secs, but a worker panic here is a
    // daemon outage (and a journaled job would replay the panic on every
    // restart), so conversion stays fallible: an unconvertible budget
    // means no deadline, never an unwind.
    if let Some(budget) = spec
        .deadline_secs()
        .and_then(|s| Duration::try_from_secs_f64(s).ok())
    {
        cancel.arm_deadline(budget);
    }
    // A recovered measurement run with an intact checkpoint header picks
    // up from its per-cell journal instead of starting over.
    let resumed =
        recovered && matches!(spec, JobSpec::Run(_)) && crate::resume::header_path(&dir).exists();
    if recovered {
        // Recorded before execution so it lands in this job's trace and
        // runtime.json: the span covers the recovery decision.
        tracer.complete(
            MAIN_TID,
            "recover",
            recover_start,
            vec![("resumed", u64::from(resumed).into())],
        );
        tracer.count(MAIN_TID, "jobs_recovered", 1);
        if resumed {
            tracer.count(MAIN_TID, "jobs_resumed", 1);
        }
    }
    let outcome = match build_request(&spec, &dir, resumed, &shared.opts, &cancel) {
        Ok(req) => engine.execute_traced(&req, &tracer),
        Err(msg) => {
            eprintln!("reproduce serve: job {id}: {msg}");
            JobOutcome {
                code: 1,
                stdout: String::new(),
                canceled: None,
            }
        }
    };
    // The engine latched the cancel cause it acted on; re-polling the
    // token here would race a deadline that elapsed *after* the run
    // finished and exported, mislabeling a completed job as
    // deadline_exceeded (final artifacts exist exactly when the engine
    // says the job was not canceled).
    let terminal = match outcome.canceled {
        Some(kind) => JobState::Canceled { kind },
        None => JobState::Finished { code: outcome.code },
    };
    // Persist what the CLI would have printed, so it is a downloadable
    // artifact and part of the byte-identity contract.
    if !outcome.stdout.is_empty() {
        if let Err(e) = write_atomic(&dir.join("output.txt"), &outcome.stdout) {
            eprintln!("reproduce serve: job {id}: cannot write output.txt: {e}");
        }
    }
    let status = state_json(id, spec.kind(), &terminal);
    if let Err(e) = write_atomic(&dir.join("status.json"), &status.to_string_pretty()) {
        eprintln!("reproduce serve: job {id}: cannot write status.json: {e}");
    }
    transition(shared, &mut lock_registry(shared), id, terminal);
    if recovered {
        shared.recovering.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Materialize the engine request for a spec: the daemon's runtime knobs
/// (artifact dir, JSON format, quiet narration, default parallelism,
/// cancel token) on top of the spec's experiment definition. With
/// `resume` (a recovered run job whose checkpoint header survived) a run
/// spec becomes `JobRequest::Resume` of the same options, so the job
/// finishes from its checkpoints under its own knobs.
fn build_request(
    spec: &JobSpec,
    dir: &Path,
    resume: bool,
    opts: &ServeOptions,
    cancel: &CancelToken,
) -> Result<JobRequest, String> {
    match spec {
        JobSpec::Run(_) => {
            let mut run = spec.to_run_options(opts.jobs, opts.retries);
            run.format = Format::Json;
            run.out = Some(dir.to_path_buf());
            run.verbosity = Verbosity::Quiet;
            run.cancel = cancel.clone();
            Ok(if resume {
                JobRequest::Resume(run)
            } else {
                JobRequest::Run(run)
            })
        }
        JobSpec::Characterize(_) => {
            let mut ch = spec.to_characterize_options(opts.jobs, opts.retries);
            ch.out = Some(dir.to_path_buf());
            ch.verbosity = Verbosity::Quiet;
            ch.cancel = cancel.clone();
            Ok(JobRequest::Characterize(ch))
        }
        JobSpec::Refute(r) => {
            let mut ch = spec.to_characterize_options(opts.jobs, opts.retries);
            ch.out = Some(dir.to_path_buf());
            ch.verbosity = Verbosity::Quiet;
            ch.cancel = cancel.clone();
            ch.fixtures = Some(dir.join("fixtures"));
            if let Some(model) = &r.model {
                let path = dir.join("model.json");
                write_atomic(&path, &model.to_string_pretty())
                    .map_err(|e| format!("cannot write model.json: {e}"))?;
                ch.model_file = Some(path);
            }
            Ok(JobRequest::Refute(ch))
        }
    }
}

/// Serve one connection: read a request, route it, answer. The caller
/// closes the connection.
fn handle_connection(stream: &TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let mut stream = stream;
    let req = match Request::read(&mut reader) {
        Ok(req) => req,
        Err(HttpError::Closed | HttpError::Io(_)) => return,
        Err(HttpError::BadRequest(msg)) => {
            let _ = error_response(400, &msg).write(&mut stream);
            return;
        }
        Err(HttpError::TooLarge(msg)) => {
            let _ = error_response(413, &msg).write(&mut stream);
            return;
        }
    };
    let segments: Vec<String> = req
        .path_segments()
        .into_iter()
        .map(str::to_string)
        .collect();
    let segs: Vec<&str> = segments.iter().map(String::as_str).collect();
    let response = match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["jobs"]) => submit_job(&req, shared),
        ("GET", ["jobs"]) => list_jobs(shared),
        ("GET", ["jobs", id]) => job_status(shared, id),
        ("POST", ["jobs", id, "cancel"]) => cancel_job(shared, id),
        ("GET", ["jobs", id, "artifacts"]) => list_artifacts(shared, id),
        ("GET", ["jobs", id, "artifacts", name]) => get_artifact(shared, id, name),
        ("GET", ["jobs", id, "events"]) => {
            // Streams directly on the socket; no Response to send after.
            stream_events(&mut stream, shared, id, EVENTS_PERIOD);
            return;
        }
        ("GET", ["healthz"]) => {
            let body = Json::obj([("state", Json::from(health_state(shared)))]);
            Response::json(200, &body.to_string_compact())
        }
        ("GET", ["readyz"]) => {
            let state = health_state(shared);
            let body = Json::obj([("state", Json::from(state))]).to_string_compact();
            let status = if state == "ready" { 200 } else { 503 };
            Response::json(status, &body)
        }
        ("POST", ["shutdown"]) => {
            begin_drain(shared);
            Response::json(202, "{\"draining\": true}")
        }
        (_, ["jobs", ..] | ["shutdown"] | ["healthz"] | ["readyz"]) => {
            error_response(405, "method not allowed")
        }
        _ => error_response(404, "no such resource"),
    };
    let _ = response.write(&mut stream);
}

/// A JSON error body: `{"error": "..."}`.
fn error_response(status: u16, msg: &str) -> Response {
    let body = Json::obj([("error", Json::from(msg))]);
    Response::json(status, &body.to_string_compact())
}

/// `POST /jobs`: validate the spec, journal it, persist it, enqueue.
fn submit_job(req: &Request, shared: &Shared) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return error_response(503, "draining: not accepting new jobs");
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    // Decode errors carry byte offsets (syntax) or field names
    // (validation) — forward them verbatim as the 400 body.
    let spec = match JobSpec::decode(text) {
        Ok(spec) => spec,
        Err(msg) => return error_response(400, &msg),
    };
    let (id, dir) = {
        let mut reg = lock_registry(shared);
        let pending = reg.jobs.values().filter(|j| !j.state.is_terminal()).count();
        if pending >= MAX_PENDING_JOBS {
            return error_response(503, "job queue is full");
        }
        reg.next_seq += 1;
        let id = format!("j-{:06}", reg.next_seq);
        let dir = shared.opts.root.join(&id);
        reg.jobs.insert(
            id.clone(),
            Job {
                id: id.clone(),
                spec: spec.clone(),
                dir: dir.clone(),
                state: JobState::Queued,
                tracer: None,
                started: None,
                cancel: CancelToken::default(),
                recovered: false,
            },
        );
        let record = journal_submit(&id, &spec);
        reg.journal.append(&record);
        (id, dir)
    };
    // The canonical spec (defaults materialized) is the job's first
    // artifact: it documents exactly what will run, and `reproduce` can
    // be pointed at it to reproduce the job offline.
    let persisted = std::fs::create_dir_all(&dir)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            write_atomic(&dir.join("spec.json"), &spec.encode().to_string_pretty())
                .map_err(|e| e.to_string())
        });
    if let Err(e) = persisted {
        // The job was journaled, so mark it failed rather than erasing
        // it: the live registry and a replayed registry must agree.
        transition(
            shared,
            &mut lock_registry(shared),
            &id,
            JobState::Finished { code: 1 },
        );
        return error_response(500, &format!("cannot persist job: {e}"));
    }
    {
        // Claimable only once its spec is durable on disk.
        let mut reg = lock_registry(shared);
        reg.queue.push_back(id.clone());
    }
    shared.wake.notify_all();
    let body = Json::obj([
        ("id", Json::from(id.as_str())),
        ("kind", spec.kind().into()),
        ("status", "queued".into()),
    ]);
    Response::json(202, &body.to_string_compact()).with_header("Location", &format!("/jobs/{id}"))
}

/// `POST /jobs/:id/cancel`: a queued job goes terminal on the spot; a
/// running job gets its token fired, and goes terminal once its running
/// cells stop (checkpoints of completed cells are preserved).
fn cancel_job(shared: &Shared, id: &str) -> Response {
    let mut reg = lock_registry(shared);
    let state = match reg.jobs.get(id) {
        None => return error_response(404, &format!("no job '{id}'")),
        Some(job) => job.state.clone(),
    };
    match state {
        JobState::Queued => {
            let (dir, kind, was_recovered) = match reg.jobs.get(id) {
                Some(job) => (job.dir.clone(), job.spec.kind(), job.recovered),
                None => return error_response(404, &format!("no job '{id}'")),
            };
            reg.queue.retain(|q| q != id);
            let canceled = JobState::Canceled {
                kind: CancelKind::Canceled,
            };
            let status = state_json(id, kind, &canceled);
            transition(shared, &mut reg, id, canceled);
            drop(reg);
            if was_recovered {
                shared.recovering.fetch_sub(1, Ordering::SeqCst);
            }
            // Best-effort status artifact; the dir may not exist if the
            // job's spec never persisted.
            if dir.is_dir() {
                if let Err(e) = write_atomic(&dir.join("status.json"), &status.to_string_pretty()) {
                    eprintln!("reproduce serve: job {id}: cannot write status.json: {e}");
                }
            }
            Response::json(200, &status.to_string_compact())
        }
        JobState::Running => {
            if let Some(job) = reg.jobs.get(id) {
                job.cancel.cancel();
            }
            drop(reg);
            let body = Json::obj([("id", Json::from(id)), ("status", "canceling".into())]);
            Response::json(202, &body.to_string_compact())
        }
        terminal => error_response(
            409,
            &format!("job '{id}' is {}; nothing to cancel", terminal.name()),
        ),
    }
}

/// A job's `{id, kind, status, code}` object: its `status.json` once
/// terminal, and the head of its `GET /jobs/:id` body.
fn state_json(id: &str, kind: &str, state: &JobState) -> Json {
    Json::obj([
        ("id", Json::from(id)),
        ("kind", kind.into()),
        ("status", state.name().into()),
        (
            "code",
            state.code().map_or(Json::Null, |c| i64::from(c).into()),
        ),
    ])
}

/// One job's status object (registry must be locked by the caller).
fn status_json(job: &Job) -> Json {
    let mut status = state_json(&job.id, job.spec.kind(), &job.state);
    if let (JobState::Running, Some(tracer), Some(started), Json::Obj(m)) =
        (&job.state, &job.tracer, job.started, &mut status)
    {
        let elapsed_ms = started.elapsed().as_millis() as u64;
        m.push(("progress".into(), progress_line(tracer, elapsed_ms)));
    }
    status
}

/// `GET /jobs`: every job, submission order.
fn list_jobs(shared: &Shared) -> Response {
    let reg = lock_registry(shared);
    let jobs = Json::arr(reg.jobs.values().map(status_json));
    Response::json(200, &Json::obj([("jobs", jobs)]).to_string_pretty())
}

/// `GET /jobs/:id`.
fn job_status(shared: &Shared, id: &str) -> Response {
    let reg = lock_registry(shared);
    match reg.jobs.get(id) {
        Some(job) => Response::json(200, &status_json(job).to_string_pretty()),
        None => error_response(404, &format!("no job '{id}'")),
    }
}

/// Look up a *terminal* job's directory; the common gate for the
/// artifact endpoints (serving a half-written directory would hand out
/// torn reads). Canceled jobs count: whatever they checkpointed is
/// stable and downloadable.
fn finished_job_dir(shared: &Shared, id: &str) -> Result<PathBuf, Response> {
    let reg = lock_registry(shared);
    match reg.jobs.get(id) {
        None => Err(error_response(404, &format!("no job '{id}'"))),
        Some(job) if job.state.is_terminal() => Ok(job.dir.clone()),
        Some(job) => Err(error_response(
            409,
            &format!(
                "job '{id}' is {}; artifacts appear when it finishes",
                job.state.name()
            ),
        )),
    }
}

/// `GET /jobs/:id/artifacts`: sorted file listing.
fn list_artifacts(shared: &Shared, id: &str) -> Response {
    let dir = match finished_job_dir(shared, id) {
        Ok(dir) => dir,
        Err(resp) => return resp,
    };
    let mut names: Vec<String> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .collect(),
        Err(e) => return error_response(500, &format!("cannot list artifacts: {e}")),
    };
    names.sort();
    let body = Json::obj([(
        "artifacts",
        Json::arr(names.iter().map(|n| n.as_str().into())),
    )]);
    Response::json(200, &body.to_string_pretty())
}

/// `GET /jobs/:id/artifacts/NAME`: download one file. `NAME` must be a
/// bare file name — anything that could escape the job directory
/// (separators, `..`) is rejected before touching the filesystem.
fn get_artifact(shared: &Shared, id: &str, name: &str) -> Response {
    let dir = match finished_job_dir(shared, id) {
        Ok(dir) => dir,
        Err(resp) => return resp,
    };
    if name.is_empty()
        || name == "."
        || name == ".."
        || name.contains(['/', '\\'])
        || name.contains('\0')
    {
        return error_response(404, "no such artifact");
    }
    let path = dir.join(name);
    match std::fs::read(&path) {
        Ok(bytes) => {
            let content_type = match path.extension().and_then(|e| e.to_str()) {
                Some("json") => "application/json",
                Some("csv") => "text/csv",
                _ => "text/plain; charset=utf-8",
            };
            Response {
                status: 200,
                headers: vec![("Content-Type".to_string(), content_type.to_string())],
                body: bytes,
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            error_response(404, &format!("no artifact '{name}'"))
        }
        Err(e) => error_response(500, &format!("cannot read artifact: {e}")),
    }
}

/// `GET /jobs/:id/events`: a close-delimited ndjson stream of status
/// snapshots ending with the terminal state. A line goes out at once on
/// every state change and every `period` while the state holds (a running
/// job's progress). The handler reads the same registry the status
/// endpoint does and waits on its condvar, so its only coupling to the
/// worker is the state transitions.
fn stream_events(stream: &mut impl Write, shared: &Shared, id: &str, period: Duration) {
    {
        let reg = lock_registry(shared);
        if !reg.jobs.contains_key(id) {
            let _ = error_response(404, &format!("no job '{id}'")).write(stream);
            return;
        }
    }
    if write_streaming_head(stream, 200, "application/x-ndjson").is_err() {
        return;
    }
    loop {
        let (line, state, last) = {
            let reg = lock_registry(shared);
            let Some(job) = reg.jobs.get(id) else { return };
            let line = status_json(job).to_string_compact();
            let last = job.state.is_terminal() || stranded(shared, &job.state);
            (line, job.state.clone(), last)
        };
        if stream
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| stream.flush())
            .is_err()
            || last
        {
            return;
        }
        await_change(shared, id, &state, period);
    }
}

/// A drained daemon never starts its remaining queued jobs; their events
/// streams end instead of pinning the drain on a live client. Read under
/// the registry lock: the worker claims a job only under it, and only
/// while not draining.
fn stranded(shared: &Shared, state: &JobState) -> bool {
    *state == JobState::Queued && shared.draining.load(Ordering::SeqCst)
}

/// Wait until job `id` leaves state `seen`, a drain strands it in the
/// queue, or `period` passes, whichever comes first.
fn await_change(shared: &Shared, id: &str, seen: &JobState, period: Duration) {
    let reg = lock_registry(shared);
    let _ = shared.wake.wait_timeout_while(reg, period, |reg| {
        reg.jobs
            .get(id)
            .is_some_and(|job| job.state == *seen && !stranded(shared, &job.state))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN_SPEC: &str = r#"{"kind": "run", "instructions": 2000, "seed": 42, "shards": 1}"#;

    fn run_spec() -> JobSpec {
        JobSpec::decode(RUN_SPEC).unwrap()
    }

    fn bare_shared() -> Arc<Shared> {
        Arc::new(Shared::new(ServeOptions::default(), Registry::default(), 0))
    }

    /// A registry holding one job `id` in `state`.
    fn shared_with_job(id: &str, state: JobState) -> Arc<Shared> {
        let shared = bare_shared();
        let job = Job {
            id: id.to_string(),
            spec: run_spec(),
            dir: PathBuf::from(id),
            state,
            tracer: None,
            started: None,
            cancel: CancelToken::default(),
            recovered: false,
        };
        lock_registry(&shared).jobs.insert(id.to_string(), job);
        shared
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let shared = bare_shared();
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let mut reg = poisoner.registry.lock().unwrap();
            reg.next_seq = 7;
            panic!("poison the registry mutex");
        })
        .join();
        assert!(shared.registry.is_poisoned());
        // Every endpoint goes through lock_registry, which must keep
        // serving the coherent pre-panic state.
        let reg = lock_registry(&shared);
        assert_eq!(reg.next_seq, 7);
        drop(reg);
        let mut reg = lock_registry(&shared);
        reg.next_seq = 8;
        drop(reg);
        assert_eq!(lock_registry(&shared).next_seq, 8);
    }

    #[test]
    fn replay_recovers_nonterminal_and_keeps_terminal_states() {
        let spec = run_spec();
        let text = [
            journal_submit("j-000001", &spec).to_string_compact(),
            journal_state("j-000001", "running", None).to_string_compact(),
            journal_state("j-000001", "done", Some(0)).to_string_compact(),
            journal_submit("j-000002", &spec).to_string_compact(),
            journal_state("j-000002", "running", None).to_string_compact(),
            journal_submit("j-000003", &spec).to_string_compact(),
        ]
        .join("\n");
        let (jobs, warnings) = replay_journal(&text);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].id, "j-000001");
        assert_eq!(jobs[0].state, JobState::Finished { code: 0 });
        assert!(!jobs[0].recovered);
        // The mid-run job and the still-queued job both come back
        // queued, flagged for recovery.
        for job in &jobs[1..] {
            assert_eq!(job.state, JobState::Queued);
            assert!(job.recovered);
        }
        assert_eq!(id_seq(&jobs[2].id), 3);
    }

    #[test]
    fn replay_restores_cancel_states() {
        let spec = run_spec();
        let text = [
            journal_submit("j-000001", &spec).to_string_compact(),
            journal_state("j-000001", "canceled", None).to_string_compact(),
            journal_submit("j-000002", &spec).to_string_compact(),
            journal_state("j-000002", "deadline_exceeded", None).to_string_compact(),
        ]
        .join("\n");
        let (jobs, warnings) = replay_journal(&text);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(
            jobs[0].state,
            JobState::Canceled {
                kind: CancelKind::Canceled
            }
        );
        assert_eq!(
            jobs[1].state,
            JobState::Canceled {
                kind: CancelKind::DeadlineExceeded
            }
        );
        assert!(jobs.iter().all(|j| !j.recovered));
        assert_eq!(jobs[0].state.name(), "canceled");
        assert_eq!(jobs[1].state.name(), "deadline_exceeded");
    }

    #[test]
    fn replay_skips_damage_without_dropping_good_records() {
        let spec = run_spec();
        let text = format!(
            "not json at all\n{}\n{{\"state\": \"running\"}}\n{}\n",
            journal_submit("j-000005", &spec).to_string_compact(),
            journal_state("j-000009", "running", None).to_string_compact(),
        );
        let (jobs, warnings) = replay_journal(&text);
        // j-000005 survives; the corrupt line, the id-less record, and
        // the spec-less j-000009 are each warned about.
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, "j-000005");
        assert!(jobs[0].recovered);
        assert_eq!(warnings.len(), 3, "{warnings:?}");
    }

    #[test]
    fn folded_records_compact_to_one_line_per_job() {
        let spec = run_spec();
        let long = [
            journal_submit("j-000001", &spec).to_string_compact(),
            journal_state("j-000001", "running", None).to_string_compact(),
            journal_state("j-000001", "failed", Some(3)).to_string_compact(),
            journal_submit("j-000002", &spec).to_string_compact(),
        ]
        .join("\n");
        let (jobs, _) = replay_journal(&long);
        let compacted: Vec<String> = jobs
            .iter()
            .map(|j| folded_record(&j.id, &j.spec, &j.state).to_string_compact())
            .collect();
        assert_eq!(compacted.len(), 2);
        // Compaction is a fixpoint: replaying the folded records gives
        // the same states back.
        let (again, warnings) = replay_journal(&compacted.join("\n"));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(again.len(), 2);
        assert_eq!(again[0].state, JobState::Finished { code: 3 });
        assert_eq!(again[1].state, JobState::Queued);
        assert!(again[1].recovered);
    }

    #[test]
    fn journal_appends_are_durable_and_cumulative() {
        let dir = std::env::temp_dir().join(format!("vax-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_NAME);
        let journal = Journal::at(path.clone());
        journal.append(&journal_submit("j-000001", &run_spec()));
        journal.append(&journal_state("j-000001", "running", None));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let (jobs, warnings) = replay_journal(&text);
        assert!(warnings.is_empty());
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].recovered);
        // Appends land after a compaction rewrite, not over it.
        journal.rewrite(&[
            folded_record("j-000001", &run_spec(), &JobState::Queued).to_string_compact()
        ]);
        journal.append(&journal_state("j-000001", "done", Some(0)));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let (jobs, _) = replay_journal(&text);
        assert_eq!(jobs[0].state, JobState::Finished { code: 0 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_records_live_on_disk_only() {
        let dir = std::env::temp_dir().join(format!("vax-journal-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_NAME);
        let journal = Journal::at(path.clone());
        for n in 1..=40 {
            journal.append(&journal_submit(&format!("j-{n:06}"), &run_spec()));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 40);
        let (jobs, warnings) = replay_journal(&text);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(jobs.len(), 40);
        // The value is where the journal lives and nothing else.
        let held = format!("{journal:?}");
        assert!(!held.contains("j-000001"), "{held}");
        assert_eq!(
            std::mem::size_of::<Journal>(),
            std::mem::size_of::<Option<PathBuf>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_job_drops_its_tracer_and_renders_as_before() {
        let id = "j-000001";
        let shared = shared_with_job(id, JobState::Queued);
        {
            let mut reg = lock_registry(&shared);
            reg.jobs.get_mut(id).unwrap().tracer = Some(Tracer::enabled());
            reg.jobs.get_mut(id).unwrap().started = Some(Instant::now());
            transition(&shared, &mut reg, id, JobState::Running);
            assert!(
                reg.jobs[id].tracer.is_some(),
                "running jobs report progress"
            );
            assert!(status_json(&reg.jobs[id]).get("progress").is_some());
            transition(&shared, &mut reg, id, JobState::Finished { code: 0 });
            assert!(reg.jobs[id].tracer.is_none());
        }
        let response = job_status(&shared, id);
        assert_eq!(response.status, 200);
        assert_eq!(
            String::from_utf8(response.body).unwrap(),
            "{\n  \"id\": \"j-000001\",\n  \"kind\": \"run\",\n  \"status\": \"done\",\n  \"code\": 0\n}\n"
        );
    }

    #[test]
    fn events_wait_wakes_on_a_transition_and_ends_on_terminal() {
        let id = "j-000001";
        let shared = shared_with_job(id, JobState::Running);
        // While the state holds, the wait lasts the period (the progress
        // cadence).
        let start = Instant::now();
        await_change(&shared, id, &JobState::Running, Duration::from_millis(30));
        assert!(start.elapsed() >= Duration::from_millis(30));
        // A transition ends a 10 s wait early.
        let mover = Arc::clone(&shared);
        let finisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let done = JobState::Finished { code: 0 };
            transition(&mover, &mut lock_registry(&mover), id, done);
        });
        let start = Instant::now();
        await_change(&shared, id, &JobState::Running, Duration::from_secs(10));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "woke after {:?}",
            start.elapsed()
        );
        finisher.join().unwrap();
        // The stream of a job that is already terminal is one line.
        let mut out = Vec::new();
        stream_events(&mut out, &shared, id, Duration::from_secs(10));
        let text = String::from_utf8(out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body.lines().count(), 1, "{body}");
        assert!(body.contains("\"done\""), "{body}");
    }

    #[test]
    fn draining_ends_the_wait_of_a_queued_job() {
        let id = "j-000001";
        let shared = shared_with_job(id, JobState::Queued);
        let drainer = Arc::clone(&shared);
        let stopper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            begin_drain(&drainer);
        });
        let start = Instant::now();
        let mut out = Vec::new();
        stream_events(&mut out, &shared, id, Duration::from_secs(10));
        assert!(start.elapsed() < Duration::from_secs(5));
        stopper.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"queued\""), "{text}");
    }

    #[test]
    fn wake_address_is_loopback_for_unspecified_binds() {
        let wake = |a: &str| loopback_if_unspecified(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:4780"), "127.0.0.1:4780");
        assert_eq!(wake("[::]:4780"), "[::1]:4780");
        assert_eq!(wake("127.0.0.1:4780"), "127.0.0.1:4780");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
    }

    #[test]
    fn torn_trailing_append_is_skipped_and_healed_by_replay() {
        // A crash mid-append tears at most the trailing line; replay
        // must keep every complete record and warn about the tear.
        let spec = run_spec();
        let text = format!(
            "{}\n{}\n{{\"id\": \"j-000002\", \"sta",
            journal_submit("j-000001", &spec).to_string_compact(),
            journal_state("j-000001", "running", None).to_string_compact(),
        );
        let (jobs, warnings) = replay_journal(&text);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, "j-000001");
        assert!(jobs[0].recovered);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }

    #[test]
    fn connection_slot_releases_on_handler_panic() {
        let shared = bare_shared();
        let (slot, active) = ConnectionSlot::acquire(&shared);
        assert_eq!(active, 1);
        let _ = std::thread::spawn(move || {
            let _slot = slot;
            panic!("handler dies mid-request");
        })
        .join();
        // The panicking thread's unwind ran the guard's Drop: no leak,
        // so the load-shed cap cannot wedge into permanent 503s.
        assert_eq!(shared.connections.load(Ordering::SeqCst), 0);
        let (slot, active) = ConnectionSlot::acquire(&shared);
        assert_eq!(active, 1);
        drop(slot);
        assert_eq!(shared.connections.load(Ordering::SeqCst), 0);
    }

    /// Accept one connection from `listener` and hand it to `handlers`.
    fn accept_into(handlers: &mut Handlers, listener: &TcpListener, shared: &Arc<Shared>) {
        let (stream, _) = listener.accept().unwrap();
        let (slot, _) = ConnectionSlot::acquire(shared);
        handlers.dispatch(stream, slot, shared);
    }

    /// Send `GET /healthz` on `client` and read the whole answer.
    fn healthz(mut client: TcpStream) -> String {
        client
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut answer = String::new();
        client.read_to_string(&mut answer).unwrap();
        answer
    }

    #[test]
    fn one_request_at_a_time_is_served_by_one_handler_thread() {
        let shared = bare_shared();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut handlers = Handlers::new();
        for _ in 0..5 {
            let client = TcpStream::connect(addr).unwrap();
            accept_into(&mut handlers, &listener, &shared);
            let answer = healthz(client);
            assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
        }
        // Each answer ended after its handler had freed its slot and
        // reported idle, so every later connection went to that handler.
        assert_eq!(handlers.threads.len(), 1);
        assert_eq!(shared.connections.load(Ordering::SeqCst), 0);
        handlers.join();
    }

    #[test]
    fn overlapping_connections_each_get_a_handler_and_join_ends_them() {
        let shared = bare_shared();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut handlers = Handlers::new();
        // Both connections are open before either sends its request, so
        // the first handler is still reading when the second arrives.
        let first = TcpStream::connect(addr).unwrap();
        accept_into(&mut handlers, &listener, &shared);
        let second = TcpStream::connect(addr).unwrap();
        accept_into(&mut handlers, &listener, &shared);
        assert_eq!(handlers.threads.len(), 2);
        for client in [second, first] {
            let answer = healthz(client);
            assert!(answer.starts_with("HTTP/1.1 200"), "{answer}");
        }
        // Both handlers now wait for a connection; closing the queue
        // ends them.
        handlers.join();
        assert_eq!(shared.connections.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn recovered_run_job_resumes_under_its_own_spec() {
        let spec = JobSpec::decode(
            r#"{"kind": "run", "instructions": 2000, "strict": true, "jobs": 2, "retries": 3}"#,
        )
        .unwrap();
        let (dir, server) = (PathBuf::from("j-000007"), ServeOptions::default());
        let req = build_request(&spec, &dir, true, &server, &CancelToken::default()).unwrap();
        let JobRequest::Resume(o) = req else {
            panic!("a recovered run job must resume, got {req:?}");
        };
        assert!(o.spec.strict, "the spec's strict survives a restart");
        assert_eq!(
            (o.jobs(), o.retries()),
            (2, 3),
            "the spec's, not the server's"
        );
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.out.as_deref(), Some(dir.as_path()));
        assert_eq!(o.spec.instructions, 2000);
        let fresh = build_request(&spec, &dir, false, &server, &CancelToken::default());
        assert!(matches!(fresh, Ok(JobRequest::Run(_))));
    }

    #[test]
    fn id_seq_reads_the_numeric_suffix() {
        assert_eq!(id_seq("j-000042"), 42);
        assert_eq!(id_seq("garbage"), 0);
    }
}
