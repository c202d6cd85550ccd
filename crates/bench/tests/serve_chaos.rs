//! Chaos harness for `reproduce serve`: SIGKILL the daemon at a
//! randomized point mid-job, restart it on the same `--root`, and assert
//! that every accepted job still finishes — with final artifacts
//! byte-identical to an uninterrupted CLI run — plus the cancellation
//! and deadline endpoints' terminal semantics.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A daemon child plus the address it bound; killed on drop so a failing
/// test cannot leak the process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start the daemon on an OS-assigned port and learn it from the
/// startup line on stderr.
fn start_daemon(root: &Path) -> Daemon {
    let mut child = reproduce()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--root",
            root.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn reproduce serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("read daemon stderr");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stderr in the background so the daemon never blocks
    // on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    Daemon { child, addr }
}

/// One HTTP exchange. Returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let payload = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = std::str::from_utf8(&raw[..head_end]).unwrap();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, raw[head_end + 4..].to_vec())
}

fn http_text(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let (status, bytes) = http(addr, method, path, body);
    (status, String::from_utf8_lossy(&bytes).into_owned())
}

/// Poll a job until its status body contains `state` (a quoted state
/// name, such as `"\"running\""`).
fn await_state(addr: &str, id: &str, state: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = http_text(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "status poll failed: {body}");
        if body.contains(state) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {state}; last status: {body}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Poll a job until it reaches any terminal state; returns the final
/// status body.
fn await_terminal(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http_text(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "status poll failed: {body}");
        for terminal in [
            "\"done\"",
            "\"failed\"",
            "\"canceled\"",
            "\"deadline_exceeded\"",
        ] {
            if body.contains(terminal) {
                return body;
            }
        }
        assert!(
            Instant::now() < deadline,
            "job {id} did not reach a terminal state; last status: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Count completed cell checkpoints in a job directory.
fn cells_done(job_dir: &Path) -> usize {
    let checkpoints = job_dir.join("checkpoints");
    match std::fs::read_dir(&checkpoints) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("cell-") && n.ends_with(".json"))
            })
            .count(),
        Err(_) => 0,
    }
}

/// A run large enough that SIGKILL reliably lands mid-grid: 5 workloads
/// × 6 shards = 30 cells on the daemon's single default worker.
const BIG_RUN: &str = r#"{"kind": "run", "instructions": 200000, "seed": 7, "shards": 6}"#;
const SMALL_RUN: &str = r#"{"kind": "run", "instructions": 2000, "seed": 42, "shards": 1}"#;

#[test]
fn sigkill_mid_job_recovers_resumes_and_matches_cli_bytes() {
    let root = scratch("sigkill");
    let daemon = start_daemon(&root);
    let addr = daemon.addr.clone();

    // Job A (will be running when the daemon dies) + job B (queued).
    let (status, body) = http_text(&addr, "POST", "/jobs", Some(BIG_RUN));
    assert_eq!(status, 202, "{body}");
    let (status, body) = http_text(&addr, "POST", "/jobs", Some(SMALL_RUN));
    assert_eq!(status, 202, "{body}");

    // Randomize the kill point: wait for K completed cells, then
    // SIGKILL. Seeded from the wall clock; printed so a failure is
    // reproducible by pinning K.
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as usize;
    let kill_after = 1 + nanos % 3;
    println!("chaos: SIGKILL after {kill_after} completed cell(s)");
    let job_a = root.join("j-000001");
    let kill_deadline = Instant::now() + Duration::from_secs(60);
    while cells_done(&job_a) < kill_after {
        assert!(
            Instant::now() < kill_deadline,
            "job never reached {kill_after} cells"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let at_kill = cells_done(&job_a);
    let mut daemon = daemon;
    daemon.child.kill().expect("SIGKILL the daemon");
    let _ = daemon.child.wait();
    println!("chaos: killed with {at_kill} cell(s) checkpointed");
    assert!(
        at_kill < 30,
        "daemon died after the grid finished; kill earlier"
    );

    // Restart on the same root: the journal brings both jobs back.
    let mut daemon = start_daemon(&root);
    let addr = daemon.addr.clone();

    // Health reports recovering or ready (recovery can finish fast);
    // either way it must converge to ready/200.
    let mut states_seen = Vec::new();
    let ready_deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http_text(&addr, "GET", "/healthz", None);
        assert_eq!(status, 200, "healthz is liveness, always 200: {body}");
        let state = ["recovering", "ready", "draining"]
            .iter()
            .find(|s| body.contains(&format!("\"{s}\"")))
            .copied()
            .unwrap_or("unknown");
        if states_seen.last() != Some(&state) {
            states_seen.push(state);
        }
        if state == "ready" {
            break;
        }
        assert_ne!(state, "draining", "restarted daemon must not drain itself");
        assert!(
            Instant::now() < ready_deadline,
            "daemon never became ready; states: {states_seen:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    println!("chaos: health states seen: {states_seen:?}");

    // Both jobs reach done — the interrupted one via checkpoint resume,
    // the queued one via a normal run.
    let final_a = await_terminal(&addr, "j-000001");
    assert!(final_a.contains("\"done\""), "{final_a}");
    let final_b = await_terminal(&addr, "j-000002");
    assert!(final_b.contains("\"done\""), "{final_b}");

    // The recovered job counted its recovery, and — because the kill
    // landed after the checkpoint header — its resume.
    let (status, runtime) = http_text(&addr, "GET", "/jobs/j-000001/artifacts/runtime.json", None);
    assert_eq!(status, 200, "{runtime}");
    assert!(
        runtime.contains("\"jobs_recovered\": 1"),
        "recovered job must count jobs_recovered: {runtime}"
    );
    assert!(
        runtime.contains("\"jobs_resumed\": 1"),
        "recovered job with checkpoints must resume: {runtime}"
    );
    assert!(
        runtime.contains("\"recover\""),
        "recover span missing: {runtime}"
    );

    // Byte-identity: every artifact the CLI writes for the same spec
    // must match the recovered job's, byte for byte. runtime.json is
    // excluded (its counters legitimately differ across an interrupt).
    let cli_out = root.join("cli-run");
    let out = reproduce()
        .args([
            "--instructions",
            "200000",
            "--seed",
            "7",
            "--shards",
            "6",
            "--format",
            "json",
            "--out",
            cli_out.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("run CLI reference");
    assert!(out.status.success(), "CLI reference run failed");
    let mut compared = 0;
    for entry in std::fs::read_dir(&cli_out).unwrap().filter_map(Result::ok) {
        if !entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
            continue;
        }
        let name = entry.file_name().into_string().unwrap();
        if name == "runtime.json" {
            continue;
        }
        let cli_bytes = std::fs::read(entry.path()).unwrap();
        let served_bytes = std::fs::read(job_a.join(&name))
            .unwrap_or_else(|e| panic!("recovered job missing artifact {name}: {e}"));
        assert_eq!(
            cli_bytes, served_bytes,
            "artifact {name} diverged after recovery"
        );
        compared += 1;
    }
    assert!(
        compared >= 2,
        "expected to compare several artifacts, got {compared}"
    );

    // Journal compaction: exactly one spec-bearing record per job
    // survives the restart (later state transitions append spec-less
    // records).
    let journal = std::fs::read_to_string(root.join("journal.ndjson")).unwrap();
    for id in ["j-000001", "j-000002"] {
        let with_spec = journal
            .lines()
            .filter(|l| l.contains(id) && l.contains("\"spec\""))
            .count();
        assert_eq!(with_spec, 1, "journal not compacted for {id}:\n{journal}");
    }

    // Clean shutdown of the recovered daemon.
    let (status, _) = http_text(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    let exit = daemon.child.wait().expect("wait for daemon");
    assert!(exit.success(), "recovered daemon must drain to exit 0");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancel_running_job_is_terminal_and_preserves_checkpoints() {
    let root = scratch("cancel-running");
    let mut daemon = start_daemon(&root);
    let addr = daemon.addr.clone();

    let (status, _) = http_text(&addr, "POST", "/jobs", Some(BIG_RUN));
    assert_eq!(status, 202);
    let job_dir = root.join("j-000001");

    // Wait until at least one cell is checkpointed (the job is mid-run),
    // and confirm artifacts are 409-gated while it runs.
    let deadline = Instant::now() + Duration::from_secs(60);
    while cells_done(&job_dir) < 1 {
        assert!(Instant::now() < deadline, "job never started checkpointing");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, body) = http_text(&addr, "GET", "/jobs/j-000001/artifacts", None);
    assert_eq!(status, 409, "running job's artifacts must be gated: {body}");

    let (status, body) = http_text(&addr, "POST", "/jobs/j-000001/cancel", None);
    assert_eq!(status, 202, "cancel of a running job is accepted: {body}");
    assert!(body.contains("\"canceling\""), "{body}");

    let final_status = await_terminal(&addr, "j-000001");
    assert!(final_status.contains("\"canceled\""), "{final_status}");
    assert!(final_status.contains("\"code\": null"), "{final_status}");

    // The grid stopped early, but completed cells stay checkpointed and
    // the (terminal) artifacts are now downloadable.
    let done = cells_done(&job_dir);
    assert!(done >= 1, "partial checkpoints must survive cancel");
    assert!(done < 30, "cancel should land before the grid finishes");
    let (status, listing) = http_text(&addr, "GET", "/jobs/j-000001/artifacts", None);
    assert_eq!(status, 200, "{listing}");
    assert!(listing.contains("status.json"), "{listing}");
    // No final export for a canceled run.
    assert!(
        !job_dir.join("measurement.json").exists(),
        "canceled job must not export final artifacts"
    );
    let (status, runtime) = http_text(&addr, "GET", "/jobs/j-000001/artifacts/runtime.json", None);
    assert_eq!(status, 200);
    assert!(runtime.contains("\"jobs_canceled\": 1"), "{runtime}");

    // A second cancel is a 409: the job is already terminal.
    let (status, body) = http_text(&addr, "POST", "/jobs/j-000001/cancel", None);
    assert_eq!(status, 409, "{body}");

    let (status, _) = http_text(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    assert!(daemon.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancel_queued_job_is_immediate_and_unknown_is_404() {
    let root = scratch("cancel-queued");
    let mut daemon = start_daemon(&root);
    let addr = daemon.addr.clone();

    let (status, body) = http_text(&addr, "POST", "/jobs/j-000042/cancel", None);
    assert_eq!(status, 404, "{body}");

    // The first job occupies the worker; the second sits queued. Wait for
    // the worker to claim the first before canceling anything: until then
    // it is queued too, and a queued cancel answers 200, not 202.
    let (status, _) = http_text(&addr, "POST", "/jobs", Some(BIG_RUN));
    assert_eq!(status, 202);
    await_state(&addr, "j-000001", "\"running\"");
    let (status, _) = http_text(&addr, "POST", "/jobs", Some(SMALL_RUN));
    assert_eq!(status, 202);

    let (status, body) = http_text(&addr, "POST", "/jobs/j-000002/cancel", None);
    assert_eq!(status, 200, "queued cancel is immediate: {body}");
    assert!(body.contains("\"canceled\""), "{body}");
    let (status, body) = http_text(&addr, "GET", "/jobs/j-000002", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"canceled\""), "{body}");

    // Unblock the worker and shut down.
    let (status, _) = http_text(&addr, "POST", "/jobs/j-000001/cancel", None);
    assert_eq!(status, 202);
    await_terminal(&addr, "j-000001");
    let (status, _) = http_text(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    assert!(daemon.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deadline_exceeded_is_terminal_and_stops_the_running_cell() {
    let root = scratch("deadline");
    let mut daemon = start_daemon(&root);
    let addr = daemon.addr.clone();

    let spec =
        r#"{"kind": "run", "instructions": 200000, "seed": 7, "shards": 6, "deadline_secs": 0.05}"#;
    let (status, body) = http_text(&addr, "POST", "/jobs", Some(spec));
    assert_eq!(status, 202, "{body}");

    let final_status = await_terminal(&addr, "j-000001");
    assert!(
        final_status.contains("\"deadline_exceeded\""),
        "{final_status}"
    );
    assert!(final_status.contains("\"code\": null"), "{final_status}");

    // Whatever completed before the deadline stays checkpointed; the
    // final export never happened.
    let job_dir = root.join("j-000001");
    assert!(
        cells_done(&job_dir) < 30,
        "deadline must stop the grid early"
    );
    assert!(
        !job_dir.join("measurement.json").exists(),
        "deadline-exceeded job must not export final artifacts"
    );
    let (status, listing) = http_text(&addr, "GET", "/jobs/j-000001/artifacts", None);
    assert_eq!(status, 200, "{listing}");
    assert!(listing.contains("status.json"), "{listing}");

    // A probe job whose one cell, like its baseline, would run for days:
    // the deadline stops the probe machine itself.
    let spec = r#"{"kind": "characterize", "opcodes": ["MOVL"], "modes": ["register"],
                   "iters": 9007199254740991, "deadline_secs": 0.05}"#;
    let (status, body) = http_text(&addr, "POST", "/jobs", Some(spec));
    assert_eq!(status, 202, "{body}");
    let final_status = await_terminal(&addr, "j-000002");
    assert!(
        final_status.contains("\"deadline_exceeded\""),
        "{final_status}"
    );

    let (status, _) = http_text(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    assert!(daemon.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&root);
}
