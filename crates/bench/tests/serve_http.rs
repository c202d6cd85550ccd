//! End-to-end exercise of `reproduce serve` over a real loopback socket:
//! hostile submissions answer typed 4xx, a valid job runs to completion
//! with downloadable artifacts, a repeated job reports warm-cache hits
//! in its `runtime.json`, and `POST /shutdown` drains the daemon to a
//! clean exit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-http-{tag}-{}", std::process::id()));
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
    start_daemon_with(root, &[])
}

fn start_daemon_with(root: &Path, extra: &[&str]) -> Daemon {
    let mut child = reproduce()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--root",
            root.to_str().unwrap(),
        ])
        .args(extra)
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

/// Poll a job until it leaves the queued/running states.
fn await_job(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http_text(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "status poll failed: {body}");
        if body.contains("\"done\"") || body.contains("\"failed\"") {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} did not finish in time; last status: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

const SMALL_RUN: &str = r#"{"kind": "run", "instructions": 2000, "seed": 42, "shards": 1}"#;

#[test]
fn serve_lifecycle_hostile_inputs_and_warm_caches() {
    let root = scratch("lifecycle");
    let mut daemon = start_daemon(&root);
    let addr = daemon.addr.clone();

    // --- Hostile submissions: typed 4xx, not crashes. ---------------
    // Truncated JSON body → 400 with a byte offset from the parser.
    let (status, body) = http_text(&addr, "POST", "/jobs", Some(r#"{"kind": "run""#));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("byte"), "expected a byte offset: {body}");
    // Duplicate keys → 400 naming the key and offset.
    let (status, body) = http_text(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"kind": "run", "seed": 1, "seed": 2}"#),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("duplicate key 'seed'"), "{body}");
    // Wrong type → 400 naming the field.
    let (status, body) = http_text(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"kind": "run", "instructions": "many"}"#),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("instructions"), "{body}");
    // Out-of-range grid → 400.
    let (status, body) = http_text(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"kind": "run", "shards": 100000}"#),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("shards"), "{body}");
    // Unknown field → 400.
    let (status, body) = http_text(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"kind": "run", "outt": "oops"}"#),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown field 'outt'"), "{body}");
    // Malformed HTTP (no double CRLF, dead method) handled at the
    // message layer.
    let (status, _) = http_text(&addr, "GET", "/teapot", None);
    assert_eq!(status, 404, "unknown path is a 404");
    let (status, _) = http_text(&addr, "DELETE", "/jobs", None);
    assert_eq!(status, 405, "wrong method on a real path is a 405");

    // Nothing was admitted.
    let (status, body) = http_text(&addr, "GET", "/jobs", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"jobs\": []"), "{body}");

    // --- A valid job runs to completion. ----------------------------
    let (status, body) = http_text(&addr, "POST", "/jobs", Some(SMALL_RUN));
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"id\":\"j-000001\""), "{body}");
    let final_status = await_job(&addr, "j-000001");
    assert!(final_status.contains("\"done\""), "{final_status}");
    assert!(final_status.contains("\"code\": 0"), "{final_status}");

    // Artifacts list and download.
    let (status, listing) = http_text(&addr, "GET", "/jobs/j-000001/artifacts", None);
    assert_eq!(status, 200);
    for name in [
        "manifest.json",
        "measurement.json",
        "spec.json",
        "runtime.json",
    ] {
        assert!(listing.contains(name), "missing {name} in {listing}");
    }
    let (status, manifest) =
        http_text(&addr, "GET", "/jobs/j-000001/artifacts/manifest.json", None);
    assert_eq!(status, 200);
    assert!(manifest.contains("\"experiment\""), "{manifest}");
    // The served bytes are exactly the on-disk bytes.
    let on_disk = std::fs::read(root.join("j-000001").join("manifest.json")).unwrap();
    assert_eq!(manifest.as_bytes(), &on_disk[..]);

    // Path traversal is a 404, never a file read.
    for evil in [
        "/jobs/j-000001/artifacts/..",
        "/jobs/j-000001/artifacts/%2e%2e",
        "/jobs/j-000001/artifacts/..%2fspec.json",
    ] {
        let (status, _) = http_text(&addr, "GET", evil, None);
        assert_eq!(status, 404, "{evil} must 404");
    }
    let (status, _) = http_text(&addr, "GET", "/jobs/j-000001/artifacts/nope.json", None);
    assert_eq!(status, 404);
    let (status, _) = http_text(&addr, "GET", "/jobs/j-999999", None);
    assert_eq!(status, 404);

    // --- The same spec again: served from the warm caches. ----------
    let (status, body) = http_text(&addr, "POST", "/jobs", Some(SMALL_RUN));
    assert_eq!(status, 202, "{body}");
    let final_status = await_job(&addr, "j-000002");
    assert!(final_status.contains("\"done\""), "{final_status}");
    let (status, runtime) = http_text(&addr, "GET", "/jobs/j-000002/artifacts/runtime.json", None);
    assert_eq!(status, 200);
    for counter in ["workload_cache_hits", "boot_cache_hits"] {
        assert!(runtime.contains(counter), "missing {counter}: {runtime}");
    }
    assert!(
        !runtime.contains("\"workload_cache_hits\": 0"),
        "second identical job must hit the workload cache: {runtime}"
    );
    assert!(
        !runtime.contains("\"boot_cache_hits\": 0"),
        "second identical job must hit the boot cache: {runtime}"
    );
    // And the warm job's measurement is byte-identical to the cold one.
    let (_, cold) = http(
        &addr,
        "GET",
        "/jobs/j-000001/artifacts/measurement.json",
        None,
    );
    let (_, warm) = http(
        &addr,
        "GET",
        "/jobs/j-000002/artifacts/measurement.json",
        None,
    );
    assert_eq!(cold, warm, "warm-cache run diverged from cold run");

    // --- Events stream ends with the terminal state. ----------------
    let (status, events) = http_text(&addr, "GET", "/jobs/j-000002/events", None);
    assert_eq!(status, 200);
    let last = events.lines().last().unwrap();
    assert!(last.contains("\"done\""), "{events}");

    // --- Drain. -----------------------------------------------------
    let (status, body) = http_text(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 202, "{body}");
    let exit = daemon.child.wait().expect("wait for daemon");
    assert!(exit.success(), "drain must exit 0, got {exit:?}");
    // New connections are refused once drained.
    assert!(TcpStream::connect(&addr).is_err(), "socket must be closed");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn health_endpoints_report_ready_and_drain() {
    let root = scratch("health");
    let mut daemon = start_daemon(&root);
    let addr = daemon.addr.clone();

    let (status, body) = http_text(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ready\""), "{body}");
    let (status, body) = http_text(&addr, "GET", "/readyz", None);
    assert_eq!(status, 200, "{body}");
    let (status, _) = http_text(&addr, "DELETE", "/healthz", None);
    assert_eq!(status, 405);

    // After the drain signal, /healthz stays 200 (liveness) but reports
    // draining, and /readyz flips to 503 — while the daemon still
    // answers requests.
    let (status, _) = http_text(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    // The daemon exits once the (idle) worker drains; health answers
    // race that exit, so tolerate a refused connection.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let Ok(mut stream) = TcpStream::connect(&addr) else {
            break;
        };
        let _ = stream.write_all(b"GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n");
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let text = String::from_utf8_lossy(&raw);
        if !raw.is_empty() {
            assert!(text.contains("503"), "draining readyz must be 503: {text}");
            assert!(text.contains("\"draining\""), "{text}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon neither answered nor exited"
        );
    }
    let exit = daemon.child.wait().expect("wait for daemon");
    assert!(exit.success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_out_of_range_spec_is_refused_and_the_daemon_stays_up() {
    // A ring this large used to be accepted, then abort the worker while
    // reserving it; the journal replayed the abort on every restart. A
    // 200 KB body of nested arrays used to overflow the handler's stack.
    let root = scratch("bounds");
    let daemon = start_daemon(&root);
    let ring = r#"{"kind":"run","instructions":1000,"flight_recorder":9223372036854775807}"#;
    let nested = "[".repeat(100_000) + &"]".repeat(100_000);
    for (spec, expect) in [
        (ring, "'flight_recorder' must be at most 4096"),
        (&nested, "nesting deeper than 128 levels at byte 128"),
    ] {
        let (status, body) = http_text(&daemon.addr, "POST", "/jobs", Some(spec));
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(expect), "{body}");
        let (status, body) = http_text(&daemon.addr, "GET", "/healthz", None);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ready\""), "{body}");
    }
    let journal = std::fs::read_to_string(root.join("journal.ndjson")).unwrap_or_default();
    assert!(
        journal.is_empty(),
        "a refused spec is never journaled: {journal}"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn connection_cap_sheds_load_with_retry_after() {
    let root = scratch("conncap");
    let mut daemon = start_daemon_with(&root, &["--max-connections", "2"]);
    let addr = daemon.addr.clone();

    // Two idle connections pin both slots (their handlers sit in the
    // request read until we close them).
    let idle_a = TcpStream::connect(&addr).expect("first idle connection");
    let idle_b = TcpStream::connect(&addr).expect("second idle connection");
    std::thread::sleep(Duration::from_millis(300));

    // The third connection is shed inline: 503 plus Retry-After.
    let mut over = TcpStream::connect(&addr).expect("over-cap connection");
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    over.read_to_end(&mut raw).expect("read shed response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(text.contains("Retry-After: 1"), "{text}");
    drop(over);

    // Freeing the slots restores service.
    drop(idle_a);
    drop(idle_b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http_text(&addr, "GET", "/jobs", None);
        if status == 200 {
            assert!(body.contains("\"jobs\""), "{body}");
            break;
        }
        assert_eq!(status, 503, "unexpected status {status}: {body}");
        assert!(Instant::now() < deadline, "cap never released");
        std::thread::sleep(Duration::from_millis(100));
    }

    let (status, _) = http_text(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    let exit = daemon.child.wait().expect("wait for daemon");
    assert!(exit.success());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn submissions_during_drain_are_refused() {
    let root = scratch("drain");
    let mut daemon = start_daemon(&root);
    let addr = daemon.addr.clone();
    let (status, _) = http_text(&addr, "POST", "/shutdown", None);
    assert_eq!(status, 202);
    // The daemon may close the listener at any poll tick; both a 503
    // and a refused connection are correct drain behavior.
    if let Ok(mut stream) = TcpStream::connect(&addr) {
        let request = format!(
            "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{SMALL_RUN}",
            SMALL_RUN.len()
        );
        if stream.write_all(request.as_bytes()).is_ok() {
            let mut raw = Vec::new();
            let _ = stream.read_to_end(&mut raw);
            let text = String::from_utf8_lossy(&raw);
            assert!(
                raw.is_empty() || text.contains("503"),
                "drain must refuse submissions: {text}"
            );
        }
    }
    let exit = daemon.child.wait().expect("wait for daemon");
    assert!(exit.success());
    let _ = std::fs::remove_dir_all(&root);
}

/// A cold first job that runs for most of a second in release builds
/// (codegen and boot of 30 cells), long enough to signal the daemon
/// while it runs.
const COLD_RUN: &str = r#"{"kind": "run", "instructions": 20000, "seed": 7, "shards": 6}"#;

/// Start a daemon whose stderr is kept: the handle yields the whole log
/// once the daemon exits and closes the pipe.
fn start_logged_daemon(root: &Path) -> (Daemon, std::thread::JoinHandle<String>) {
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
    let mut log = String::new();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("read daemon stderr");
        log.push_str(&line);
        log.push('\n');
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    let log = std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            log.push_str(&line);
            log.push('\n');
        }
        log
    });
    (Daemon { child, addr }, log)
}

fn send_sigterm(daemon: &Daemon) {
    let status = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed: {status:?}");
}

/// Wait for the daemon to exit; fail if it is still up after `limit`.
fn exit_within(daemon: &mut Daemon, limit: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = daemon.child.try_wait().expect("poll daemon") {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "daemon still running {limit:?} after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigterm_drains_an_idle_daemon() {
    let root = scratch("sigterm-idle");
    let (mut daemon, log) = start_logged_daemon(&root);
    let (status, body) = http_text(&daemon.addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "{body}");
    send_sigterm(&daemon);
    let exit = exit_within(&mut daemon, Duration::from_secs(5));
    assert!(exit.success(), "drain must exit 0, got {exit:?}");
    let log = log.join().unwrap();
    assert!(log.contains("drained cleanly"), "{log}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sigterm_finishes_the_running_job_and_refuses_new_ones() {
    let root = scratch("sigterm-running");
    let (mut daemon, log) = start_logged_daemon(&root);
    let addr = daemon.addr.clone();
    let (status, body) = http_text(&addr, "POST", "/jobs", Some(COLD_RUN));
    assert_eq!(status, 202, "{body}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http_text(&addr, "GET", "/jobs/j-000001", None);
        if body.contains("\"running\"") {
            break;
        }
        assert!(
            body.contains("\"queued\""),
            "job ended before the signal: {body}"
        );
        assert!(Instant::now() < deadline, "job never started: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }

    send_sigterm(&daemon);
    // The daemon keeps answering while the job runs; once the signal
    // turns into a drain, submissions are refused.
    loop {
        let (_, body) = http_text(&addr, "GET", "/healthz", None);
        if body.contains("\"draining\"") {
            break;
        }
        assert!(Instant::now() < deadline, "signal never drained: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) = http_text(&addr, "POST", "/jobs", Some(SMALL_RUN));
    assert_eq!(status, 503, "{body}");

    // The daemon exits once the running job is done, so its end state
    // is read from disk.
    let exit = exit_within(&mut daemon, Duration::from_secs(120));
    assert!(exit.success(), "drain must exit 0, got {exit:?}");
    let status = std::fs::read_to_string(root.join("j-000001").join("status.json")).unwrap();
    assert!(status.contains("\"status\": \"done\""), "{status}");
    assert!(status.contains("\"code\": 0"), "{status}");
    assert!(root.join("j-000001").join("measurement.json").is_file());
    let log = log.join().unwrap();
    assert!(log.contains("drained cleanly"), "{log}");
    let _ = std::fs::remove_dir_all(&root);
}
