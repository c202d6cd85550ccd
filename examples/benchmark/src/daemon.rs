//! The serve daemon (`vax_bench::serve::run_serve`) on a thread of this
//! process, reached over loopback HTTP by one client with one connection
//! at a time.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vax_analysis::Json;
use vax_bench::cli::ServeOptions;
use vax_bench::progress::Verbosity;

use crate::spans::Recorder;

/// Pause between status polls of a running job.
pub const POLL_PERIOD: Duration = Duration::from_millis(5);
/// Pause between spawning the daemon and its first readiness probe.
const PROBE_DELAY: Duration = Duration::from_millis(10);
/// Longest a job or the daemon's start may take before the run gives up.
const PATIENCE: Duration = Duration::from_secs(60);

pub struct Daemon {
    pub addr: String,
    pub root: PathBuf,
    handle: JoinHandle<i32>,
}

/// One HTTP/1.1 request on a fresh connection; returns status and body.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no header terminator"))?;
    let head = String::from_utf8_lossy(&raw[..split]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

fn json_body(body: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(body).ok()?).ok()
}

impl Daemon {
    /// Start a daemon on a free loopback port with a fresh `root`, and wait
    /// until `GET /readyz` answers 200. Returns it with the seconds from
    /// spawn to ready.
    ///
    /// The first probe goes out `PROBE_DELAY` after spawn. The daemon
    /// answers only when its accept loop polls, at start-up and then every
    /// 50 ms, so a probe that raced the first poll read ~2 ms or ~51 ms by
    /// chance; one sent after it always waits for the second poll, and the
    /// time reads start-up + ~50 ms for any start-up shorter than the delay.
    pub fn spawn(root: &Path) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(root);
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free loopback port: {e}"))?
            .port();
        let opts = ServeOptions {
            addr: format!("127.0.0.1:{port}"),
            root: root.to_path_buf(),
            jobs: 1,
            retries: 0,
            max_connections: 64,
            verbosity: Verbosity::Quiet,
        };
        let addr = opts.addr.clone();
        let start = Instant::now();
        let handle = std::thread::spawn(move || vax_bench::serve::run_serve(&opts));
        std::thread::sleep(PROBE_DELAY);
        loop {
            if let Ok((200, _)) = http(&addr, "GET", "/readyz", "") {
                let ready = start.elapsed().as_secs_f64();
                let d = Daemon {
                    addr,
                    root: root.to_path_buf(),
                    handle,
                };
                return Ok((d, ready));
            }
            if handle.is_finished() || start.elapsed() > PATIENCE {
                let code = handle.join().unwrap_or(-1);
                return Err(format!("daemon on {addr} never became ready (exit {code})"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drain and join; returns the daemon's exit code.
    pub fn shutdown(self) -> i32 {
        let _ = http(&self.addr, "POST", "/shutdown", "");
        self.handle.join().unwrap_or(-1)
    }

    /// Submit `spec` and poll its status until terminal. Returns the
    /// job id, its final status object, and the submit-to-terminal
    /// seconds.
    pub fn run_job(&self, spec: &str, rec: &mut Recorder) -> Result<(String, Json, f64), String> {
        let start = Instant::now();
        let (status, body) = rec.time("submit", || http(&self.addr, "POST", "/jobs", spec))?;
        let id = json_body(&body)
            .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string))
            .filter(|_| status == 202)
            .ok_or_else(|| format!("submit answered {status}"))?;
        let path = format!("/jobs/{id}");
        loop {
            let (status, body) = rec.time("poll", || http(&self.addr, "GET", &path, ""))?;
            let state = json_body(&body).filter(|_| status == 200);
            let Some(state) = state else {
                return Err(format!("GET {path} answered {status}"));
            };
            let name = state.get("status").and_then(Json::as_str).unwrap_or("");
            if !matches!(name, "queued" | "running") {
                return Ok((id, state, start.elapsed().as_secs_f64()));
            }
            if start.elapsed() > PATIENCE {
                return Err(format!("job {id} still {name} after {PATIENCE:?}"));
            }
            std::thread::sleep(POLL_PERIOD);
        }
    }

    /// Download every artifact of a finished job: `(name, bytes)`, sorted.
    pub fn artifacts(&self, id: &str) -> Result<Vec<(String, Vec<u8>)>, String> {
        let (status, body) = http(&self.addr, "GET", &format!("/jobs/{id}/artifacts"), "")?;
        let names: Vec<String> = json_body(&body)
            .filter(|_| status == 200)
            .and_then(|j| {
                j.get("artifacts")?
                    .as_arr()?
                    .iter()
                    .map(|n| n.as_str().map(str::to_string))
                    .collect()
            })
            .ok_or_else(|| format!("artifact list answered {status}"))?;
        names
            .into_iter()
            .map(|name| {
                let (status, bytes) = http(
                    &self.addr,
                    "GET",
                    &format!("/jobs/{id}/artifacts/{name}"),
                    "",
                )?;
                if status == 200 {
                    Ok((name, bytes))
                } else {
                    Err(format!("artifact {name} answered {status}"))
                }
            })
            .collect()
    }
}
