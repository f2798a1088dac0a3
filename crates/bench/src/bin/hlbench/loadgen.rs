//! The load generator: the `hlpower-serve` child process, and the closed
//! loop that drives it from one sender on one keep-alive connection.
//!
//! The sender sends a request, waits for its response and sends the
//! next, so each request's latency is the server's whole turnaround for
//! it alone, and the server is never offered more work than one CPU
//! does. With two connections, whether their requests met in the
//! batcher's gather window flipped from run to run, and every timing
//! with it; with more threads than the host's two vCPUs, the timings
//! measured the scheduler.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hlpower_obs::json::{self, Value};
use hlpower_serve::client::{self, read_response};
use hlpower_serve::server::MAX_KEEPALIVE_REQUESTS;

use crate::check::{parse_estimate, Estimate};
use crate::workload::Request;

/// Connections, and sender threads, of the generator.
pub const CONNECTIONS: usize = 1;
/// The server's `--threads`: one worker for one CPU.
pub const SERVER_THREADS: usize = 1;
/// A response slower than this counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// Builds `hlpower-serve` from the checkout at `root` and returns the
/// binary's path (under `CARGO_TARGET_DIR` when it is set).
pub fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "hlpower-serve"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("could not run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building hlpower-serve failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let bin = target.join("release").join("hlpower-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no server binary at {}", bin.display()))
    }
}

/// A running `hlpower-serve serve --threads 1` child.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    pub fn spawn(bin: &Path, cache_mb: Option<usize>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        let threads = SERVER_THREADS.to_string();
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--threads", &threads]);
        if let Some(mb) = cache_mb {
            cmd.args(["--cache-mb", &mb.to_string()]);
        }
        // Telemetry sinks stay off: the benchmark measures the default
        // configuration.
        for var in ["HLPOWER_ACCESS_LOG", "HLPOWER_TRACE", "HLPOWER_SLOW_MS", "HLPOWER_THREADS"] {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("could not start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().strip_prefix("hlpower-serve listening on ").map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc { child, _stdout: stdout, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    /// The live `GET /metrics` snapshot.
    pub fn metrics(&self) -> Result<Value, String> {
        let resp = client::request(&self.addr, "GET", "/metrics", None)
            .map_err(|e| format!("GET /metrics: {e}"))?;
        json::parse(&resp.body).map_err(|e| format!("unparseable /metrics: {e}"))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Graceful `POST /shutdown`, then waits; kills the child if it has
    /// not exited within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = client::request(&self.addr, "POST", "/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not shut down within 10 s".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Reached only on an error path that skipped `stop`.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM"))
}

/// One timed request: its index in the request list, and times in
/// seconds from the start of its loop.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    /// When the previous response arrived (the loop's start for the first
    /// request): from then on the sender could have sent this one.
    pub ready: f64,
    pub sent: f64,
    pub done: f64,
    pub outcome: Result<Estimate, String>,
}

impl Sample {
    /// Seconds from sending the request to reading its whole response.
    pub fn latency(&self) -> f64 {
        self.done - self.sent
    }
}

/// A keep-alive connection and the requests written on it.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    written: usize,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let connect = || {
            let writer = TcpStream::connect(addr)?;
            writer.set_nodelay(true)?;
            writer.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
            let reader = BufReader::new(writer.try_clone()?);
            Ok::<_, std::io::Error>(Conn { writer, reader, written: 0 })
        };
        connect().map_err(|e| format!("connect {addr}: {e}"))
    }

    /// The server closes a connection after it has answered
    /// [`MAX_KEEPALIVE_REQUESTS`] requests, so no more may be written.
    fn full(&self) -> bool {
        self.written >= MAX_KEEPALIVE_REQUESTS
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.written += 1;
        self.writer.write_all(bytes).map_err(|e| format!("i/o: {e}"))
    }

    /// The next response's estimate, and whether the connection stays
    /// open after it.
    fn receive(&mut self) -> (Result<Estimate, String>, bool) {
        match read_response(&mut self.reader) {
            Ok(r) => {
                let open = !r.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
                let outcome = if r.status == 200 {
                    parse_estimate(&r.body)
                } else {
                    Err(format!("status {}: {}", r.status, r.body.trim()))
                };
                (outcome, open)
            }
            Err(e) => (Err(format!("i/o: {e}")), false),
        }
    }
}

/// Sends one request on `conn` and reads its response, opening a new
/// connection first when there is none or it is full.
fn exchange(conn: &mut Option<Conn>, addr: &str, bytes: &[u8]) -> Result<Estimate, String> {
    if conn.as_ref().is_none_or(Conn::full) {
        *conn = Some(Conn::open(addr)?);
    }
    let c = conn.as_mut().expect("a connection was just opened");
    let (outcome, open) = match c.send(bytes) {
        Ok(()) => c.receive(),
        Err(e) => (Err(e), false),
    };
    if !open {
        *conn = None;
    }
    outcome
}

/// Sends `requests[from..to]` in order, each once its predecessor's
/// response has arrived and `between` has returned, until they run out
/// or `secs` seconds have passed, and returns one sample per request
/// sent.
pub fn closed_loop(
    addr: &str,
    requests: &[Request],
    from: usize,
    to: usize,
    secs: f64,
    between: &mut impl FnMut(),
) -> Vec<Sample> {
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64();
    let (mut conn, mut samples, mut ready) = (None, Vec::new(), 0.0);
    for (index, r) in requests.iter().enumerate().take(to).skip(from) {
        between();
        let sent = now();
        if sent >= secs {
            break;
        }
        let outcome = exchange(&mut conn, addr, &r.bytes);
        let done = now();
        samples.push(Sample { index, ready, sent, done, outcome });
        ready = done;
    }
    samples
}

/// Sends every request once, one at a time on one connection, and
/// returns the estimates; any failure is an error.
pub fn warm_up(addr: &str, requests: &[Request]) -> Result<Vec<Estimate>, String> {
    let mut conn = None;
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            exchange(&mut conn, addr, &r.bytes)
                .map_err(|e| format!("warm-up request {i} failed: {e}"))
        })
        .collect()
}
