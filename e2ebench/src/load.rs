//! The `srclda-served` process and the open-loop HTTP load generator.
//!
//! All load comes from this process: one thread per persistent
//! connection, at most two, opened before timing starts. Each request is
//! timed from its scheduled send time, so a stall counts against every
//! request it delays; requests due while earlier ones are outstanding are
//! pipelined on the connection rather than held back.

use crate::workload::{CACHE, FOLD_IN_SEED, FOLD_IN_SWEEPS, WORKERS};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A running daemon. Dropping it stops the process and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Spawn until the "listening" line on stderr (models are loaded by
    /// then).
    pub ready_secs: f64,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    pub fn spawn(bin: &Path, model: &Path) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--model")
            .arg(format!("m={}", model.display()))
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--cache", &CACHE.to_string()])
            .args(["--iterations", &FOLD_IN_SWEEPS.to_string()])
            .args(["--seed", &FOLD_IN_SEED.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().ok_or("daemon stderr not captured")?;
        let (tx, rx) = mpsc::channel::<(Instant, String)>();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = tx.send((Instant::now(), line));
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            ready_secs: 0.0,
            stderr: Some(reader),
        };
        loop {
            match rx.recv_timeout(Duration::from_secs(120)) {
                Ok((at, line)) => {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        daemon.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        daemon.ready_secs = at.duration_since(start).as_secs_f64();
                        return Ok(daemon);
                    }
                }
                Err(_) => return Err("daemon exited or never printed its listening line".into()),
            }
        }
    }

    pub fn connect(&self) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(stream)
    }

    /// Peak resident set (`VmHWM`) of the daemon, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// SIGTERM, then wait for the graceful drain; SIGKILL after 20 s.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.join_stderr();
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not stop on SIGTERM".into()),
            }
        }
    }

    fn join_stderr(&mut self) {
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.join_stderr();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn get(path: &str, accept: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\nAccept: {accept}\r\n\r\n").into_bytes()
}

/// One `/infer` request of a schedule.
pub struct Planned {
    /// Index into the workload's request stream.
    pub index: usize,
    /// Send time, relative to the phase start.
    pub due: Duration,
    pub bytes: Vec<u8>,
}

/// The fate of one planned request.
pub struct Outcome {
    pub index: usize,
    /// Scheduled send time, relative to the phase start (s).
    pub due_s: f64,
    /// How late the generator sent it (ms).
    pub lag_ms: f64,
    /// Scheduled send → last response byte (ms); `None` if it failed.
    pub latency_ms: Option<f64>,
    pub status: u16,
    pub body: Vec<u8>,
}

/// Incremental HTTP/1.1 response parser over a byte buffer.
#[derive(Default)]
struct Responses {
    buf: Vec<u8>,
    pos: usize,
}

impl Responses {
    fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Next complete `(status, body)`, if buffered.
    fn next(&mut self) -> Result<Option<(u16, Vec<u8>)>, String> {
        let data = &self.buf[self.pos..];
        let Some(head_len) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&data[..head_len]).map_err(|_| "non-utf8 head")?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let len: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or("response without Content-Length")?;
        let total = head_len + 4 + len;
        if data.len() < total {
            return Ok(None);
        }
        let body = data[head_len + 4..total].to_vec();
        self.pos += total;
        Ok(Some((status, body)))
    }
}

/// Drive one connection through `plan` (sorted by `due`), open-loop.
pub fn drive(mut stream: TcpStream, plan: &[Planned], start: Instant) -> Vec<Outcome> {
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(plan.len());
    let mut responses = Responses::default();
    let mut next = 0;
    let mut done = 0;
    let mut chunk = vec![0u8; 256 * 1024];
    let mut broken = false;
    while done < plan.len() && !broken {
        let mut now = Instant::now();
        while next < plan.len() && start + plan[next].due <= now {
            let p = &plan[next];
            let lag_ms = now.duration_since(start + p.due).as_secs_f64() * 1e3;
            if stream.write_all(&p.bytes).is_err() {
                broken = true;
                break;
            }
            outcomes.push(Outcome {
                index: p.index,
                due_s: p.due.as_secs_f64(),
                lag_ms,
                latency_ms: None,
                status: 0,
                body: Vec::new(),
            });
            next += 1;
            now = Instant::now();
        }
        if broken {
            break;
        }
        // Wait for response bytes until the next send is due.
        let wait = if next < plan.len() {
            (start + plan[next].due).saturating_duration_since(now)
        } else {
            Duration::from_secs(30)
        };
        if done == next {
            // Nothing outstanding: sleep until the next send.
            std::thread::sleep(wait);
            continue;
        }
        let _ = stream.set_read_timeout(Some(wait.max(Duration::from_micros(50))));
        match stream.read(&mut chunk) {
            Ok(0) => broken = true,
            Ok(n) => {
                let at = Instant::now();
                responses.feed(&chunk[..n]);
                loop {
                    match responses.next() {
                        Ok(Some((status, body))) => {
                            let o = &mut outcomes[done];
                            let due = start + plan[done].due;
                            o.status = status;
                            o.latency_ms = Some(at.duration_since(due).as_secs_f64() * 1e3);
                            o.body = body;
                            done += 1;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            broken = true;
                            break;
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if next >= plan.len() {
                    // Nothing left to send and 30 s without a byte.
                    broken = true;
                }
            }
            Err(_) => broken = true,
        }
    }
    // Requests never sent count as failed, lagging by the whole phase.
    for p in &plan[outcomes.len()..] {
        outcomes.push(Outcome {
            index: p.index,
            due_s: p.due.as_secs_f64(),
            lag_ms: Instant::now()
                .saturating_duration_since(start + p.due)
                .as_secs_f64()
                * 1e3,
            latency_ms: None,
            status: 0,
            body: Vec::new(),
        });
    }
    outcomes
}

/// One request/response round trip on a connection; returns
/// `(status, body, seconds)`.
pub fn roundtrip(stream: &mut TcpStream, bytes: &[u8]) -> Result<(u16, Vec<u8>, f64), String> {
    let start = Instant::now();
    stream.write_all(bytes).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut responses = Responses::default();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if let Some((status, body)) = responses.next()? {
            return Ok((status, body, start.elapsed().as_secs_f64()));
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-response".into());
        }
        responses.feed(&chunk[..n]);
    }
}
