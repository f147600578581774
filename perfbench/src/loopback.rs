//! The socket side: spawning `tdv serve`, the timed set-up, and the
//! open-loop measured phase driven over loopback.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use td_server::json::{quote, Json};
use td_workload::figures::{EX1_APPLICABLE, EX1_NOT_APPLICABLE, FIG4_PROJECTION};

use crate::inputs::{Req, Workload};

/// Linux reports `/proc/<pid>/stat` CPU times in ticks of 1/100 s
/// (`USER_HZ`) on every architecture this project targets.
const TICKS_PER_SECOND: f64 = 100.0;
/// A request with no answer after this long counts as timed out.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Requests still unsent this long after the last one was due count as
/// failed without being sent, so a stalled server cannot stretch a run.
const OVERRUN: Duration = Duration::from_secs(10);
/// Readiness poll interval while waiting for the port file.
const READY_POLL: Duration = Duration::from_micros(500);

/// A running `tdv serve`; on drop it is killed and reaped, and its port
/// file and snapshot directory are removed.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    port_file: PathBuf,
    snapshot_dir: Option<PathBuf>,
}

impl Server {
    /// Spawns the server on an ephemeral loopback port with default flags
    /// (telemetry off) and waits until its port file names the address.
    pub fn spawn(
        tdv: &Path,
        work: &Path,
        tag: &str,
        snapshot_dir: Option<PathBuf>,
    ) -> Result<Server, String> {
        let port_file = work.join(format!("port-{tag}"));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(tdv);
        cmd.arg("serve")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(dir) = &snapshot_dir {
            cmd.arg("--snapshot-dir").arg(dir);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tdv.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            port_file: port_file.clone(),
            snapshot_dir,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            // The file is written after bind and before the accept loop;
            // a partial read simply fails to parse and is retried.
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse() {
                    server.addr = addr;
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("tdv serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("tdv serve did not write its port file within 30 s".into());
            }
            std::thread::sleep(READY_POLL);
        }
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
    }

    /// Server-process CPU (user + system, all threads) in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((tick(11)? + tick(12)?) * 1000.0 / TICKS_PER_SECOND)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.port_file);
        if let Some(dir) = &self.snapshot_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One HTTP exchange over a fresh connection (the server answers
/// `Connection: close`). Returns the status, the body and the connect
/// time.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, String, Duration)> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connect = started.elapsed();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let body = String::from_utf8(raw[head_end + 4..].to_vec()).map_err(|_| bad())?;
    Ok((status, body, connect))
}

fn send(server: &Server, wl: &Workload, req: &Req) -> Result<String, String> {
    let path = wl.path(req);
    let (status, body, _) = call(
        server.addr,
        req.kind.method(),
        &path,
        wl.body(req).as_bytes(),
    )
    .map_err(|e| format!("{} {path}: {e}", req.kind.method()))?;
    if !(200..300).contains(&status) {
        return Err(format!(
            "{} {path}: status {status}: {}",
            req.kind.method(),
            body.trim()
        ));
    }
    Ok(body)
}

/// The paper's Example 1 on Fig. 3: the projection `Π_{a2,e2,h2}(A)`
/// must keep exactly the methods the paper lists.
pub fn example1(server: &Server) -> Result<(), String> {
    let text = td_model::text::schema_to_text(&td_workload::fig3());
    let put = call(
        server.addr,
        "PUT",
        "/v1/tenants/paper/schemas/fig3",
        text.as_bytes(),
    )
    .map_err(|e| format!("example 1 PUT: {e}"))?;
    if put.0 != 201 {
        return Err(format!("example 1 PUT: status {}", put.0));
    }
    let body = format!(
        "{{\"tenant\": \"paper\", \"schema\": \"fig3\", \"type\": \"A\", \"attrs\": {}}}",
        td_server::json::str_array(FIG4_PROJECTION)
    );
    let (status, answer, _) = call(server.addr, "POST", "/v1/project", body.as_bytes())
        .map_err(|e| format!("example 1 project: {e}"))?;
    if status != 200 {
        return Err(format!("example 1 project: status {status}"));
    }
    let doc = Json::parse(&answer).map_err(|e| format!("example 1 answer: {e}"))?;
    for (key, expected) in [
        ("applicable", EX1_APPLICABLE),
        ("not_applicable", EX1_NOT_APPLICABLE),
    ] {
        let got = crate::check::label_set(&doc, key);
        let want = expected.iter().map(|s| s.to_string()).collect();
        if got.as_ref() != Some(&want) {
            return Err(format!(
                "example 1: `{key}` is {got:?}, the paper says {want:?}"
            ));
        }
    }
    Ok(())
}

/// One timed set-up: spawn the server, check Example 1, register every
/// tenant's base schema and answer one warm request per (tenant, source
/// type). Returns the live server, the elapsed time and the outcome of
/// the Example 1 check.
pub fn setup(
    wl: &Workload,
    tdv: &Path,
    work: &Path,
    tag: &str,
) -> Result<(Server, Duration, Result<(), String>), String> {
    let snapshot_dir = if wl.snapshot_dir {
        let dir = work.join(format!("snapshots-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Some(dir)
    } else {
        None
    };
    let started = Instant::now();
    let server = Server::spawn(tdv, work, tag, snapshot_dir)?;
    let paper = example1(&server);
    for req in &wl.setup {
        let body = send(&server, wl, req)?;
        Json::parse(&body).map_err(|e| format!("set-up answer {}: {e}", quote(&body)))?;
    }
    Ok((server, started.elapsed(), paper))
}

/// What happened to one measured request. Times are offsets from the
/// start of the measured phase.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// HTTP status, or `None` when the exchange failed (timeout, reset).
    pub status: Option<u16>,
    pub body: String,
    pub error: Option<String>,
    /// When the request was sent.
    pub sent: Duration,
    /// When the answer was complete (or the exchange failed).
    pub done: Duration,
    pub connect: Duration,
    /// How late the sender was: send time minus the later of the due
    /// time and the sender's previous completion. Near zero unless the
    /// generator itself fell behind.
    pub late: Duration,
}

impl Outcome {
    /// Latency from when the schedule made the request due, so waiting
    /// behind an earlier slow answer counts.
    pub fn latency(&self, due: Duration) -> Duration {
        self.done.saturating_sub(due)
    }

    /// Time on the wire and in the server: sent to answered.
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

pub struct Measured {
    pub outcomes: Vec<Outcome>,
    pub server_cpu_ms: f64,
    /// CPU time the hypervisor gave to other guests during the phase.
    pub steal_ms: f64,
    pub wall: Duration,
}

/// Host-wide steal time in milliseconds, from the `cpu` line of
/// `/proc/stat` (zero where the kernel does not report it).
fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks * 1000.0 / TICKS_PER_SECOND)
}

/// Runs the measured phase: one sender thread per tenant, each holding
/// at most one connection, sending its tenant's requests when due.
pub fn drive(wl: &Workload, server: &Server) -> Result<Measured, String> {
    let cpu_before = server.cpu_ms()?;
    let steal_before = steal_ms();
    let start = Instant::now();
    let per_tenant: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..wl.tenants.len())
            .map(|t| scope.spawn(move || sender(wl, server.addr, t, start)))
            .collect();
        senders
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let server_cpu_ms = server.cpu_ms()? - cpu_before;
    let steal_ms = steal_ms() - steal_before;
    let mut slots: Vec<Option<Outcome>> = vec![None; wl.measured.len()];
    for (i, o) in per_tenant.into_iter().flatten() {
        slots[i] = Some(o);
    }
    let outcomes = slots
        .into_iter()
        .map(|o| o.expect("every measured request has an outcome"))
        .collect();
    Ok(Measured {
        outcomes,
        server_cpu_ms,
        steal_ms,
        wall,
    })
}

fn sender(wl: &Workload, addr: SocketAddr, tenant: usize, start: Instant) -> Vec<(usize, Outcome)> {
    let deadline = wl.measured.last().map_or(Duration::ZERO, |r| r.due) + OVERRUN;
    let mut out = Vec::new();
    let mut prev_done = Duration::ZERO;
    for (i, req) in wl
        .measured
        .iter()
        .enumerate()
        .filter(|(_, r)| r.tenant == tenant)
    {
        let now = start.elapsed();
        if req.due > now {
            std::thread::sleep(req.due - now);
        }
        let sent = start.elapsed();
        let late = sent.saturating_sub(req.due.max(prev_done));
        let result = if sent > deadline {
            Err(std::io::Error::other(
                "not sent: the phase overran its deadline",
            ))
        } else {
            call(
                addr,
                req.kind.method(),
                &wl.path(req),
                wl.body(req).as_bytes(),
            )
        };
        let done = start.elapsed();
        prev_done = done;
        let outcome = match result {
            Ok((status, body, connect)) => Outcome {
                status: Some(status),
                body,
                error: None,
                sent,
                done,
                connect,
                late,
            },
            Err(e) => Outcome {
                status: None,
                body: String::new(),
                error: Some(e.to_string()),
                sent,
                done,
                connect: Duration::ZERO,
                late,
            },
        };
        out.push((i, outcome));
    }
    out
}
