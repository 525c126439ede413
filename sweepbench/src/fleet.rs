//! Loopback daemon fleet for the hosts workload: launch, health-wait,
//! resident-memory probe, and shutdown. Daemons are this binary re-invoked
//! as `--role daemon`; each binds a port the OS picks free and prints it.
//!
//! No daemon outlives a run: [`Fleet::shutdown`] sends every daemon the
//! `shutdown` frame and reaps it, [`Drop`] does the same on any error path,
//! and a daemon whose parent dies sees its stdin close and drains itself.

use seo_core::config::SeoConfig;
use seo_core::daemon::{DaemonConfig, DaemonServer};
use seo_core::model::ModelSet;
use seo_core::optimizer::OptimizerKind;
use seo_core::runtime::RuntimeLoop;
use seo_core::transport::{
    health_request_frame, read_frame, shutdown_request_frame, write_frame, HealthReport, HostPool,
    HostSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Prefix of the first stdout line a daemon prints.
const LISTENING: &str = "listening on ";

/// How long a daemon may take to answer `health` after launch, and to exit
/// after `shutdown`.
const DEADLINE: Duration = Duration::from_secs(20);

/// One launched daemon.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open for the daemon's lifetime; closing it asks it to drain.
    stdin: Option<ChildStdin>,
}

/// The launched daemons.
pub struct Fleet {
    daemons: Vec<Daemon>,
}

impl Fleet {
    /// Launches `n` daemons and waits until each answers `health`.
    pub fn launch(n: usize) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut fleet = Self {
            daemons: Vec::with_capacity(n),
        };
        for i in 0..n {
            let mut child = Command::new(&exe)
                .args(["--role", "daemon"])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawning daemon {i}: {e}"))?;
            let stdin = child.stdin.take();
            let stdout = child.stdout.take().expect("stdout was piped");
            // Registered before the address is read, so an early failure
            // still reaps the child through Drop.
            fleet.daemons.push(Daemon {
                child,
                addr: String::new(),
                stdin,
            });
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("reading daemon {i} address: {e}"))?;
            let addr = line.trim().strip_prefix(LISTENING).ok_or_else(|| {
                format!(
                    "daemon {i} printed '{}' instead of its address",
                    line.trim()
                )
            })?;
            fleet.daemons[i].addr = addr.to_owned();
        }
        for daemon in &fleet.daemons {
            wait_healthy(&daemon.addr)?;
        }
        Ok(fleet)
    }

    /// The fleet as a host pool (default retry and chunk policies).
    pub fn pool(&self) -> Result<HostPool, String> {
        HostPool::new(
            self.daemons
                .iter()
                .map(|d| HostSpec {
                    addr: d.addr.clone(),
                    capacity: 1,
                })
                .collect(),
        )
        .map_err(|e| e.to_string())
    }

    /// Sum of the daemons' peak resident set sizes, in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        self.daemons
            .iter()
            .map(|d| peak_rss_kib(&format!("/proc/{}/status", d.child.id())).unwrap_or(0))
            .sum()
    }

    /// CPU time the daemons have used so far, user and system, in ns.
    pub fn cpu_ns(&self) -> u64 {
        self.daemons
            .iter()
            .map(|d| cpu_ns(&format!("/proc/{}/stat", d.child.id())).unwrap_or(0))
            .sum()
    }

    /// Sends every daemon the `shutdown` frame and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let result = self.stop_all();
        self.daemons.clear();
        result
    }

    /// Stops every daemon; the first error is returned after all of them
    /// have been reaped.
    fn stop_all(&mut self) -> Result<(), String> {
        let mut first_error = None;
        for daemon in &mut self.daemons {
            if let Err(e) = stop(daemon) {
                first_error.get_or_insert(e);
            }
        }
        first_error.map_or(Ok(()), Err)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.stop_all();
    }
}

/// Shuts one daemon down: `shutdown` frame, stdin closed, then a bounded
/// wait for exit; a daemon still alive at the deadline is killed.
fn stop(daemon: &mut Daemon) -> Result<(), String> {
    let sent = if daemon.addr.is_empty() {
        Err("daemon never reported an address".to_owned())
    } else {
        exchange(&daemon.addr, &shutdown_request_frame()).map(drop)
    };
    drop(daemon.stdin.take());
    let deadline = Instant::now() + DEADLINE;
    loop {
        match daemon.child.try_wait() {
            Ok(Some(status)) if status.success() => return sent,
            Ok(Some(status)) => return Err(format!("daemon {} exited with {status}", daemon.addr)),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            _ => {
                let _ = daemon.child.kill();
                let _ = daemon.child.wait();
                return Err(format!(
                    "daemon {} did not exit after shutdown",
                    daemon.addr
                ));
            }
        }
    }
}

/// Polls `health` until the daemon answers accepting or the deadline passes.
fn wait_healthy(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let answer = exchange(addr, &health_request_frame())
            .and_then(|reply| HealthReport::from_frame(&reply).map_err(|e| e.to_string()));
        match answer {
            Ok(report) if report.accepting => return Ok(()),
            Ok(_) | Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(_) => return Err(format!("daemon {addr} is not accepting jobs")),
            Err(e) => return Err(format!("daemon {addr} never answered health: {e}")),
        }
    }
}

/// One control-frame round trip.
fn exchange(addr: &str, request: &[u8]) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(DEADLINE))
        .and_then(|()| stream.set_write_timeout(Some(DEADLINE)))
        .map_err(|e| format!("socket setup {addr}: {e}"))?;
    write_frame(&mut stream, request).map_err(|e| e.to_string())?;
    read_frame(&mut stream)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("{addr} closed without a reply"))
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in KiB.
pub fn peak_rss_kib(status_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// User plus system CPU time of all threads of a process, in ns, from its
/// `/proc/<pid>/stat` (fields 14 and 15, in 10 ms clock ticks).
fn cpu_ns(stat_path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(stat_path).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let mut fields = text.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// The `--role daemon` entry point: the same service `seo-sweepd` runs
/// (a paper-default runtime built at start-up, then `DaemonServer::serve`),
/// bound to a free loopback port. Closing stdin requests a drain.
pub fn daemon_main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau)?;
    let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)?;
    let server = Arc::new(DaemonServer::bind("127.0.0.1:0", DaemonConfig::default())?);
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{LISTENING}{}", server.local_addr()?)?;
    stdout.flush()?;
    let watcher = Arc::clone(&server);
    // Left detached on purpose: it blocks on stdin until the parent closes
    // it (or dies), and the process exits as soon as `serve` returns.
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        watcher.request_drain();
    });
    server.serve(Arc::new(runtime))?;
    Ok(())
}
