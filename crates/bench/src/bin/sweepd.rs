//! `seo-sweepd` — the long-lived multi-host sweep worker daemon.
//!
//! Listens on a TCP address and serves [`seo_core::transport`] traffic as
//! a **persistent service**: any number of consecutive jobs (each
//! connection carries one length-delimited `job` frame naming a spec range
//! of the shared sweep grid), `health` probes, and a graceful drain on a
//! `shutdown` frame or SIGTERM. Episodes run through the same serial
//! scratch loop every other sweep mode uses and stream back one report
//! frame per episode, in ascending index order, ending with a `done`
//! frame. `sweep --plan` on any machine, with a plan whose `exec.mode` is
//! `{"hosts": …}`, then merges several daemons' streams into output
//! bit-identical to a serial sweep. The service book is `docs/sweepd.md`.
//!
//! ```sh
//! # On each worker host:
//! seo-sweepd --listen 0.0.0.0:7641 --jobs 4
//! # On the coordinator (the plan's exec.mode.hosts lists the workers):
//! sweep --plan fleet.json --verify > merged.ndjson
//! # Operations:
//! seo-sweepd --health 10.0.0.1:7641     # liveness + cumulative stats
//! seo-sweepd --shutdown 10.0.0.1:7641   # drain: finish jobs, exit 0
//! ```
//!
//! `--listen 127.0.0.1:0` lets the OS pick a free port; the daemon prints
//! the actual address as its first stdout line
//! (`seo-sweepd listening on ADDR`) so scripts and tests can scrape it.
//!
//! Each job runs on the inference kernel backend its plan names
//! (`exec.kernel`, see `docs/kernels.md`); the daemon has no backend of its
//! own.
//!
//! `--fault SPEC` arms deterministic fault injection (the
//! [`FaultPlan`] grammar: `refuse=N,drop-after=K,stall-ms=T,garble=K,seed=S`)
//! for exercising coordinator recovery. Never use it in production pools.

use seo_core::prelude::*;
use seo_core::transport::{exchange, health_request_frame, shutdown_request_frame};
use std::error::Error;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Printed with exit code 0 on `--help` and exit code 2 on any argument
/// error.
const USAGE: &str = "usage: sweepd [--listen HOST:PORT] [--jobs N] [--timeout-secs T]\n              \
    [--fault SPEC] [--health ADDR] [--shutdown ADDR]\n  \
    --listen       address to accept coordinator connections on (default 127.0.0.1:7641)\n  \
    --jobs         max concurrently running jobs; extra jobs get a busy frame (default 4)\n  \
    --timeout-secs per-connection timeout in seconds (default 30; client mode: connect too)\n  \
    --fault        deterministic fault injection, e.g. refuse=2,drop-after=5,seed=7\n                 \
    (keys: refuse, drop-after, stall-ms, garble, seed; testing only)\n  \
    --health       client mode: print ADDR's health frame to stdout and exit\n  \
    --shutdown     client mode: ask ADDR to drain (finish jobs, refuse new ones, exit 0)\n  \
    --help, -h     print this usage and exit 0";

struct Cli {
    listen: String,
    jobs: usize,
    timeout: Duration,
    faults: Option<FaultPlan>,
}

/// Everything `parse_cli` can ask `main` to do besides serving.
enum CliOutcome {
    Run(Cli),
    Help,
    /// Client mode: send one control frame to a daemon and print the reply.
    Probe {
        addr: String,
        request: Vec<u8>,
        timeout: Duration,
    },
}

fn parse_cli() -> Result<CliOutcome, String> {
    let mut listen = "127.0.0.1:7641".to_owned();
    let mut jobs = 4usize;
    let mut timeout = seo_core::transport::DEFAULT_TIMEOUT;
    let mut faults: Option<FaultPlan> = None;
    let mut probe: Option<(String, Vec<u8>)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(CliOutcome::Help),
            "--listen" => listen = value("--listen")?,
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--jobs: expected a positive integer")?;
            }
            "--timeout-secs" => {
                // A timeout that rounds to zero is refused by every
                // socket call, so it is an argument error here.
                timeout = value("--timeout-secs")?
                    .parse::<f64>()
                    .ok()
                    .and_then(|t| Duration::try_from_secs_f64(t).ok())
                    .filter(|t| !t.is_zero())
                    .ok_or("--timeout-secs: expected a positive number of seconds")?;
            }
            "--fault" => {
                let spec = value("--fault")?;
                faults = Some(
                    spec.parse::<FaultPlan>()
                        .map_err(|e| format!("--fault: {e}"))?,
                );
            }
            "--health" => probe = Some((value("--health")?, health_request_frame())),
            "--shutdown" => probe = Some((value("--shutdown")?, shutdown_request_frame())),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some((addr, request)) = probe {
        return Ok(CliOutcome::Probe {
            addr,
            request,
            timeout,
        });
    }
    Ok(CliOutcome::Run(Cli {
        listen,
        jobs,
        timeout,
        faults,
    }))
}

/// Installs a SIGTERM handler that flips the process-wide drain flag (an
/// atomic store — async-signal-safe). `seo-core` forbids unsafe code, so
/// the raw `signal(2)` shim lives here in the binary.
#[cfg(unix)]
fn install_drain_on_sigterm() {
    const SIGTERM: i32 = 15;
    extern "C" fn on_sigterm(_signum: i32) {
        seo_core::daemon::request_drain();
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler: extern "C" fn(i32) = on_sigterm;
    unsafe {
        signal(SIGTERM, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_drain_on_sigterm() {}

/// Client mode: one control round-trip against a running daemon. Prints
/// the reply frame (JSON) to stdout.
fn run_probe(addr: &str, request: &[u8], timeout: Duration) -> Result<(), Box<dyn Error>> {
    let reply = exchange(addr, request, timeout)?;
    let text = String::from_utf8(reply).map_err(|e| format!("reply from {addr}: {e}"))?;
    writeln!(std::io::stdout().lock(), "{text}")?;
    Ok(())
}

/// Serve mode: binds, announces the address, and serves until drained.
fn run_daemon(cli: &Cli) -> Result<(), Box<dyn Error>> {
    // `serve` still takes a runtime it no longer reads (jobs build their
    // own from their plans); ROADMAP direction 3 deletes the argument.
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau)?;
    let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)?;
    let server = Arc::new(DaemonServer::bind(
        &cli.listen,
        DaemonConfig {
            jobs: cli.jobs,
            timeout: cli.timeout,
            faults: cli.faults.clone(),
        },
    )?);
    install_drain_on_sigterm();
    // First stdout line is machine-readable: scripts scrape the actual
    // address (essential with `--listen 127.0.0.1:0`).
    {
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "seo-sweepd listening on {}", server.local_addr()?)?;
        stdout.flush()?;
    }
    if let Some(plan) = &cli.faults {
        eprintln!("seo-sweepd: fault injection armed: {plan}");
    }
    server.serve(Arc::new(runtime))?;
    let health = server.health();
    eprintln!(
        "seo-sweepd: drained: {} job(s) served, {} episode(s) emitted, \
         {} fault(s) injected over {} tick(s)",
        health.jobs_served, health.episodes_emitted, health.faults_injected, health.uptime_ticks
    );
    Ok(())
}

fn main() {
    // Argument errors exit 2 with the usage text; --help exits 0; runtime
    // failures (a closed stdout included) exit 1.
    let result = match parse_cli() {
        Ok(CliOutcome::Help) => writeln!(std::io::stdout().lock(), "{USAGE}").map_err(Into::into),
        Ok(CliOutcome::Probe {
            addr,
            request,
            timeout,
        }) => run_probe(&addr, &request, timeout),
        Ok(CliOutcome::Run(cli)) => run_daemon(&cli),
        Err(e) => {
            eprintln!("sweepd: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("sweepd: {e}");
        std::process::exit(1);
    }
}
