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
//! `--kernel NAME` (default `scalar`) selects the inference kernel backend
//! the daemon runs episodes with. Backends are bit-identical by the
//! `seo_nn::kernel` contract, so hosts in one pool may run different
//! backends without breaking the merge (see `docs/kernels.md`).
//!
//! `--fault SPEC` arms deterministic fault injection (the
//! [`FaultPlan`] grammar: `refuse=N,drop-after=K,stall-ms=T,garble=K,seed=S`)
//! for exercising coordinator recovery. Never use it in production pools.

use seo_core::prelude::*;
use seo_core::transport::{health_request_frame, read_frame, shutdown_request_frame, write_frame};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// `%KERNELS%` is filled from [`KernelBackend::valid_names`] so the usage
/// text can never go stale against the enum. Printed with exit code 0 on
/// `--help` and exit code 2 on any argument error.
const USAGE_TEMPLATE: &str = "usage: sweepd [--listen HOST:PORT] [--kernel NAME] [--jobs N] \
    [--timeout-secs T]\n              [--fault SPEC] [--health ADDR] [--shutdown ADDR]\n  \
    --listen       address to accept coordinator connections on (default 127.0.0.1:7641)\n  \
    --kernel       inference kernel backend: %KERNELS% (default scalar;\n                 \
    bit-identical output, see docs/kernels.md)\n  \
    --jobs         max concurrently running jobs; extra jobs get a busy frame (default 4)\n  \
    --timeout-secs per-connection read/write timeout in seconds (default 30)\n  \
    --fault        deterministic fault injection, e.g. refuse=2,drop-after=5,seed=7\n                 \
    (keys: refuse, drop-after, stall-ms, stall-at, garble, seed; testing only)\n  \
    --health       client mode: print ADDR's health frame to stdout and exit\n  \
    --shutdown     client mode: ask ADDR to drain (finish jobs, refuse new ones, exit 0)\n  \
    --help, -h     print this usage and exit 0";

struct Cli {
    listen: String,
    jobs: usize,
    timeout: Duration,
    faults: Option<FaultPlan>,
    kernel: KernelBackend,
}

/// Everything `parse_cli` can ask `main` to do besides serving.
enum CliOutcome {
    Run(Cli),
    Help,
    /// Client mode: send one control frame to a daemon and print the reply.
    Probe {
        addr: String,
        verb: ProbeVerb,
        timeout: Duration,
    },
}

enum ProbeVerb {
    Health,
    Shutdown,
}

fn parse_cli() -> Result<CliOutcome, String> {
    let mut listen = "127.0.0.1:7641".to_owned();
    let mut jobs = 4usize;
    let mut timeout = seo_core::transport::DEFAULT_TIMEOUT;
    let mut faults: Option<FaultPlan> = None;
    let mut probe: Option<(String, ProbeVerb)> = None;
    let mut kernel = KernelBackend::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(CliOutcome::Help),
            "--listen" => listen = value("--listen")?,
            "--kernel" => {
                kernel = value("--kernel")?
                    .parse::<KernelBackend>()
                    .map_err(|e| format!("--kernel: {e}"))?;
            }
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--jobs: expected a positive integer")?;
            }
            "--timeout-secs" => {
                timeout = value("--timeout-secs")?
                    .parse::<f64>()
                    .ok()
                    .filter(|&t| t > 0.0)
                    .and_then(|t| Duration::try_from_secs_f64(t).ok())
                    .ok_or("--timeout-secs: expected a positive number of seconds")?;
            }
            "--fault" => {
                let spec = value("--fault")?;
                faults = Some(
                    spec.parse::<FaultPlan>()
                        .map_err(|e| format!("--fault: {e}"))?,
                );
            }
            "--health" => probe = Some((value("--health")?, ProbeVerb::Health)),
            "--shutdown" => probe = Some((value("--shutdown")?, ProbeVerb::Shutdown)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some((addr, verb)) = probe {
        return Ok(CliOutcome::Probe {
            addr,
            verb,
            timeout,
        });
    }
    Ok(CliOutcome::Run(Cli {
        listen,
        jobs,
        timeout,
        faults,
        kernel,
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
fn run_probe(addr: &str, verb: &ProbeVerb, timeout: Duration) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("socket setup for {addr}: {e}"))?;
    let request = match verb {
        ProbeVerb::Health => health_request_frame(),
        ProbeVerb::Shutdown => shutdown_request_frame(),
    };
    write_frame(&mut stream, &request).map_err(|e| e.to_string())?;
    let reply = read_frame(&mut stream)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("{addr} closed the connection without a reply"))?;
    let text = String::from_utf8(reply).map_err(|e| format!("reply from {addr}: {e}"))?;
    println!("{text}");
    Ok(())
}

fn main() {
    let cli = match parse_cli() {
        Ok(CliOutcome::Run(cli)) => cli,
        Ok(CliOutcome::Help) => {
            println!(
                "{}",
                USAGE_TEMPLATE.replace("%KERNELS%", &KernelBackend::valid_names())
            );
            return;
        }
        Ok(CliOutcome::Probe {
            addr,
            verb,
            timeout,
        }) => {
            if let Err(e) = run_probe(&addr, &verb, timeout) {
                eprintln!("sweepd: {e}");
                std::process::exit(1);
            }
            return;
        }
        Err(e) => {
            eprintln!("sweepd: {e}");
            eprintln!(
                "{}",
                USAGE_TEMPLATE.replace("%KERNELS%", &KernelBackend::valid_names())
            );
            std::process::exit(2);
        }
    };
    let run = || -> Result<(), Box<dyn std::error::Error>> {
        let config = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(config.tau)?;
        let runtime =
            RuntimeLoop::new(config, models, OptimizerKind::Offloading)?.with_kernel(cli.kernel);
        let server = Arc::new(DaemonServer::bind(
            &cli.listen,
            DaemonConfig {
                jobs: cli.jobs,
                timeout: cli.timeout,
                faults: cli.faults.clone(),
            },
        )?);
        install_drain_on_sigterm();
        // Backends are bit-identical by contract, so a mixed fleet is fine;
        // the note is purely informational.
        eprintln!("seo-sweepd: kernel backend '{}'", cli.kernel);
        // First stdout line is machine-readable: scripts scrape the actual
        // address (essential with `--listen 127.0.0.1:0`).
        println!("seo-sweepd listening on {}", server.local_addr()?);
        std::io::stdout().flush()?;
        if let Some(plan) = &cli.faults {
            eprintln!("seo-sweepd: fault injection armed: {plan}");
        }
        server.serve(Arc::new(runtime))?;
        let stats = server.stats();
        eprintln!(
            "seo-sweepd: drained: {} job(s) served, {} episode(s) emitted, \
             {} fault(s) injected over {} tick(s)",
            stats.jobs_served(),
            stats.episodes_emitted(),
            stats.faults_injected(),
            stats.uptime_ticks()
        );
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("sweepd: {e}");
        std::process::exit(1);
    }
}
