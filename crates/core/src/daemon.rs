//! The long-lived `seo-sweepd` service: a persistent, multi-job worker
//! daemon over the [`crate::transport`] wire protocol.
//!
//! Every job runs through [`crate::transport::serve_job`] — the worker
//! loop [`crate::shard::serve_shard`] that `sweep --worker` also runs, with
//! each payload written as a frame — and this module wraps that job path
//! in a *service*:
//!
//! * **Persistence** — the accept loop survives per-connection errors and
//!   serves any number of consecutive jobs; a client that disconnects
//!   mid-job costs one thread's cleanup, never the process.
//! * **Admission control** — at most [`DaemonConfig::jobs`] jobs run
//!   concurrently; a job beyond the cap (or during drain) is answered
//!   with a structured `busy` frame — backpressure the coordinator
//!   retries on, not a silent hang.
//! * **Introspection** — a `health` request frame is answered with a
//!   [`HealthReport`]: liveness plus cumulative counters (jobs served,
//!   episodes emitted, faults injected, uptime ticks). That report is the
//!   daemon's one record: admission, drain and the counters all update
//!   it under one lock, and in-process callers read it through
//!   [`DaemonServer::health`].
//! * **No wait on accept** — the accept loop blocks in `accept`, so each
//!   connection (every lease opens one) is read the moment it arrives.
//! * **Graceful drain** — a `shutdown` control frame (or, in the binary,
//!   SIGTERM via [`request_drain`]) flips the daemon into draining:
//!   in-flight shards finish, new jobs get `busy`, and
//!   [`DaemonServer::serve`] returns `Ok(())` so the process can exit 0.
//!   A watcher thread, the one poll left, checks every 10 ms whether the
//!   last job has finished and then wakes the blocked `accept` with a
//!   connection of its own, which is never counted or served. A signal
//!   cannot do that itself: `signal()` installs its handler with
//!   `SA_RESTART`, so `accept` resumes after it.
//! * **Deterministic chaos** — an optional [`FaultPlan`] injects refusals,
//!   mid-stream drops, stalls, and garbled frames, keyed off a connection
//!   counter, so every coordinator recovery path is exercisable in CI.
//!
//! The first frame of a connection is dispatched by
//! [`crate::transport::parse_daemon_request`]: anything that is not a
//! `health`/`shutdown` verb must be a job frame carrying its plan, and any
//! other job frame version (the plan-less v1 included) is answered with an
//! `error` frame naming it. A job whose report mode is `summary`
//! flows through the same path but ships a single
//! [`crate::shard::summary_line`] sketch payload instead of per-episode
//! frames ([`crate::agg`]); the `episodes_emitted` counter still advances
//! by the episodes *run*, so health accounting is identical across report
//! modes.
//!
//! The full lifecycle, frame grammar, and operational notes live in
//! `docs/sweepd.md`.

use crate::fault::{FaultInjector, FaultPlan};
use crate::runtime::RuntimeLoop;
use crate::transport::{
    busy_frame, error_frame, io_err, parse_daemon_request, read_frame, serve_job,
    shutdown_ack_frame, write_frame, DaemonRequest, HealthReport, JobRequest, TransportError,
    DEFAULT_TIMEOUT,
};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Process-wide drain request, set by the `seo-sweepd` binary's SIGTERM
/// handler (an atomic store is async-signal-safe; nothing else here is
/// called from the handler). Every [`DaemonServer`] in the process honours
/// it, alongside its own per-instance switch (its health record's
/// `accepting`).
static GLOBAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Asks every daemon in this process to drain: finish in-flight jobs,
/// refuse new ones with `busy`, then return from
/// [`DaemonServer::serve`]. Safe to call from a signal handler.
pub fn request_drain() {
    GLOBAL_DRAIN.store(true, Ordering::Release);
}

/// How often the drain watcher checks whether a draining daemon has
/// finished its last job, so [`DaemonServer::serve`] returns about this
/// long after that job at most. A failed `accept` also backs off this long.
const DRAIN_POLL: Duration = Duration::from_millis(10);

/// Tuning for a [`DaemonServer`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Maximum concurrently running jobs; job number `jobs + 1` gets a
    /// `busy` frame. Clamped to ≥ 1.
    pub jobs: usize,
    /// Per-connection read/write timeout, so a coordinator that connects
    /// and goes silent cannot pin a daemon thread forever.
    pub timeout: Duration,
    /// Deterministic fault injection (testing only); `None` serves
    /// faithfully.
    pub faults: Option<FaultPlan>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            jobs: 4,
            timeout: DEFAULT_TIMEOUT,
            faults: None,
        }
    }
}

/// The long-lived multi-job worker daemon (see the module docs for the
/// service contract). Share it in an [`Arc`] to call
/// [`Self::request_drain`] from another thread while [`Self::serve`]
/// runs.
#[derive(Debug)]
pub struct DaemonServer {
    listener: TcpListener,
    config: DaemonConfig,
    connections: AtomicU64,
    started: Instant,
    /// The daemon's one record of what it is doing and has done: the
    /// counters a `health` request is answered with, `accepting` doubling
    /// as this instance's drain switch. Admission control claims and
    /// releases job slots under its lock, so a drain never sees zero
    /// active jobs while a job is being admitted or recorded.
    record: Mutex<HealthReport>,
}

impl DaemonServer {
    /// Binds the listener. Use port `0` to let the OS pick (then read the
    /// actual address back via [`Self::local_addr`]).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when the address cannot be bound.
    pub fn bind(addr: &str, config: DaemonConfig) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err(&format!("bind {addr}"), &e))?;
        Ok(Self {
            listener,
            config,
            connections: AtomicU64::new(0),
            started: Instant::now(),
            record: Mutex::new(HealthReport {
                accepting: true,
                jobs_active: 0,
                jobs_served: 0,
                episodes_emitted: 0,
                faults_injected: 0,
                uptime_ticks: 0,
            }),
        })
    }

    /// The bound address (the one to list in a plan's `exec.mode.hosts`).
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when the socket cannot report its address.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.listener
            .local_addr()
            .map_err(|e| io_err("local_addr", &e))
    }

    /// The daemon's liveness and cumulative counters since it started:
    /// exactly the [`HealthReport`] a `health` request is answered with.
    #[must_use]
    pub fn health(&self) -> HealthReport {
        self.served(&self.record())
    }

    fn record(&self) -> MutexGuard<'_, HealthReport> {
        self.record.lock().expect("health record mutex poisoned")
    }

    /// `record` as it is served: the process-wide drain folded into
    /// `accepting`, and the uptime filled in.
    fn served(&self, record: &HealthReport) -> HealthReport {
        HealthReport {
            accepting: record.accepting && !GLOBAL_DRAIN.load(Ordering::Acquire),
            uptime_ticks: self.started.elapsed().as_secs(),
            ..record.clone()
        }
    }

    /// Asks **this** daemon to drain (the per-instance equivalent of a
    /// `shutdown` frame): finish in-flight jobs, answer new ones with
    /// `busy`, then return from [`Self::serve`].
    pub fn request_drain(&self) {
        self.record().accepting = false;
    }

    /// Runs the service: accepts and dispatches connections — each one a
    /// job, a `health` probe, or a `shutdown` verb — until a drain is
    /// requested **and** every in-flight job has finished, then returns
    /// `Ok(())` (the binary's cue to exit 0).
    ///
    /// Jobs build their own cell runtimes, on the kernel backend their plan
    /// names, from the plan they carry: `_runtime` is unused, and ROADMAP
    /// direction 3 deletes it once the benchmark stops passing one.
    ///
    /// Per-connection failures are reported to stderr and never stop the
    /// loop; the daemon must survive misbehaving coordinators.
    ///
    /// The loop blocks in `accept`. A watcher thread checks every 10 ms
    /// whether the daemon is drained and then wakes the loop with a
    /// connection of its own (a SIGTERM handler cannot: `accept` restarts
    /// after it). A connection accepted once the daemon is drained ends
    /// the loop and is never counted, faulted or served.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when the listener cannot report its address
    /// (per-connection accept hiccups are logged and survived).
    pub fn serve(self: &Arc<Self>, _runtime: Arc<RuntimeLoop>) -> Result<(), TransportError> {
        let wake = self.wake_addr()?;
        let watcher = Arc::clone(self);
        std::thread::spawn(move || watcher.wake_when_drained(wake));
        loop {
            let accepted = self.listener.accept();
            if self.drained() {
                return Ok(());
            }
            match accepted {
                Ok((stream, peer)) => {
                    let conn_index = self.connections.fetch_add(1, Ordering::Relaxed);
                    if let Some(faults) = &self.config.faults {
                        if faults.refuses_connection(conn_index) {
                            // Injected refusal: accept, count, slam shut.
                            self.record().faults_injected += 1;
                            drop(stream);
                            continue;
                        }
                    }
                    let server = Arc::clone(self);
                    std::thread::spawn(move || {
                        if let Err(e) = server.handle_connection(stream) {
                            eprintln!("seo-sweepd: connection from {peer}: {e}");
                        }
                    });
                }
                Err(e) => {
                    // A transient accept failure (e.g. the peer aborted
                    // while queued) must not kill the service; backing off
                    // keeps one that repeats (out of descriptors) from
                    // spinning.
                    eprintln!("seo-sweepd: accept: {e}");
                    std::thread::sleep(DRAIN_POLL);
                }
            }
        }
    }

    /// Whether the daemon may exit: a drain was requested (per instance or
    /// process-wide) and no job is running. Once true it stays true, since
    /// admission refuses every job while draining.
    fn drained(&self) -> bool {
        let health = self.health();
        !health.accepting && health.jobs_active == 0
    }

    /// The address the watcher connects to: the listener's own, with a
    /// wildcard (`0.0.0.0`, `::`) mapped to loopback.
    fn wake_addr(&self) -> Result<SocketAddr, TransportError> {
        let mut addr = self.local_addr()?;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(addr)
    }

    /// The watcher: once the daemon is drained, wakes the accept loop with
    /// a connection of its own, retrying each period until one opens. It
    /// holds its own handle on the server, so the listener stays open until
    /// the wake lands even if the loop has already returned.
    fn wake_when_drained(&self, wake: SocketAddr) {
        loop {
            std::thread::sleep(DRAIN_POLL);
            if self.drained() && TcpStream::connect_timeout(&wake, DRAIN_POLL).is_ok() {
                return;
            }
        }
    }

    /// One connection end to end: timeouts, first-frame dispatch,
    /// admission control, then the job/health/shutdown path.
    fn handle_connection(&self, mut stream: TcpStream) -> Result<(), TransportError> {
        stream
            .set_read_timeout(Some(self.config.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.config.timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| io_err("daemon socket setup", &e))?;
        let request = match read_frame(&mut stream)? {
            Some(payload) => match parse_daemon_request(&payload) {
                Ok(request) => request,
                Err(e) => {
                    let _ = write_frame(&mut stream, &error_frame(&e.to_string()));
                    return Err(e);
                }
            },
            None => return Ok(()), // peer connected and left; nothing to do
        };
        match request {
            DaemonRequest::Health => write_frame(&mut stream, &self.health().to_frame()),
            DaemonRequest::Shutdown => {
                // Ack first, then flip the flag: the requester learns how
                // many jobs the daemon will finish before exiting.
                write_frame(&mut stream, &shutdown_ack_frame(self.health().jobs_active))?;
                self.request_drain();
                Ok(())
            }
            DaemonRequest::Job(job) => self.handle_job(&mut stream, &job),
        }
    }

    /// Admission control plus the episode loop. The active-jobs slot is
    /// claimed under the health record's lock, so the `--jobs` cap holds
    /// under concurrent connections.
    fn handle_job(&self, stream: &mut TcpStream, job: &JobRequest) -> Result<(), TransportError> {
        let cap = self.config.jobs.max(1);
        let mut record = self.record();
        let health = self.served(&record);
        if !health.accepting || health.jobs_active >= cap {
            drop(record);
            let cap = if health.accepting { cap } else { 0 };
            return write_frame(stream, &busy_frame(health.jobs_active, cap));
        }
        record.jobs_active += 1;
        drop(record);
        let mut injector = match &self.config.faults {
            Some(plan) => plan.injector(),
            None => FaultInjector::none(),
        };
        let served = serve_job(stream, job, &mut injector);
        let mut record = self.record();
        record.jobs_active -= 1;
        record.faults_injected += injector.injected();
        // An injected mid-stream death (`Ok(None)`) is not "served".
        if let Ok(Some(count)) = served {
            record.jobs_served += 1;
            record.episodes_emitted += count as u64;
        }
        served.map(drop)
    }
}
