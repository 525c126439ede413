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
//!   episodes emitted, faults injected, uptime ticks).
//! * **Graceful drain** — a `shutdown` control frame (or, in the binary,
//!   SIGTERM via [`request_drain`]) flips the daemon into draining:
//!   in-flight shards finish, new jobs get `busy`, and
//!   [`DaemonServer::serve`] returns `Ok(())` so the process can exit 0.
//! * **Deterministic chaos** — an optional [`FaultPlan`] injects refusals,
//!   mid-stream drops, stalls, and garbled frames, keyed off a connection
//!   counter, so every coordinator recovery path is exercisable in CI.
//!
//! The first frame of a connection is dispatched by
//! [`crate::transport::parse_daemon_request`]: anything that is not a
//! `health`/`shutdown` verb must be a job frame carrying its plan, and any
//! other job frame version (the plan-less v1 included) is answered with an
//! `error` frame naming it. A job whose report mode is pure `summary`
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
    shutdown_ack_frame, write_frame, DaemonRequest, HealthReport, TransportError, DEFAULT_TIMEOUT,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide drain request, set by the `seo-sweepd` binary's SIGTERM
/// handler (an atomic store is async-signal-safe; nothing else here is
/// called from the handler). Every [`DaemonServer`] in the process honours
/// it, alongside its own per-instance flag.
static GLOBAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Asks every daemon in this process to drain: finish in-flight jobs,
/// refuse new ones with `busy`, then return from
/// [`DaemonServer::serve`]. Safe to call from a signal handler.
pub fn request_drain() {
    GLOBAL_DRAIN.store(true, Ordering::Release);
}

/// How often the accept loop polls for connections and drain progress.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

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

/// Cumulative service counters, shared between the accept loop, the
/// per-connection threads, and anyone holding [`DaemonServer::stats`].
#[derive(Debug)]
pub struct DaemonStats {
    jobs_active: AtomicUsize,
    jobs_served: AtomicU64,
    episodes_emitted: AtomicU64,
    faults_injected: AtomicU64,
    started: Instant,
}

impl DaemonStats {
    fn new() -> Self {
        Self {
            jobs_active: AtomicUsize::new(0),
            jobs_served: AtomicU64::new(0),
            episodes_emitted: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Jobs running right now.
    #[must_use]
    pub fn jobs_active(&self) -> usize {
        self.jobs_active.load(Ordering::Acquire)
    }

    /// Jobs served to completion since the daemon started.
    #[must_use]
    pub fn jobs_served(&self) -> u64 {
        self.jobs_served.load(Ordering::Relaxed)
    }

    /// Episode reports emitted across all completed jobs.
    #[must_use]
    pub fn episodes_emitted(&self) -> u64 {
        self.episodes_emitted.load(Ordering::Relaxed)
    }

    /// Faults deliberately injected by the configured [`FaultPlan`].
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Whole seconds since the daemon started.
    #[must_use]
    pub fn uptime_ticks(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Snapshot for a `health` response.
    #[must_use]
    pub fn health(&self, accepting: bool) -> HealthReport {
        HealthReport {
            accepting,
            jobs_active: self.jobs_active(),
            jobs_served: self.jobs_served(),
            episodes_emitted: self.episodes_emitted(),
            faults_injected: self.faults_injected(),
            uptime_ticks: self.uptime_ticks(),
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
    stats: Arc<DaemonStats>,
    draining: AtomicBool,
    connections: AtomicU64,
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
            stats: Arc::new(DaemonStats::new()),
            draining: AtomicBool::new(false),
            connections: AtomicU64::new(0),
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

    /// The daemon's live counters.
    #[must_use]
    pub fn stats(&self) -> Arc<DaemonStats> {
        Arc::clone(&self.stats)
    }

    /// Asks **this** daemon to drain (the per-instance equivalent of a
    /// `shutdown` frame): finish in-flight jobs, answer new ones with
    /// `busy`, then return from [`Self::serve`].
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// True once a `shutdown` frame, [`Self::request_drain`], or the
    /// process-wide [`request_drain`] has been seen.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire) || GLOBAL_DRAIN.load(Ordering::Acquire)
    }

    /// Runs the service: accepts and dispatches connections — each one a
    /// job, a `health` probe, or a `shutdown` verb — until a drain is
    /// requested **and** every in-flight job has finished, then returns
    /// `Ok(())` (the binary's cue to exit 0).
    ///
    /// Jobs build their own cell runtimes from the plan they carry;
    /// `runtime` only names the inference kernel backend they run on.
    ///
    /// Per-connection failures are reported to stderr and never stop the
    /// loop; the daemon must survive misbehaving coordinators.
    ///
    /// # Errors
    ///
    /// [`TransportError::Io`] when the listener cannot be polled at all
    /// (per-connection accept hiccups are logged and survived).
    pub fn serve(self: &Arc<Self>, runtime: Arc<RuntimeLoop>) -> Result<(), TransportError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| io_err("listener set_nonblocking", &e))?;
        loop {
            if self.is_draining() && self.stats.jobs_active() == 0 {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let conn_index = self.connections.fetch_add(1, Ordering::Relaxed);
                    if let Some(faults) = &self.config.faults {
                        if faults.refuses_connection(conn_index) {
                            // Injected refusal: accept, count, slam shut.
                            self.stats.faults_injected.fetch_add(1, Ordering::Relaxed);
                            drop(stream);
                            continue;
                        }
                    }
                    let server = Arc::clone(self);
                    let runtime = Arc::clone(&runtime);
                    std::thread::spawn(move || {
                        if let Err(e) = server.handle_connection(stream, &runtime, conn_index) {
                            eprintln!("seo-sweepd: connection from {peer}: {e}");
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => {
                    // A transient accept failure (e.g. the peer aborted
                    // while queued) must not kill the service.
                    eprintln!("seo-sweepd: accept: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
    }

    /// One connection end to end: timeouts, first-frame dispatch,
    /// admission control, then the job/health/shutdown path.
    fn handle_connection(
        &self,
        mut stream: TcpStream,
        runtime: &RuntimeLoop,
        conn_index: u64,
    ) -> Result<(), TransportError> {
        // Accepted sockets may inherit the listener's non-blocking mode on
        // some platforms; the per-connection protocol is blocking-with-
        // timeout.
        stream
            .set_nonblocking(false)
            .and_then(|()| stream.set_read_timeout(Some(self.config.timeout)))
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
            DaemonRequest::Health => {
                let report = self.stats.health(!self.is_draining());
                write_frame(&mut stream, &report.to_frame())
            }
            DaemonRequest::Shutdown => {
                // Ack first, then flip the flag: the requester learns how
                // many jobs the daemon will finish before exiting.
                write_frame(&mut stream, &shutdown_ack_frame(self.stats.jobs_active()))?;
                self.draining.store(true, Ordering::Release);
                Ok(())
            }
            DaemonRequest::Job(job) => self.handle_job(&mut stream, &job, runtime, conn_index),
        }
    }

    /// Admission control plus the episode loop. The active-jobs slot is
    /// claimed with a compare-exchange so the `--jobs` cap holds under
    /// concurrent connections.
    fn handle_job(
        &self,
        stream: &mut TcpStream,
        job: &crate::transport::JobRequest,
        runtime: &RuntimeLoop,
        conn_index: u64,
    ) -> Result<(), TransportError> {
        let cap = self.config.jobs.max(1);
        let admitted = loop {
            if self.is_draining() {
                break false;
            }
            let active = self.stats.jobs_active.load(Ordering::Acquire);
            if active >= cap {
                break false;
            }
            if self
                .stats
                .jobs_active
                .compare_exchange(active, active + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break true;
            }
        };
        if !admitted {
            let active = self.stats.jobs_active();
            let cap = if self.is_draining() { 0 } else { cap };
            return write_frame(stream, &busy_frame(active, cap));
        }
        let mut injector = match &self.config.faults {
            Some(plan) => plan.injector(conn_index),
            None => FaultInjector::none(),
        };
        let served = serve_job(stream, job, runtime, &mut injector);
        self.stats.jobs_active.fetch_sub(1, Ordering::AcqRel);
        self.stats
            .faults_injected
            .fetch_add(injector.injected(), Ordering::Relaxed);
        match served {
            Ok(Some(count)) => {
                self.stats.jobs_served.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .episodes_emitted
                    .fetch_add(count as u64, Ordering::Relaxed);
                Ok(())
            }
            Ok(None) => Ok(()), // injected mid-stream death; not "served"
            Err(e) => Err(e),
        }
    }
}
