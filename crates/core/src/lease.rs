//! Pull-based lease scheduling for multi-host sweeps: the chunk policy and
//! the blocking lease queue behind [`crate::transport::RemoteCoordinator`].
//!
//! A **lease** is a small contiguous spec range `[start, end)` of the sweep
//! grid, granted to one host for one connection. Instead of assigning each
//! host a capacity-weighted slice of the whole grid up front, the
//! coordinator carves the grid into chunk-sized leases and lets hosts *pull*
//! the next lease whenever they are idle — so a fast host simply takes more
//! leases, and a straggler's slowness costs at most one chunk of tail
//! latency. When a host dies, times out, or is quarantined mid-lease, the
//! unreported remainder of its lease is returned to the queue and re-issued
//! to whichever host asks next (a *steal* when that is a different host).
//!
//! Determinism is untouched by any of this: every episode is a pure
//! function of its spec, and the streaming merge reorders reports by spec
//! index, so the merged output is bit-identical to the serial loop for
//! *every* chunk size — one spec per lease, the whole grid in one lease,
//! and everything in between. That associative-merge argument is what makes
//! arbitrary work splitting safe; `docs/scheduling.md` is the full book.
//!
//! # Example
//!
//! No network required — the queue is plain shared state:
//!
//! ```
//! use seo_core::lease::{ChunkPolicy, LeaseQueue};
//! use seo_core::shard::Shard;
//!
//! // Auto chunking targets ~4 leases per host: 24 specs over 2 hosts → 3.
//! assert_eq!(ChunkPolicy::Auto.resolve(24, 2), 3);
//!
//! // 6 specs in chunks of 4 carve into leases [0,4) and [4,6).
//! let queue = LeaseQueue::new(Shard::new(0, 6), 4);
//! assert_eq!(queue.initial_leases(), 2);
//!
//! // Host 0 pulls the first lease, dies after 2 of its 4 specs, and the
//! // tail goes back to the front of the queue for re-issue.
//! let lease = queue.pop().expect("work available");
//! assert_eq!((lease.shard.start, lease.shard.end), (0, 4));
//! queue.requeue(Shard::new(2, 4), 0);
//!
//! // Host 1 steals the tail (`reissued_from` names the loser), then pulls
//! // the remaining lease; after both complete the queue is finished and
//! // `pop` returns `None` instead of blocking.
//! let stolen = queue.pop().expect("re-issued lease");
//! assert_eq!(stolen.reissued_from, Some(0));
//! queue.complete();
//! let last = queue.pop().expect("final lease");
//! assert_eq!((last.shard.start, last.shard.end), (4, 6));
//! queue.complete();
//! assert!(queue.is_finished());
//! assert!(queue.pop().is_none());
//! ```

use crate::json::Json;
use crate::shard::Shard;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How a sweep grid is carved into leases: the `exec.hosts.chunk` plan
/// field (`"chunk": N` or `"chunk": "auto"` in a hosts pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkPolicy {
    /// `specs / (4 × hosts)`, clamped to at least 1 spec — roughly four
    /// leases per host, enough pull granularity to absorb stragglers
    /// without drowning small grids in per-connection overhead.
    #[default]
    Auto,
    /// Exactly this many specs per lease (the last lease takes the
    /// remainder). Must be ≥ 1.
    Fixed(usize),
}

impl ChunkPolicy {
    /// The concrete chunk size for a grid of `n_specs` over `n_hosts`.
    /// Always ≥ 1, so a lease is never empty.
    #[must_use]
    pub fn resolve(&self, n_specs: usize, n_hosts: usize) -> usize {
        match *self {
            Self::Auto => (n_specs / (4 * n_hosts.max(1))).max(1),
            Self::Fixed(chunk) => chunk.max(1),
        }
    }

    /// Validates the policy; the message is bare for the caller to prefix
    /// with its own field path (`exec.hosts.chunk`).
    ///
    /// # Errors
    ///
    /// A plain message when a fixed chunk is zero.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            Self::Fixed(0) => Err("chunk must be at least 1 spec per lease".to_owned()),
            _ => Ok(()),
        }
    }

    /// Decodes the `"chunk"` value of a hosts pool: a positive integer or
    /// the string `"auto"`.
    ///
    /// # Errors
    ///
    /// A plain message naming the expected forms.
    pub(crate) fn from_json(json: &Json) -> Result<Self, String> {
        if json.as_str() == Some("auto") {
            return Ok(Self::Auto);
        }
        let policy = json
            .as_i64()
            .filter(|&v| v > 0)
            .and_then(|v| usize::try_from(v).ok())
            .map(Self::Fixed)
            .ok_or_else(|| "expected a positive integer or \"auto\"".to_owned())?;
        policy.validate()?;
        Ok(policy)
    }

    /// Renders the policy to its JSON value form.
    #[must_use]
    pub(crate) fn to_json(self) -> Json {
        match self {
            Self::Auto => "auto".into(),
            Self::Fixed(chunk) => chunk.into(),
        }
    }
}

/// One grant of contiguous work, as handed out by [`LeaseQueue::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The spec range to run.
    pub shard: Shard,
    /// `Some(host_index)` when this lease is the re-queued remainder of a
    /// lease that host failed; `None` for first-issue leases. A host
    /// completing a lease re-issued from a *different* host counts as a
    /// steal.
    pub reissued_from: Option<usize>,
}

/// Interior state guarded by the queue's mutex.
struct QueueState {
    pending: VecDeque<Lease>,
    /// Leases popped but neither completed nor re-queued yet. While this
    /// is non-zero an idle host must block in [`LeaseQueue::pop`] rather
    /// than give up: the holder may die and re-queue stealable work.
    outstanding: usize,
}

/// The coordinator's shared work queue: grid leases out, completions and
/// re-queued remainders back in. All methods are safe to call from any
/// host thread concurrently.
///
/// Every lease popped must be balanced by exactly one [`LeaseQueue::complete`]
/// or [`LeaseQueue::requeue`] before the holding thread exits — that
/// invariant is what lets a blocked `pop` distinguish "the grid is done"
/// from "someone still holds work I might inherit".
pub struct LeaseQueue {
    inner: Mutex<QueueState>,
    available: Condvar,
    initial: usize,
}

impl LeaseQueue {
    /// How long a blocked `pop` sleeps between re-checks, bounding the
    /// cost of a missed wakeup without busy-waiting.
    const POP_POLL: Duration = Duration::from_millis(50);

    /// Carves `range` into leases of `chunk` specs each (the last lease
    /// takes the remainder; `chunk` is clamped to ≥ 1). An empty range
    /// yields a queue that is already finished.
    #[must_use]
    pub fn new(range: Shard, chunk: usize) -> Self {
        let chunk = chunk.max(1);
        let mut pending = VecDeque::new();
        let mut start = range.start;
        while start < range.end {
            let end = range.end.min(start + chunk);
            pending.push_back(Lease {
                shard: Shard::new(start, end),
                reissued_from: None,
            });
            start = end;
        }
        let initial = pending.len();
        Self {
            inner: Mutex::new(QueueState {
                pending,
                outstanding: 0,
            }),
            available: Condvar::new(),
            initial,
        }
    }

    /// How many leases the grid was carved into at construction (re-issues
    /// not included) — the `leases` figure in the run stats.
    #[must_use]
    pub fn initial_leases(&self) -> usize {
        self.initial
    }

    /// Pulls the next lease. Blocks while the queue is empty but another
    /// host still holds an outstanding lease (its remainder may yet be
    /// re-queued for stealing); returns `None` only when the queue is
    /// empty *and* nothing is outstanding — the grid is done, or stranded
    /// with no holder left to finish it.
    #[must_use]
    pub fn pop(&self) -> Option<Lease> {
        let mut state = self.inner.lock().expect("lease queue poisoned");
        loop {
            if let Some(lease) = state.pending.pop_front() {
                state.outstanding += 1;
                return Some(lease);
            }
            if state.outstanding == 0 {
                return None;
            }
            let (guard, _) = self
                .available
                .wait_timeout(state, Self::POP_POLL)
                .expect("lease queue poisoned");
            state = guard;
        }
    }

    /// Marks the caller's outstanding lease fully merged.
    pub fn complete(&self) {
        let mut state = self.inner.lock().expect("lease queue poisoned");
        state.outstanding = state.outstanding.saturating_sub(1);
        if state.outstanding == 0 {
            // Whether pending work or a finished grid, blocked poppers
            // must wake to claim it or observe the end.
            self.available.notify_all();
        }
    }

    /// Returns the unreported remainder of a failed lease to the *front*
    /// of the queue (the oldest stranded range re-issues first) and wakes
    /// blocked poppers to steal it. `from_host` attributes the re-issue
    /// for the steal tally.
    pub fn requeue(&self, remainder: Shard, from_host: usize) {
        let mut state = self.inner.lock().expect("lease queue poisoned");
        state.outstanding = state.outstanding.saturating_sub(1);
        if !remainder.is_empty() {
            state.pending.push_front(Lease {
                shard: remainder,
                reissued_from: Some(from_host),
            });
        }
        self.available.notify_all();
    }

    /// True once every lease has been pulled and completed: no pending
    /// work, nothing outstanding.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        let state = self.inner.lock().expect("lease queue poisoned");
        state.pending.is_empty() && state.outstanding == 0
    }

    /// Specs still sitting in the queue (outstanding leases not counted) —
    /// the stranded-work figure when every host has exited.
    #[must_use]
    pub(crate) fn remaining_specs(&self) -> usize {
        let state = self.inner.lock().expect("lease queue poisoned");
        state.pending.iter().map(|l| l.shard.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_larger_than_the_grid_yields_one_full_lease() {
        // `exec.hosts.chunk` may legitimately exceed the spec count (tiny
        // smoke grid, generous chunk): the whole range becomes one lease.
        let queue = LeaseQueue::new(Shard::new(0, 3), 10);
        assert_eq!(queue.initial_leases(), 1);
        let lease = queue.pop().expect("the single lease");
        assert_eq!((lease.shard.start, lease.shard.end), (0, 3));
        assert_eq!(lease.reissued_from, None);
        queue.complete();
        assert!(queue.is_finished());
        assert!(queue.pop().is_none());
    }

    #[test]
    fn auto_policy_never_resolves_to_an_empty_chunk() {
        // Fewer specs than 4x hosts would truncate to zero; the clamp keeps
        // every lease at least one spec wide.
        assert_eq!(ChunkPolicy::Auto.resolve(3, 8), 1);
        assert_eq!(ChunkPolicy::Auto.resolve(0, 2), 1);
        assert_eq!(ChunkPolicy::Fixed(0).resolve(100, 2), 1);
        // And a zero-host fleet must not divide by zero.
        assert_eq!(ChunkPolicy::Auto.resolve(24, 0), 6);
    }

    #[test]
    fn single_host_fleet_drains_every_lease_in_grid_order() {
        // One host, auto chunking: 8 specs / (4x1 hosts) = chunks of 2. The
        // lone host pulls leases back-to-back and sees the grid in order —
        // no steals, no blocking, `pop` returns `None` exactly at the end.
        let chunk = ChunkPolicy::Auto.resolve(8, 1);
        assert_eq!(chunk, 2);
        let queue = LeaseQueue::new(Shard::new(0, 8), chunk);
        assert_eq!(queue.initial_leases(), 4);
        let mut covered = Vec::new();
        while let Some(lease) = queue.pop() {
            assert_eq!(lease.reissued_from, None, "nothing to steal from");
            covered.extend(lease.shard.start..lease.shard.end);
            queue.complete();
        }
        assert_eq!(covered, (0..8).collect::<Vec<_>>());
        assert!(queue.is_finished());
        assert_eq!(queue.remaining_specs(), 0);
    }

    #[test]
    fn every_host_quarantined_then_readmitted_finishes_the_grid() {
        // Both hosts of a 2-host fleet fail mid-lease (the coordinator
        // quarantines them and re-queues their unreported remainders); after
        // re-admission they pull the stranded ranges back and finish. The
        // queue must attribute each re-issue to the host that dropped it and
        // end with zero stranded specs.
        let queue = LeaseQueue::new(Shard::new(0, 8), 4);
        assert_eq!(queue.initial_leases(), 2);

        // First connections: host 0 takes [0,4), host 1 takes [4,8).
        let first = queue.pop().expect("lease for host 0");
        let second = queue.pop().expect("lease for host 1");
        assert_eq!((first.shard.start, first.shard.end), (0, 4));
        assert_eq!((second.shard.start, second.shard.end), (4, 8));

        // Host 0 dies after reporting 1 spec, host 1 after 2 — the whole
        // fleet is now quarantined with both remainders queued for re-issue
        // (most recent failure at the front).
        queue.requeue(Shard::new(1, 4), 0);
        queue.requeue(Shard::new(6, 8), 1);
        assert!(!queue.is_finished());
        assert_eq!(queue.remaining_specs(), 5);

        // Re-admission: the recovered hosts pull the stranded work back.
        // Each re-issued lease names the host whose failure stranded it.
        let retry_a = queue.pop().expect("re-issued remainder");
        let retry_b = queue.pop().expect("re-issued remainder");
        assert_eq!((retry_a.shard.start, retry_a.shard.end), (6, 8));
        assert_eq!(retry_a.reissued_from, Some(1));
        assert_eq!((retry_b.shard.start, retry_b.shard.end), (1, 4));
        assert_eq!(retry_b.reissued_from, Some(0));
        queue.complete();
        queue.complete();
        assert!(queue.is_finished());
        assert_eq!(queue.remaining_specs(), 0);
        assert!(queue.pop().is_none());
    }

    #[test]
    fn blocked_pop_inherits_work_requeued_by_a_dying_holder() {
        // The empty-queue-but-outstanding case: an idle popper must block —
        // not give up — while another host still holds a lease, because
        // that holder may die and strand stealable work.
        let queue = std::sync::Arc::new(LeaseQueue::new(Shard::new(0, 4), 4));
        let holder = queue.pop().expect("the single lease");
        assert_eq!((holder.shard.start, holder.shard.end), (0, 4));

        let stealer = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        // Give the stealer time to reach the blocking wait, then fail the
        // outstanding lease with half the range unreported.
        std::thread::sleep(Duration::from_millis(20));
        queue.requeue(Shard::new(2, 4), 0);

        let stolen = stealer
            .join()
            .expect("stealer thread")
            .expect("re-queued remainder must wake the blocked pop");
        assert_eq!((stolen.shard.start, stolen.shard.end), (2, 4));
        assert_eq!(stolen.reissued_from, Some(0));
        queue.complete();
        assert!(queue.is_finished());
    }
}
