//! Deterministic fault injection for the multi-host transport.
//!
//! The fleet's recovery paths — retry with backoff, quarantine, lease
//! re-issue — are only trustworthy if they are *exercised*, and only
//! debuggable if every exercised failure is **reproducible**. A
//! [`FaultPlan`] is a small, parseable description of which faults a daemon
//! injects and when, as a pure function of the plan and a connection
//! counter. No randomness leaks
//! in at injection time; the `seed` field only keys the garble keystream,
//! so two runs with the same fault plan misbehave byte-for-byte alike.
//!
//! The four fault shapes map one-to-one onto the coordinator's fault
//! taxonomy (see `ARCHITECTURE.md`):
//!
//! | grammar        | behaviour                                         | coordinator sees        |
//! |----------------|---------------------------------------------------|-------------------------|
//! | `refuse=N`     | accept + immediately close the first N connects   | transient (EOF)         |
//! | `drop-after=K` | drop the connection after K reports, no `done`    | transient (EOF)         |
//! | `stall-ms=T`   | sleep T ms before emitting report 0               | transient (timeout)     |
//! | `garble=K`     | corrupt report frame K into guaranteed non-UTF-8  | **fatal** (frame error) |
//!
//! A plan is spelled as comma-separated `key=value` pairs, e.g.
//! `refuse=2,drop-after=5,seed=7`.
//!
//! # Example
//!
//! ```
//! use seo_core::fault::{FaultAction, FaultPlan};
//!
//! let plan: FaultPlan = "refuse=2,drop-after=1,seed=9".parse()?;
//! assert!(plan.refuses_connection(0) && plan.refuses_connection(1));
//! assert!(!plan.refuses_connection(2));
//! let mut inj = plan.injector(2);
//! assert_eq!(inj.before_report(), FaultAction::Continue);
//! inj.after_report();
//! assert_eq!(inj.before_report(), FaultAction::Drop); // drop-after=1
//! # Ok::<(), seo_core::transport::TransportError>(())
//! ```

use crate::transport::TransportError;
use std::fmt;
use std::str::FromStr;

fn parse_err(message: impl Into<String>) -> TransportError {
    TransportError::Config {
        message: format!("fault plan: {}", message.into()),
    }
}

/// SplitMix64 — the tiny, well-mixed generator seeding the garble
/// keystream. Self-contained so the fault layer stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic description of the faults a daemon (or an in-process
/// test server) injects. Every field is a count or duration keyed off
/// connection and report counters, so the same plan against the same
/// traffic misbehaves identically every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Accept and immediately close the first N connections (counted from
    /// daemon start). The coordinator sees an EOF before any frame — a
    /// transient fault it retries.
    pub refuse_connects: u64,
    /// Drop each serving connection after emitting K reports, without a
    /// `done` frame — the classic mid-stream host death.
    pub drop_after: Option<usize>,
    /// Stall for this many milliseconds before emitting each serving
    /// connection's first report (report 0), tripping the coordinator's
    /// read timeout when larger than it.
    pub stall_ms: Option<u64>,
    /// Garble report frame K (0-based, per connection) into a payload that
    /// is guaranteed invalid UTF-8 — a protocol violation the coordinator
    /// must classify as fatal, not retry.
    pub garble_at: Option<usize>,
    /// Keys the garble keystream; has no effect on *when* faults fire.
    pub seed: u64,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        *self == Self::default()
            || *self
                == Self {
                    seed: self.seed,
                    ..Self::default()
                }
    }

    /// Whether connection number `conn_index` (0-based, counted from
    /// daemon start) should be accepted and immediately closed.
    #[must_use]
    pub fn refuses_connection(&self, conn_index: u64) -> bool {
        conn_index < self.refuse_connects
    }

    /// A fresh per-connection injection state machine. `conn_index` keys
    /// the garble keystream so distinct connections garble distinctly but
    /// reproducibly.
    #[must_use]
    pub fn injector(&self, conn_index: u64) -> FaultInjector<'_> {
        FaultInjector {
            plan: Some(self),
            conn_index,
            emitted: 0,
            injected: 0,
        }
    }
}

impl FromStr for FaultPlan {
    type Err = TransportError;

    /// Parses the `key=value[,key=value…]` grammar. Unknown keys and
    /// duplicate keys are rejected by name.
    fn from_str(text: &str) -> Result<Self, TransportError> {
        let mut plan = Self::default();
        let mut seen: Vec<&str> = Vec::new();
        for pair in text.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                return Err(parse_err("empty clause (trailing or doubled comma?)"));
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| parse_err(format!("'{pair}': expected key=value")))?;
            let (key, value) = (key.trim(), value.trim());
            if seen.contains(&key) {
                return Err(parse_err(format!("duplicate key '{key}'")));
            }
            let number = |what: &str| {
                value
                    .parse::<u64>()
                    .map_err(|e| parse_err(format!("{what}={value}: {e}")))
            };
            match key {
                "refuse" => plan.refuse_connects = number("refuse")?,
                "drop-after" => plan.drop_after = Some(number("drop-after")? as usize),
                "stall-ms" => plan.stall_ms = Some(number("stall-ms")?),
                "garble" => plan.garble_at = Some(number("garble")? as usize),
                "seed" => plan.seed = number("seed")?,
                other => {
                    return Err(parse_err(format!(
                        "unknown key '{other}' (valid: refuse, drop-after, stall-ms, \
                         garble, seed)"
                    )))
                }
            }
            seen.push(key);
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the plan back to its grammar, in canonical key order
    /// (round-trips through [`FromStr`]). A no-op plan renders as `seed=S`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut clauses: Vec<String> = Vec::new();
        if self.refuse_connects > 0 {
            clauses.push(format!("refuse={}", self.refuse_connects));
        }
        if let Some(k) = self.drop_after {
            clauses.push(format!("drop-after={k}"));
        }
        if let Some(t) = self.stall_ms {
            clauses.push(format!("stall-ms={t}"));
        }
        if let Some(k) = self.garble_at {
            clauses.push(format!("garble={k}"));
        }
        clauses.push(format!("seed={}", self.seed));
        write!(f, "{}", clauses.join(","))
    }
}

/// What [`FaultInjector::before_report`] tells the episode loop to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Emit the report normally (a configured stall, if any, has already
    /// been slept through).
    Continue,
    /// Drop the connection now, without a `done` frame.
    Drop,
}

/// Per-connection fault state machine. Built by [`FaultPlan::injector`]
/// (or [`FaultInjector::none`] for fault-free serving) and threaded
/// through the episode loop: `before_report` → (emit, possibly garbled via
/// `garble`) → `after_report`.
#[derive(Debug)]
pub struct FaultInjector<'a> {
    plan: Option<&'a FaultPlan>,
    conn_index: u64,
    emitted: usize,
    injected: u64,
}

impl FaultInjector<'_> {
    /// An injector that never fires — the fault-free serving path.
    #[must_use]
    pub fn none() -> Self {
        FaultInjector {
            plan: None,
            conn_index: 0,
            emitted: 0,
            injected: 0,
        }
    }

    /// Called before each report is emitted (its episode has already run).
    /// Sleeps through a configured stall before report 0, then decides
    /// whether the connection dies here.
    pub fn before_report(&mut self) -> FaultAction {
        let Some(plan) = self.plan else {
            return FaultAction::Continue;
        };
        if let Some(ms) = plan.stall_ms.filter(|_| self.emitted == 0) {
            self.injected += 1;
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if plan.drop_after == Some(self.emitted) {
            self.injected += 1;
            return FaultAction::Drop;
        }
        FaultAction::Continue
    }

    /// Transforms an outgoing report payload: when this report is the
    /// configured garble target, the payload is replaced by a corrupted
    /// one that is **guaranteed** invalid UTF-8 (it starts with `0xFF`),
    /// so the coordinator's frame parser must reject it — a deterministic
    /// protocol violation. Other reports pass through untouched.
    #[must_use]
    pub fn garble(&mut self, payload: Vec<u8>) -> Vec<u8> {
        let Some(plan) = self.plan else {
            return payload;
        };
        if plan.garble_at != Some(self.emitted) {
            return payload;
        }
        self.injected += 1;
        // 0xFF is never valid in UTF-8, so the corruption cannot be
        // mistaken for a well-formed frame; the rest of the payload is
        // XOR-scrambled with a seed-keyed splitmix64 stream so the bytes
        // are reproducible garbage, not a recognizable report.
        let mut state = plan.seed ^ self.conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut out = Vec::with_capacity(payload.len() + 2);
        out.extend_from_slice(&[0xFF, 0xFE]);
        for chunk in payload.chunks(8) {
            let word = splitmix64(&mut state).to_le_bytes();
            out.extend(chunk.iter().zip(word.iter()).map(|(b, k)| b ^ k));
        }
        out
    }

    /// Called after each report is emitted.
    pub fn after_report(&mut self) {
        self.emitted += 1;
    }

    /// How many faults this connection has injected so far (stalls, drops,
    /// garbles — refusals are counted by the accept loop, not here).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        for text in [
            "refuse=2,drop-after=5,stall-ms=100,garble=3,seed=9",
            "drop-after=0,seed=0",
            "seed=42",
        ] {
            let plan: FaultPlan = text.parse().expect(text);
            let rendered = plan.to_string();
            let reparsed: FaultPlan = rendered.parse().expect(&rendered);
            assert_eq!(plan, reparsed, "{text} → {rendered}");
        }
    }

    #[test]
    fn grammar_rejects_bad_input() {
        for text in [
            "bogus=1",
            "refuse",
            "refuse=x",
            "refuse=1,refuse=2",
            "refuse=1,,seed=2",
            "",
        ] {
            assert!(text.parse::<FaultPlan>().is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn refusals_count_connections() {
        let plan: FaultPlan = "refuse=2".parse().unwrap();
        assert!(plan.refuses_connection(0));
        assert!(plan.refuses_connection(1));
        assert!(!plan.refuses_connection(2));
        assert!(!FaultPlan::default().refuses_connection(0));
    }

    #[test]
    fn drop_fires_at_exact_report() {
        let plan: FaultPlan = "drop-after=2".parse().unwrap();
        let mut inj = plan.injector(0);
        assert_eq!(inj.before_report(), FaultAction::Continue);
        inj.after_report();
        assert_eq!(inj.before_report(), FaultAction::Continue);
        inj.after_report();
        assert_eq!(inj.before_report(), FaultAction::Drop);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn garble_is_deterministic_and_invalid_utf8() {
        let plan: FaultPlan = "garble=1,seed=7".parse().unwrap();
        let payload = b"{\"i\":4,\"ok\":true}".to_vec();
        let mut a = plan.injector(3);
        let mut b = plan.injector(3);
        // Report 0 passes through untouched.
        assert_eq!(a.garble(payload.clone()), payload);
        a.after_report();
        let _ = b.garble(payload.clone());
        b.after_report();
        let ga = a.garble(payload.clone());
        let gb = b.garble(payload.clone());
        assert_eq!(ga, gb, "same plan + connection must garble identically");
        assert_ne!(ga, payload);
        assert!(std::str::from_utf8(&ga).is_err(), "garble must break UTF-8");
        // A different connection garbles differently (but still invalidly).
        let mut c = plan.injector(4);
        let _ = c.garble(payload.clone());
        c.after_report();
        let gc = c.garble(payload);
        assert_ne!(ga, gc);
        assert!(std::str::from_utf8(&gc).is_err());
    }

    #[test]
    fn noop_detection() {
        assert!(FaultPlan::default().is_noop());
        assert!("seed=5".parse::<FaultPlan>().unwrap().is_noop());
        assert!(!"drop-after=0".parse::<FaultPlan>().unwrap().is_noop());
    }
}
