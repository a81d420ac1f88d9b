//! Timing model of a fully pipelined AES-GCM engine.
//!
//! The paper assumes each processor's security hardware is a *fully
//! pipelined* AES-GCM unit with a fixed latency (Table III: 40 cycles).
//! Pipelining means a new pad generation can be issued every cycle, but any
//! individual pad takes the full latency to emerge. This module tracks
//! issue-port contention and completion times so the simulation can decide,
//! for each message, whether its pad is ready (`Hit`), in flight
//! (`Partial`), or not yet requested (`Miss`) — the classification of the
//! paper's Figs. 10 and 22.

use mgpu_types::{Cycle, Duration};

/// How much of the AES latency was hidden for one message
/// (paper Figs. 10/22: `OTP_Hit` / `OTP_Partial` / `OTP_Miss`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PadTiming {
    /// Pad was ready before the data arrived: only the 1-cycle XOR (and
    /// GHASH) remains on the critical path.
    Hit,
    /// Pad generation had been issued but was still in the pipeline; part of
    /// the latency is exposed.
    Partial {
        /// Cycles the message had to wait for the pad to finish.
        remaining: Duration,
    },
    /// No pad had been issued; the full AES latency is exposed.
    Miss,
}

impl PadTiming {
    /// The latency this classification adds to the message's critical path.
    /// A hit still costs one cycle for the XOR.
    #[must_use]
    pub fn exposed_latency(self, full: Duration) -> Duration {
        match self {
            PadTiming::Hit => Duration::cycles(1),
            PadTiming::Partial { remaining } => remaining + Duration::cycles(1),
            PadTiming::Miss => full + Duration::cycles(1),
        }
    }

    /// Whether any of the AES latency was hidden (hit or partial).
    #[must_use]
    pub fn latency_hidden(self) -> bool {
        !matches!(self, PadTiming::Miss)
    }
}

/// A pipelined pad-generation engine.
///
/// # Examples
///
/// ```
/// use mgpu_crypto::engine::AesEngine;
/// use mgpu_types::{Cycle, Duration};
///
/// let mut engine = AesEngine::new(Duration::cycles(40));
/// // Issue a pad at t=0; it is ready at t=40.
/// let ready = engine.issue(Cycle::ZERO);
/// assert_eq!(ready, Cycle::new(40));
/// // A second issue in the same cycle is delayed one cycle by the
/// // single issue port.
/// let ready2 = engine.issue(Cycle::ZERO);
/// assert_eq!(ready2, Cycle::new(41));
/// ```
#[derive(Debug, Clone)]
pub struct AesEngine {
    latency: Duration,
    /// Next cycle at which the issue port is free.
    next_issue: Cycle,
    /// Statistics: total pads issued.
    issued: u64,
}

impl AesEngine {
    /// Creates an engine with the given pipeline latency.
    #[must_use]
    pub fn new(latency: Duration) -> Self {
        AesEngine {
            latency,
            next_issue: Cycle::ZERO,
            issued: 0,
        }
    }

    /// The configured pipeline latency.
    #[must_use]
    #[inline]
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Issues one pad generation at time `now` (or as soon after as the
    /// issue port allows) and returns the cycle at which the pad is ready.
    #[inline]
    pub fn issue(&mut self, now: Cycle) -> Cycle {
        let start = now.max(self.next_issue);
        self.next_issue = start + Duration::cycles(1);
        self.issued += 1;
        start + self.latency
    }

    /// Classifies a message that needs a pad which was issued to be ready at
    /// `ready_at` (or `None` if never issued), given the data is available
    /// at `now`.
    #[must_use]
    pub fn classify(&self, now: Cycle, ready_at: Option<Cycle>) -> PadTiming {
        match ready_at {
            Some(t) if t <= now => PadTiming::Hit,
            Some(t) => PadTiming::Partial { remaining: t - now },
            None => PadTiming::Miss,
        }
    }

    /// Total pads issued so far (statistic).
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_issue_latency() {
        let mut e = AesEngine::new(Duration::cycles(40));
        assert_eq!(e.issue(Cycle::new(100)), Cycle::new(140));
        assert_eq!(e.issued(), 1);
    }

    #[test]
    fn issue_port_serializes_same_cycle_issues() {
        let mut e = AesEngine::new(Duration::cycles(40));
        let t0 = e.issue(Cycle::ZERO);
        let t1 = e.issue(Cycle::ZERO);
        let t2 = e.issue(Cycle::ZERO);
        assert_eq!(t0, Cycle::new(40));
        assert_eq!(t1, Cycle::new(41));
        assert_eq!(t2, Cycle::new(42));
    }

    #[test]
    fn pipeline_is_fully_pipelined_not_blocking() {
        // Issues spaced >= 1 cycle apart never wait.
        let mut e = AesEngine::new(Duration::cycles(40));
        assert_eq!(e.issue(Cycle::new(0)), Cycle::new(40));
        assert_eq!(e.issue(Cycle::new(1)), Cycle::new(41));
        assert_eq!(e.issue(Cycle::new(500)), Cycle::new(540));
    }

    #[test]
    fn classification() {
        let e = AesEngine::new(Duration::cycles(40));
        let now = Cycle::new(100);
        assert_eq!(e.classify(now, Some(Cycle::new(90))), PadTiming::Hit);
        assert_eq!(e.classify(now, Some(Cycle::new(100))), PadTiming::Hit);
        assert_eq!(
            e.classify(now, Some(Cycle::new(115))),
            PadTiming::Partial {
                remaining: Duration::cycles(15)
            }
        );
        assert_eq!(e.classify(now, None), PadTiming::Miss);
    }

    #[test]
    fn exposed_latency_ordering() {
        let full = Duration::cycles(40);
        let hit = PadTiming::Hit.exposed_latency(full);
        let partial = PadTiming::Partial {
            remaining: Duration::cycles(10),
        }
        .exposed_latency(full);
        let miss = PadTiming::Miss.exposed_latency(full);
        assert!(hit < partial && partial < miss);
        assert_eq!(hit, Duration::cycles(1));
        assert_eq!(miss, Duration::cycles(41));
        assert!(PadTiming::Hit.latency_hidden());
        assert!(!PadTiming::Miss.latency_hidden());
    }
}
