//! System-level flow control: typed backpressure, the credit window and
//! wakeup dedup shared by the pacing, NIC, and engine layers.
//!
//! Every "is this resource ready?" question the engine asks answers with
//! either a grant or a **typed reject** ([`Reject`]) that says exactly
//! when or on what signal to come back — never a bare `false` the caller
//! must re-poll. (Fabric ports never reject: a
//! [`mgpu_sim::timeq::TimedServer`] only serializes.)
//!
//! * [`CreditGate`] — one node's signed credit window with a FIFO park
//!   queue (the replay-protection ACK window each
//!   [`crate::node::SecureNic`] owns, where batch trailers may
//!   transiently overdraw and blocked senders park prepared blocks until
//!   a credit returns).
//! * [`WakeupLadder`] — the gap-wakeup dedup (DESIGN.md §10): at most
//!   one timer wakeup armed per node, none lost.

use mgpu_types::{Cycle, DenseNodeMap, NodeId};
use std::collections::VecDeque;

/// Typed backpressure: why a request was not granted, and what wakes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The resource frees (or the request becomes eligible) at this
    /// cycle: schedule exactly one retry then.
    NotBefore(Cycle),
    /// Out of credits with no self-known free time: a credit release
    /// (completion/ACK) re-offers service — park, do not poll.
    AwaitCredit,
    /// Nothing left to serve: no retry will ever succeed.
    Drained,
}

/// A signed credit window with a FIFO park queue: one node's replay
/// (ACK) table.
///
/// Privileged callers may transiently overdraw (replay-table trailer
/// reservations), and a denied caller parks its work item `D` until a
/// credit returns. Each release unparks the longest-waiting item.
#[derive(Debug)]
pub struct CreditGate<D> {
    free: i64,
    grants: u64,
    parked: VecDeque<D>,
}

impl<D> CreditGate<D> {
    /// A window of `capacity` credits.
    #[must_use]
    pub fn new(capacity: i64) -> Self {
        CreditGate {
            free: capacity,
            grants: 0,
            parked: VecDeque::new(),
        }
    }

    /// Takes one credit; [`Reject::AwaitCredit`] when the window is
    /// exhausted (a [`CreditGate::release`] re-offers — park the work
    /// item, do not poll).
    pub fn admit(&mut self) -> Result<(), Reject> {
        if self.free <= 0 {
            return Err(Reject::AwaitCredit);
        }
        self.free -= 1;
        self.grants += 1;
        Ok(())
    }

    /// Takes one credit unconditionally, allowing the balance to go
    /// negative (privileged callers only — batch trailer flushes are
    /// never parked).
    pub fn overdraw(&mut self) {
        self.free -= 1;
        self.grants += 1;
    }

    /// Parks `item` until a credit returns.
    pub fn park(&mut self, item: D) {
        self.parked.push_back(item);
    }

    /// Returns one credit and unparks the longest-waiting work item, if
    /// any.
    pub fn release(&mut self) -> Option<D> {
        self.free += 1;
        self.parked.pop_front()
    }

    /// Free credits (negative while overdrawn).
    #[must_use]
    pub fn free(&self) -> i64 {
        self.free
    }

    /// Credits granted so far (admissions plus overdraws).
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Work items parked, waiting for a credit.
    #[must_use]
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }
}

/// The PR 5 gap-wakeup dedup, extracted from the engines: per node, at
/// most one timer wakeup is armed at any moment, and the armed time
/// never exceeds the node's live ready cycle — so no wakeup is lost and
/// the duplicate-poll population cannot grow (see DESIGN.md §10).
#[derive(Debug)]
pub struct WakeupLadder {
    armed: DenseNodeMap<Option<Cycle>>,
}

impl WakeupLadder {
    /// A ladder with every node in `nodes` unarmed.
    #[must_use]
    pub fn new(nodes: impl Iterator<Item = NodeId>) -> Self {
        WakeupLadder {
            armed: nodes.map(|n| (n, None)).collect(),
        }
    }

    /// Notes that a wakeup for `node` fired at `now`: if it was the
    /// armed one, the node becomes re-armable. (A wakeup scheduled
    /// before arming — e.g. the initial kick or a completion poll — does
    /// not match and leaves the armed timer in place.)
    pub fn fired(&mut self, node: NodeId, now: Cycle) {
        if self.armed[node] == Some(now) {
            self.armed.insert(node, None);
        }
    }

    /// Requests a wakeup for `node` at `at`. `true` means the caller
    /// must schedule it (the ladder armed it); `false` means an earlier-
    /// or-equal wakeup is already armed and scheduling another would
    /// recreate the duplicate-poll storm.
    pub fn arm(&mut self, node: NodeId, at: Cycle) -> bool {
        if self.armed[node].is_none() {
            self.armed.insert(node, Some(at));
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes() -> impl Iterator<Item = NodeId> {
        [NodeId::gpu(1), NodeId::gpu(2)].into_iter()
    }

    #[test]
    fn gate_unparks_in_fifo_order() {
        let mut gate: CreditGate<&str> = CreditGate::new(2);
        assert!(gate.admit().is_ok());
        assert!(gate.admit().is_ok());
        assert_eq!(
            gate.admit(),
            Err(Reject::AwaitCredit),
            "window of 2 is full"
        );
        gate.park("first-parked");
        gate.park("second-parked");
        assert_eq!(gate.parked_len(), 2);
        // Each release unparks the oldest item, which then takes the
        // returned credit.
        assert_eq!(gate.release(), Some("first-parked"));
        assert!(gate.admit().is_ok());
        assert_eq!(gate.release(), Some("second-parked"));
        assert!(gate.admit().is_ok());
        assert_eq!(gate.parked_len(), 0);
        assert_eq!(gate.release(), None);
        assert_eq!(gate.release(), None);
        assert_eq!(gate.free(), 2, "every credit came home");
        // The rejected admission took nothing.
        assert_eq!(gate.grants(), 4);
    }

    #[test]
    fn gate_overdraw_goes_negative_and_must_repay() {
        let mut gate: CreditGate<u32> = CreditGate::new(2);
        gate.admit().unwrap();
        gate.admit().unwrap();
        // A batch-closing trailer takes a credit even when the window is
        // full...
        gate.overdraw();
        assert_eq!(gate.free(), -1);
        assert_eq!(gate.admit(), Err(Reject::AwaitCredit));
        // ...so the overdraft is repaid before a new block fits.
        assert!(gate.release().is_none());
        assert_eq!(gate.admit(), Err(Reject::AwaitCredit), "still at zero");
        gate.release();
        assert!(gate.admit().is_ok());
        assert_eq!(gate.grants(), 4);
    }

    #[test]
    fn ladder_arms_once_until_fired() {
        let g1 = NodeId::gpu(1);
        let mut ladder = WakeupLadder::new(nodes());
        assert!(ladder.arm(g1, Cycle::new(10)), "first arm schedules");
        assert!(!ladder.arm(g1, Cycle::new(10)), "duplicate suppressed");
        assert!(!ladder.arm(g1, Cycle::new(25)), "later wakeup suppressed");
        // A stray poll at a non-armed time does not disarm.
        ladder.fired(g1, Cycle::new(5));
        assert!(!ladder.arm(g1, Cycle::new(10)));
        // The armed wakeup firing re-arms the node.
        ladder.fired(g1, Cycle::new(10));
        assert!(ladder.arm(g1, Cycle::new(25)));
    }
}
