//! System-level flow control: typed backpressure, credit gates, and
//! wakeup dedup shared by the pacing, NIC, and engine layers.
//!
//! Every "is this resource ready?" question the engine asks answers with
//! either a grant or a **typed reject** ([`Reject`]) that says exactly
//! when or on what signal to come back — never a bare `false` the caller
//! must re-poll. (Fabric ports never reject: a
//! [`mgpu_sim::timeq::TimedServer`] only serializes.)
//!
//! * [`CreditPool`] — unsigned per-node slot credits (issue slots: a
//!   GPU's memory-level parallelism).
//! * [`CreditGate`] — signed per-node credits with a FIFO park queue
//!   (replay-protection ACK windows, where batch trailers may transiently
//!   overdraw and blocked senders park prepared blocks until a credit
//!   returns).
//! * [`WakeupLadder`] — the PR 5 gap-wakeup dedup, extracted: at most
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

/// Unsigned per-node slot credits (e.g. issue slots). Taking a credit
/// either succeeds or answers [`Reject::AwaitCredit`]; returning one is
/// infallible.
#[derive(Debug)]
pub struct CreditPool {
    free: DenseNodeMap<u32>,
    grants: DenseNodeMap<u64>,
}

impl CreditPool {
    /// A pool giving each node in `nodes` `capacity` credits.
    #[must_use]
    pub fn new(nodes: impl Iterator<Item = NodeId>, capacity: u32) -> Self {
        let free: DenseNodeMap<u32> = nodes.map(|n| (n, capacity)).collect();
        let grants = free.keys().map(|n| (n, 0)).collect();
        CreditPool { free, grants }
    }

    /// Takes one credit from `node`; [`Reject::AwaitCredit`] when none
    /// are free (a [`CreditPool::put`] will re-offer).
    pub fn take(&mut self, node: NodeId) -> Result<(), Reject> {
        let free = self.free.get_mut(node).expect("node in pool");
        if *free == 0 {
            return Err(Reject::AwaitCredit);
        }
        *free -= 1;
        *self.grants.get_mut(node).expect("node in pool") += 1;
        Ok(())
    }

    /// Returns one credit to `node`.
    pub fn put(&mut self, node: NodeId) {
        *self.free.get_mut(node).expect("node in pool") += 1;
    }

    /// Free credits at `node`.
    #[must_use]
    pub fn free(&self, node: NodeId) -> u32 {
        self.free.get(node).copied().unwrap_or(0)
    }

    /// Credits granted to `node` so far.
    #[must_use]
    pub fn grants(&self, node: NodeId) -> u64 {
        self.grants.get(node).copied().unwrap_or(0)
    }
}

/// Signed per-node credits with a FIFO park queue.
///
/// Models windows where privileged callers may transiently overdraw
/// (replay-table trailer reservations) and where a denied caller parks
/// its work item `D` until a credit returns. Each release unparks the
/// longest-waiting item.
#[derive(Debug)]
pub struct CreditGate<D> {
    free: DenseNodeMap<i64>,
    parked: DenseNodeMap<VecDeque<D>>,
    grants: DenseNodeMap<u64>,
}

impl<D> CreditGate<D> {
    /// A gate giving each node in `nodes` `capacity` credits.
    #[must_use]
    pub fn new(nodes: impl Iterator<Item = NodeId>, capacity: i64) -> Self {
        let free: DenseNodeMap<i64> = nodes.map(|n| (n, capacity)).collect();
        let grants = free.keys().map(|n| (n, 0)).collect();
        CreditGate {
            free,
            parked: DenseNodeMap::new(),
            grants,
        }
    }

    /// Takes one credit at `node`; [`Reject::AwaitCredit`] when the
    /// window is exhausted (a [`CreditGate::release`] re-offers — park
    /// the work item, do not poll).
    pub fn admit(&mut self, node: NodeId) -> Result<(), Reject> {
        let free = self.free.get_mut(node).expect("node in gate");
        if *free <= 0 {
            return Err(Reject::AwaitCredit);
        }
        *free -= 1;
        *self.grants.get_mut(node).expect("node in gate") += 1;
        Ok(())
    }

    /// Takes one credit at `node` unconditionally, allowing the balance
    /// to go negative (privileged callers only — batch trailer flushes
    /// are never parked).
    pub fn overdraw(&mut self, node: NodeId) {
        *self.free.get_mut(node).expect("node in gate") -= 1;
        *self.grants.get_mut(node).expect("node in gate") += 1;
    }

    /// Parks `item` at `node` until a credit returns.
    pub fn park(&mut self, node: NodeId, item: D) {
        self.parked
            .get_or_insert_with(node, VecDeque::new)
            .push_back(item);
    }

    /// Returns one credit to `node` and unparks its longest-waiting work
    /// item, if any.
    pub fn release(&mut self, node: NodeId) -> Option<D> {
        *self.free.get_mut(node).expect("node in gate") += 1;
        self.parked.get_mut(node)?.pop_front()
    }

    /// Free credits at `node` (negative while overdrawn); zero for nodes
    /// outside the gate.
    #[must_use]
    pub fn free(&self, node: NodeId) -> i64 {
        self.free.get(node).copied().unwrap_or(0)
    }

    /// Credits granted at `node` so far (admissions plus overdraws).
    #[must_use]
    pub fn grants(&self, node: NodeId) -> u64 {
        self.grants.get(node).copied().unwrap_or(0)
    }

    /// Work items parked at `node`.
    #[must_use]
    pub fn parked_len(&self, node: NodeId) -> usize {
        self.parked.get(node).map_or(0, VecDeque::len)
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
    fn pool_rejects_await_credit_at_zero_and_recovers() {
        let g1 = NodeId::gpu(1);
        let mut pool = CreditPool::new(nodes(), 1);
        assert_eq!(pool.take(g1), Ok(()));
        assert_eq!(pool.take(g1), Err(Reject::AwaitCredit));
        assert_eq!(pool.free(g1), 0);
        pool.put(g1);
        assert_eq!(pool.take(g1), Ok(()));
        assert_eq!(pool.grants(g1), 2);
        // The other node's credits are untouched.
        assert_eq!(pool.free(NodeId::gpu(2)), 1);
    }

    #[test]
    fn gate_unparks_in_fifo_order() {
        let g1 = NodeId::gpu(1);
        let mut gate: CreditGate<&str> = CreditGate::new(nodes(), 1);
        assert!(gate.admit(g1).is_ok());
        assert_eq!(gate.admit(g1), Err(Reject::AwaitCredit));
        gate.park(g1, "first-parked");
        gate.park(g1, "second-parked");
        assert_eq!(gate.parked_len(g1), 2);
        assert_eq!(gate.release(g1), Some("first-parked"));
        assert_eq!(gate.release(g1), Some("second-parked"));
        assert_eq!(gate.release(g1), None);
    }

    #[test]
    fn gate_overdraw_goes_negative_and_must_repay() {
        let g1 = NodeId::gpu(1);
        let mut gate: CreditGate<u32> = CreditGate::new(nodes(), 2);
        gate.admit(g1).unwrap();
        gate.admit(g1).unwrap();
        gate.overdraw(g1);
        assert_eq!(gate.free(g1), -1);
        assert_eq!(gate.admit(g1), Err(Reject::AwaitCredit));
        gate.release(g1);
        assert_eq!(gate.admit(g1), Err(Reject::AwaitCredit), "still at zero");
        gate.release(g1);
        assert!(gate.admit(g1).is_ok());
        assert_eq!(gate.grants(g1), 4);
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
