//! Request issue pacing: closed-loop compute gaps or open-loop arrivals.
//!
//! In the default **closed-loop** mode, each GPU's generated request
//! timestamps define *compute gaps* between consecutive requests, and the
//! GPU sustains at most `slots` in-flight requests (its memory-level
//! parallelism). [`IssuePacer`] owns that state, one record per node:
//! the request queue, when the previous request issued and what its
//! timestamp was (the next gap is the front request's timestamp minus
//! that one), and the free-slot count. A stalled GPU pushes all of its
//! later work back — like a real kernel whose wavefronts cannot run
//! ahead of their data.
//!
//! In **open-loop** mode ([`IssuePacer::open_loop`]) requests become
//! eligible at their *absolute* `available_at` cycles regardless of how
//! the previous request fared — the arrival process is external, as in
//! inference serving. The slot limit still bounds concurrency, so a
//! saturated node accumulates queueing delay that surfaces as request
//! latency instead of silently shifting the arrival process.
//!
//! Every non-issue answer is a typed [`Reject`]: `NotBefore` names the
//! compute-ready cycle (arm one wakeup), `AwaitCredit` says a completion
//! will re-offer, and `Drained` ends the node's stream — the
//! flow-substrate contract, with no decision enum of its own.
//!
//! The pacer also keeps each node's one armed timer wakeup (the
//! issue-wakeup dedup, DESIGN.md §10): [`IssuePacer::arm`] arms at most
//! one per node, and [`IssuePacer::complete`] asks for a completion poll
//! only when that poll could issue.

use crate::flow::Reject;
use mgpu_types::{Cycle, DenseNodeMap, NodeId};
use mgpu_workloads::Request;
use std::collections::{BTreeMap, VecDeque};

/// How a node's next request becomes eligible to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PacingMode {
    /// Compute gaps replay relative to the previous *actual* issue time;
    /// stalls push later work back (default, models kernel execution).
    #[default]
    ClosedLoop,
    /// Requests become eligible at their absolute `available_at` cycles;
    /// stalls accumulate queueing delay (models external arrivals).
    OpenLoop,
}

/// One node's issue state.
#[derive(Debug)]
struct NodeIssue {
    reqs: VecDeque<Request>,
    /// Virtual time: when the node's previous request issued.
    vt: Cycle,
    /// The previous request's `available_at`: the closed-loop compute gap
    /// before the front request is the distance from it.
    prev_available: Cycle,
    /// Free issue slots (the node's memory-level parallelism).
    slots: u32,
    /// The fire cycle of the node's one pending timer wakeup, if armed.
    armed: Option<Cycle>,
}

/// Per-node issue state for one simulation run.
#[derive(Debug)]
pub struct IssuePacer {
    mode: PacingMode,
    nodes: DenseNodeMap<NodeIssue>,
}

impl IssuePacer {
    /// Builds a closed-loop pacer from per-requester queues (each sorted
    /// by `available_at`). Consecutive timestamp deltas become the compute
    /// gaps; every node starts with `slots` free issue slots.
    #[must_use]
    pub fn new(queues: BTreeMap<NodeId, VecDeque<Request>>, slots: u32) -> Self {
        Self::build(queues, slots, PacingMode::ClosedLoop)
    }

    /// Builds an open-loop pacer: requests issue at their absolute
    /// `available_at` (subject to the slot limit), never pushed back by
    /// earlier stalls.
    #[must_use]
    pub fn open_loop(queues: BTreeMap<NodeId, VecDeque<Request>>, slots: u32) -> Self {
        Self::build(queues, slots, PacingMode::OpenLoop)
    }

    fn build(queues: BTreeMap<NodeId, VecDeque<Request>>, slots: u32, mode: PacingMode) -> Self {
        let nodes = queues
            .into_iter()
            .map(|(node, reqs)| {
                let issue = NodeIssue {
                    reqs,
                    vt: Cycle::ZERO,
                    prev_available: Cycle::ZERO,
                    slots,
                    armed: None,
                };
                (node, issue)
            })
            .collect();
        IssuePacer { mode, nodes }
    }

    /// The nodes with request queues, in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys()
    }

    /// Polls `node` for an issue at `now`. Idempotent: every condition is
    /// re-checked at call time, so stale polls are harmless. `Ok` carries
    /// the issued request (an issue slot was taken); `Err` is the typed
    /// reject telling the caller exactly what re-offers service. A poll
    /// at the armed wakeup's cycle is that wakeup firing, so the node
    /// becomes re-armable. (A poll at any other cycle — the initial kick,
    /// a same-cycle re-poll, a completion poll — leaves the armed wakeup
    /// in place.)
    pub fn poll(&mut self, node: NodeId, now: Cycle) -> Result<Request, Reject> {
        let n = self.nodes.get_mut(node).expect("node has a request queue");
        if n.armed == Some(now) {
            n.armed = None;
        }
        let Some(front) = n.reqs.front() else {
            return Err(Reject::Drained);
        };
        let avail = match self.mode {
            PacingMode::ClosedLoop => n.vt + front.available_at.saturating_since(n.prev_available),
            PacingMode::OpenLoop => front.available_at,
        };
        if avail > now {
            return Err(Reject::NotBefore(avail));
        }
        if n.slots == 0 {
            // A completion returns the slot and re-polls.
            return Err(Reject::AwaitCredit);
        }
        n.slots -= 1;
        let request = n.reqs.pop_front().expect("front exists");
        n.prev_available = request.available_at;
        n.vt = now;
        Ok(request)
    }

    /// Arms `node`'s timer wakeup at `at`, the cycle of a
    /// [`Reject::NotBefore`]. `true` means the caller must schedule it;
    /// `false` means a wakeup is already armed and scheduling another
    /// would recreate the duplicate-poll storm. At most one wakeup is
    /// armed per node, and none is lost: the ready cycle moves only on
    /// an issue, and no issue happens before the armed wakeup fires.
    pub fn arm(&mut self, node: NodeId, at: Cycle) -> bool {
        let n = self.nodes.get_mut(node).expect("node has a request queue");
        if n.armed.is_some() {
            return false;
        }
        n.armed = Some(at);
        true
    }

    /// Returns `node`'s issue slot after one of its requests completes at
    /// `now`. `true` means the caller must poll the node at `now`;
    /// `false` means that poll could not issue: the queue is drained, or
    /// the node's wakeup is armed for a later cycle. (The ready cycle
    /// moves only on an issue, and none happens before the armed
    /// wakeup, so the poll would answer `NotBefore(armed)` and arm
    /// nothing.)
    pub fn complete(&mut self, node: NodeId, now: Cycle) -> bool {
        let n = self.nodes.get_mut(node).expect("node has a request queue");
        n.slots += 1;
        !n.reqs.is_empty() && n.armed.is_none_or(|at| at <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(reqs: Vec<Request>) -> BTreeMap<NodeId, VecDeque<Request>> {
        let mut q: BTreeMap<NodeId, VecDeque<Request>> = BTreeMap::new();
        for r in reqs {
            q.entry(r.requester).or_default().push_back(r);
        }
        q
    }

    #[test]
    fn issues_in_order_and_respects_gaps() {
        let g1 = NodeId::gpu(1);
        let mut p = IssuePacer::new(
            queues(vec![
                Request::direct(Cycle::new(0), g1, NodeId::gpu(2)),
                Request::direct(Cycle::new(10), g1, NodeId::gpu(3)),
            ]),
            4,
        );
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
        // Second request needs its 10-cycle compute gap after the first.
        assert_eq!(
            p.poll(g1, Cycle::new(3)).unwrap_err(),
            Reject::NotBefore(Cycle::new(10))
        );
        assert!(p.poll(g1, Cycle::new(10)).is_ok());
        assert_eq!(p.poll(g1, Cycle::new(10)).unwrap_err(), Reject::Drained);
    }

    #[test]
    fn stalls_at_slot_limit_until_completion() {
        let g1 = NodeId::gpu(1);
        let mut p = IssuePacer::new(
            queues(vec![
                Request::direct(Cycle::new(0), g1, NodeId::gpu(2)),
                Request::direct(Cycle::new(0), g1, NodeId::gpu(2)),
            ]),
            1,
        );
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
        assert_eq!(p.poll(g1, Cycle::ZERO).unwrap_err(), Reject::AwaitCredit);
        assert!(p.complete(g1, Cycle::ZERO));
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
    }

    #[test]
    fn slots_reject_await_credit_at_zero_and_recover_per_node() {
        let (g1, g2) = (NodeId::gpu(1), NodeId::gpu(2));
        let mut p = IssuePacer::new(
            queues(vec![
                Request::direct(Cycle::new(0), g1, NodeId::gpu(3)),
                Request::direct(Cycle::new(0), g1, NodeId::gpu(3)),
                Request::direct(Cycle::new(0), g1, NodeId::gpu(3)),
                Request::direct(Cycle::new(0), g2, NodeId::gpu(3)),
                Request::direct(Cycle::new(0), g2, NodeId::gpu(3)),
            ]),
            1,
        );
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
        assert_eq!(p.poll(g1, Cycle::ZERO).unwrap_err(), Reject::AwaitCredit);
        // GPU 1 at zero slots leaves GPU 2's slot untouched.
        assert!(p.poll(g2, Cycle::ZERO).is_ok());
        assert_eq!(p.poll(g2, Cycle::ZERO).unwrap_err(), Reject::AwaitCredit);
        // A completion returns exactly one slot, to its own node.
        assert!(p.complete(g1, Cycle::ZERO));
        assert_eq!(p.poll(g2, Cycle::ZERO).unwrap_err(), Reject::AwaitCredit);
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
        assert_eq!(p.poll(g1, Cycle::ZERO).unwrap_err(), Reject::AwaitCredit);
        assert!(p.complete(g1, Cycle::ZERO));
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
    }

    #[test]
    fn gap_is_distance_from_the_last_issued_timestamp() {
        let g1 = NodeId::gpu(1);
        let mut p = IssuePacer::new(
            queues(vec![
                Request::direct(Cycle::new(10), g1, NodeId::gpu(2)),
                // Same timestamp as its predecessor: no gap.
                Request::direct(Cycle::new(10), g1, NodeId::gpu(2)),
                Request::direct(Cycle::new(30), g1, NodeId::gpu(2)),
                // Earlier than its predecessor: the gap saturates to zero.
                Request::direct(Cycle::new(25), g1, NodeId::gpu(2)),
            ]),
            4,
        );
        // The first gap counts from cycle 0.
        assert_eq!(
            p.poll(g1, Cycle::ZERO).unwrap_err(),
            Reject::NotBefore(Cycle::new(10))
        );
        assert!(p.poll(g1, Cycle::new(12)).is_ok());
        assert!(p.poll(g1, Cycle::new(12)).is_ok(), "zero gap");
        // 30 - 10 = 20 cycles after the issue at 12.
        assert_eq!(
            p.poll(g1, Cycle::new(12)).unwrap_err(),
            Reject::NotBefore(Cycle::new(32))
        );
        assert!(p.poll(g1, Cycle::new(40)).is_ok());
        assert!(p.poll(g1, Cycle::new(40)).is_ok(), "saturated gap");
        assert_eq!(p.poll(g1, Cycle::new(40)).unwrap_err(), Reject::Drained);
    }

    #[test]
    fn wakeup_arms_once_until_fired() {
        let g1 = NodeId::gpu(1);
        let mut p = IssuePacer::new(
            queues(vec![
                Request::direct(Cycle::new(10), g1, NodeId::gpu(2)),
                Request::direct(Cycle::new(35), g1, NodeId::gpu(2)),
            ]),
            4,
        );
        assert_eq!(
            p.poll(g1, Cycle::ZERO).unwrap_err(),
            Reject::NotBefore(Cycle::new(10))
        );
        assert!(p.arm(g1, Cycle::new(10)), "first arm schedules");
        assert!(!p.arm(g1, Cycle::new(10)), "duplicate suppressed");
        assert!(!p.arm(g1, Cycle::new(25)), "later wakeup suppressed");
        // A stray poll at a non-armed cycle does not disarm.
        assert!(p.poll(g1, Cycle::new(5)).is_err());
        assert!(!p.arm(g1, Cycle::new(10)));
        // The armed wakeup firing issues and re-arms the node.
        assert!(p.poll(g1, Cycle::new(10)).is_ok());
        assert_eq!(
            p.poll(g1, Cycle::new(10)).unwrap_err(),
            Reject::NotBefore(Cycle::new(35))
        );
        assert!(p.arm(g1, Cycle::new(35)));
    }

    #[test]
    fn completion_polls_only_when_an_issue_is_possible() {
        let (g1, g2) = (NodeId::gpu(1), NodeId::gpu(2));
        let mut p = IssuePacer::new(
            queues(vec![
                Request::direct(Cycle::new(0), g1, NodeId::gpu(3)),
                Request::direct(Cycle::new(0), g1, NodeId::gpu(3)),
                Request::direct(Cycle::new(50), g1, NodeId::gpu(3)),
                Request::direct(Cycle::new(0), g2, NodeId::gpu(3)),
            ]),
            4,
        );
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
        assert_eq!(
            p.poll(g1, Cycle::ZERO).unwrap_err(),
            Reject::NotBefore(Cycle::new(50))
        );
        assert!(p.arm(g1, Cycle::new(50)));
        // Armed for a later cycle: the poll would answer NotBefore(50)
        // and arm nothing, so none is asked for.
        assert!(!p.complete(g1, Cycle::new(20)));
        // Armed for this very cycle: the wakeup has not fired yet, and
        // the completion poll follows it.
        assert!(p.complete(g1, Cycle::new(50)));
        assert!(p.poll(g1, Cycle::new(50)).is_ok());
        // A drained queue has nothing to issue.
        assert!(!p.complete(g1, Cycle::new(60)));
        assert!(p.poll(g2, Cycle::ZERO).is_ok());
        assert!(!p.complete(g2, Cycle::new(5)));
        // The slots still came back.
        assert_eq!(p.nodes[g1].slots, 4);
        assert_eq!(p.nodes[g2].slots, 4);
    }

    #[test]
    fn open_loop_issue_times_are_absolute() {
        let g1 = NodeId::gpu(1);
        let mut p = IssuePacer::open_loop(
            queues(vec![
                Request::direct(Cycle::new(0), g1, NodeId::gpu(2)),
                Request::direct(Cycle::new(5), g1, NodeId::gpu(2)),
            ]),
            4,
        );
        // First issues late (at 100): the second is *already* eligible —
        // its arrival at cycle 5 was not pushed back.
        assert!(p.poll(g1, Cycle::new(100)).is_ok());
        assert!(p.poll(g1, Cycle::new(100)).is_ok());
        assert_eq!(p.poll(g1, Cycle::new(100)).unwrap_err(), Reject::Drained);
    }

    #[test]
    fn open_loop_still_waits_for_future_arrivals() {
        let g1 = NodeId::gpu(1);
        let mut p = IssuePacer::open_loop(
            queues(vec![
                Request::direct(Cycle::new(0), g1, NodeId::gpu(2)),
                Request::direct(Cycle::new(50), g1, NodeId::gpu(2)),
            ]),
            4,
        );
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
        assert_eq!(
            p.poll(g1, Cycle::new(10)).unwrap_err(),
            Reject::NotBefore(Cycle::new(50))
        );
    }

    #[test]
    fn open_loop_respects_slot_limit() {
        let g1 = NodeId::gpu(1);
        let mut p = IssuePacer::open_loop(
            queues(vec![
                Request::direct(Cycle::new(0), g1, NodeId::gpu(2)),
                Request::direct(Cycle::new(0), g1, NodeId::gpu(2)),
            ]),
            1,
        );
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
        assert_eq!(p.poll(g1, Cycle::ZERO).unwrap_err(), Reject::AwaitCredit);
        assert!(p.complete(g1, Cycle::ZERO));
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
    }

    #[test]
    fn stall_delays_later_work() {
        let g1 = NodeId::gpu(1);
        let mut p = IssuePacer::new(
            queues(vec![
                Request::direct(Cycle::new(0), g1, NodeId::gpu(2)),
                Request::direct(Cycle::new(5), g1, NodeId::gpu(2)),
            ]),
            4,
        );
        // First issues late (at 100): the 5-cycle gap now counts from 100.
        assert!(p.poll(g1, Cycle::new(100)).is_ok());
        assert_eq!(
            p.poll(g1, Cycle::new(100)).unwrap_err(),
            Reject::NotBefore(Cycle::new(105))
        );
    }
}
