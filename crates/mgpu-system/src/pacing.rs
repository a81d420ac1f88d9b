//! Request issue pacing: closed-loop compute gaps or open-loop arrivals.
//!
//! In the default **closed-loop** mode, each GPU's generated request
//! timestamps define *compute gaps* between consecutive requests, and the
//! GPU sustains at most `slots` in-flight requests (its memory-level
//! parallelism). [`IssuePacer`] owns that state: the per-node request
//! queues, the gap queues, the virtual time marking when the previous
//! request issued, and the free-slot counters. A stalled GPU pushes all
//! of its later work back — like a real kernel whose wavefronts cannot
//! run ahead of their data.
//!
//! In **open-loop** mode ([`IssuePacer::open_loop`]) requests become
//! eligible at their *absolute* `available_at` cycles regardless of how
//! the previous request fared — the arrival process is external, as in
//! inference serving. The slot limit still bounds concurrency, so a
//! saturated node accumulates queueing delay that surfaces as request
//! latency instead of silently shifting the arrival process.
//!
//! Issue slots are [`CreditPool`] credits and every non-issue answer is
//! a typed [`Reject`]: `NotBefore` names the compute-ready cycle (arm
//! one wakeup), `AwaitCredit` says a completion will re-offer, and
//! `Drained` ends the node's stream — the flow-substrate contract, with
//! no decision enum of its own.

use crate::flow::{CreditPool, Reject};
use mgpu_types::{Cycle, DenseNodeMap, Duration, NodeId};
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

/// Per-node issue state for one simulation run.
#[derive(Debug)]
pub struct IssuePacer {
    mode: PacingMode,
    gaps: DenseNodeMap<VecDeque<Duration>>,
    reqs: DenseNodeMap<VecDeque<Request>>,
    /// Virtual time: when the node's previous request issued.
    vt: DenseNodeMap<Cycle>,
    /// Issue-slot credits (the node's memory-level parallelism).
    slots: CreditPool,
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
        let mut gaps: DenseNodeMap<VecDeque<Duration>> = DenseNodeMap::new();
        let mut reqs: DenseNodeMap<VecDeque<Request>> = DenseNodeMap::new();
        for (node, queue) in queues {
            let mut prev = Cycle::ZERO;
            let g = gaps.get_or_insert_with(node, VecDeque::new);
            for r in &queue {
                g.push_back(r.available_at.saturating_since(prev));
                prev = r.available_at;
            }
            reqs.insert(node, queue);
        }
        let vt = reqs.keys().map(|n| (n, Cycle::ZERO)).collect();
        let slots = CreditPool::new(reqs.keys(), slots);
        IssuePacer {
            mode,
            gaps,
            reqs,
            vt,
            slots,
        }
    }

    /// The nodes with request queues, in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.reqs.keys()
    }

    /// Polls `node` for an issue at `now`. Idempotent: every condition is
    /// re-checked at call time, so stale polls are harmless. `Ok` carries
    /// the issued request (a slot credit was consumed); `Err` is the
    /// typed reject telling the caller exactly what re-offers service.
    pub fn poll(&mut self, node: NodeId, now: Cycle) -> Result<Request, Reject> {
        let Some(front_gap) = self.gaps[node].front().copied() else {
            return Err(Reject::Drained);
        };
        let avail = match self.mode {
            PacingMode::ClosedLoop => self.vt[node] + front_gap,
            PacingMode::OpenLoop => {
                self.reqs[node]
                    .front()
                    .expect("gap implies request")
                    .available_at
            }
        };
        if avail > now {
            return Err(Reject::NotBefore(avail));
        }
        self.slots.take(node)?;
        let request = self
            .reqs
            .get_mut(node)
            .expect("queue exists")
            .pop_front()
            .expect("gap implies request");
        self.gaps.get_mut(node).expect("gaps exist").pop_front();
        self.vt.insert(node, now);
        Ok(request)
    }

    /// Returns `node`'s issue-slot credit after one of its requests
    /// completes.
    pub fn complete(&mut self, node: NodeId) {
        self.slots.put(node);
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
        p.complete(g1);
        assert!(p.poll(g1, Cycle::ZERO).is_ok());
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
        p.complete(g1);
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
