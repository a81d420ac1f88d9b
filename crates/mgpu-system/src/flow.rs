//! System-level flow control: typed backpressure and the credit window
//! shared by the pacing, NIC, and engine layers.
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
//!
//! The issue-wakeup dedup (DESIGN.md §10) lives with the rest of a
//! node's issue state, in [`crate::pacing::IssuePacer`].

use mgpu_types::Cycle;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
