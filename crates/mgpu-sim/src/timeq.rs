//! Timed-server flow substrate: credit-gated service on a serialized port.
//!
//! Every bandwidth resource in the fabric — node egress/ingress ports,
//! switch ports, per-pair control VCs — is a [`TimedServer`]. It models
//! the two first-order effects the paper's traffic analysis depends on:
//!
//! * **Serialization**: a message of `bytes` occupies the wire for
//!   `ceil(bytes / bytes_per_cycle)` cycles, and messages queue FIFO
//!   behind one another. Occupancy is booked in *byte-ticks* (cycles ×
//!   bandwidth), so back-to-back messages pack tightly and every metadata
//!   byte consumes bandwidth instead of hiding in per-message rounding.
//! * **Propagation latency**: a fixed pipeline delay added after
//!   serialization completes.
//!
//! The server keeps per-class byte counters so experiments can split
//! traffic into data vs. security metadata (paper Figs. 12 and 23), and
//! fronts the wire with per-virtual-channel **credit-based flow
//! control**. Callers request service and receive a [`Ticket`] naming
//! the completion cycle; when a VC is out of credits the server answers
//! with a typed [`Busy`] reject carrying the exact cycle the next credit
//! frees — the caller re-requests *then*, never by blind re-polling.
//!
//! A credit is held from grant until the message's last byte clears the
//! server (serialization end plus propagation), i.e. until the downstream
//! buffer slot it models drains. Credits reclaim lazily by time: every
//! admission first returns all credits whose completion is `<= now`, so
//! no completion callback wiring is needed and the credit counters stay
//! exact for conservation checks (`credits_issued == credits_returned`
//! once the server drains).
//!
//! With a VC's credit limit set to `None` (the default — see
//! `FlowControlConfig`) admission never rejects: the server is a plain
//! FIFO serializer until credits are configured finite.
//!
//! # Examples
//!
//! ```
//! use mgpu_sim::timeq::{TimedServer, Vc};
//! use mgpu_sim::link::TrafficClass;
//! use mgpu_types::{ByteSize, Cycle, Duration};
//!
//! // 50 B/cy, 100 cy propagation, one data credit.
//! let mut srv = TimedServer::new(50, Duration::cycles(100), Some(1), None);
//! let line = [(ByteSize::CACHELINE, TrafficClass::Data)];
//! let t = srv.serve_parts(Vc::Data, Cycle::ZERO, &line).expect("credit available");
//! // 64 B serialize in ceil(64/50) = 2 cycles, then 100 cycles of flight.
//! assert_eq!(t.done, Cycle::new(2 + 100));
//! // Second request finds the VC out of credits: typed reject, exact retry.
//! let busy = srv.serve_parts(Vc::Data, Cycle::ZERO, &line).unwrap_err();
//! assert_eq!(busy.retry_at, Cycle::new(102));
//! // At the retry cycle the credit has reclaimed and service proceeds.
//! assert!(srv.serve_parts(Vc::Data, busy.retry_at, &line).is_ok());
//! ```

use std::collections::VecDeque;

use crate::link::{TrafficClass, TrafficTotals};
use mgpu_types::{ByteSize, Cycle, Duration};

/// Virtual channel selector: bulk data vs. small control/protocol
/// messages, mirroring the request/response VC split real interconnects
/// use for protocol deadlock freedom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vc {
    /// Bulk data blocks (and their inline security metadata).
    Data,
    /// Small control messages: requests, trailing MACs, ACKs.
    Ctrl,
}

impl Vc {
    const COUNT: usize = 2;

    #[inline]
    fn index(self) -> usize {
        match self {
            Vc::Data => 0,
            Vc::Ctrl => 1,
        }
    }
}

/// Typed backpressure: the VC is out of credits until `retry_at`.
///
/// `retry_at` is the earliest cycle at which an in-flight grant
/// completes and returns its credit — re-requesting at exactly that
/// cycle is guaranteed to find a credit free (absent intervening
/// grants), so callers schedule one retry instead of polling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Earliest cycle a credit frees.
    pub retry_at: Cycle,
}

/// A granted service request: receipt for one credit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Cycle the last byte clears the server (credit returns then).
    pub done: Cycle,
}

/// Per-VC credit ledger.
#[derive(Debug, Default)]
struct VcState {
    /// `None` = unbounded: admission never rejects.
    limit: Option<u32>,
    /// Completion cycles of in-flight grants, nondecreasing (bookings
    /// are monotone in completion time).
    in_flight: VecDeque<Cycle>,
    /// Requests granted on this VC.
    grants: u64,
    /// Credits handed out (== grants; kept separate so the conservation
    /// invariant is checkable without aliasing).
    issued: u64,
    /// Credits reclaimed after their grant completed.
    returned: u64,
}

impl VcState {
    /// Returns every credit whose grant completed by `now`.
    fn reclaim(&mut self, now: Cycle) {
        while self.in_flight.front().is_some_and(|&done| done <= now) {
            self.in_flight.pop_front();
            self.returned += 1;
        }
    }

    /// Checks admission at `now` without mutating: `Err` carries the
    /// earliest in-flight completion past `now`.
    fn check(&self, now: Cycle) -> Result<(), Busy> {
        let Some(limit) = self.limit else {
            return Ok(());
        };
        let occupied = self.in_flight.iter().filter(|&&done| done > now).count();
        if (occupied as u64) < u64::from(limit) {
            Ok(())
        } else {
            let retry_at = self
                .in_flight
                .iter()
                .copied()
                .find(|&done| done > now)
                .expect("occupied VC has a pending completion");
            Err(Busy { retry_at })
        }
    }

    /// Earliest cycle at which an admission started at `now` would find
    /// a credit free (assumes `reclaim(now)` already ran). `now` itself
    /// when under limit.
    fn credit_free_at(&self, now: Cycle) -> Cycle {
        match self.limit {
            Some(limit) if self.in_flight.len() >= limit as usize => {
                // The (len - limit + 1)-th pending completion frees the
                // slot this admission needs.
                self.in_flight[self.in_flight.len() - limit as usize]
            }
            _ => now,
        }
    }

    fn grant(&mut self, done: Cycle) {
        self.in_flight.push_back(done);
        self.grants += 1;
        self.issued += 1;
    }
}

/// One direction of a serialized port, fronted by per-VC credit
/// admission. See the module docs for the timing model and the credit
/// lifecycle.
#[derive(Debug)]
pub struct TimedServer {
    bytes_per_cycle: u32,
    latency: Duration,
    /// Transmitter occupancy in byte-ticks: the first byte-tick a new
    /// booking can use.
    next_free_bt: u128,
    totals: TrafficTotals,
    /// Wire crossings through this server that an adversary tampered
    /// with (replayed, flipped, forged or dropped messages).
    tampered_messages: u64,
    vcs: [VcState; Vc::COUNT],
    /// Bytes served per VC (granted service only; `occupy` accounts no
    /// bytes, background charges are class- not VC-attributed). This is
    /// the per-channel byte counter a co-located observer can read.
    vc_bytes: [u64; Vc::COUNT],
}

impl TimedServer {
    /// A server over a `bytes_per_cycle`-wide port with `latency`
    /// propagation; `data_credits` / `ctrl_credits` bound the respective
    /// VCs (`None` = unbounded, the default).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    #[must_use]
    pub fn new(
        bytes_per_cycle: u32,
        latency: Duration,
        data_credits: Option<u32>,
        ctrl_credits: Option<u32>,
    ) -> Self {
        assert!(bytes_per_cycle > 0, "port bandwidth must be non-zero");
        let mut vcs: [VcState; Vc::COUNT] = Default::default();
        vcs[Vc::Data.index()].limit = data_credits;
        vcs[Vc::Ctrl.index()].limit = ctrl_credits;
        TimedServer {
            bytes_per_cycle,
            latency,
            next_free_bt: 0,
            totals: TrafficTotals::default(),
            tampered_messages: 0,
            vcs,
            vc_bytes: [0; Vc::COUNT],
        }
    }

    /// A server with unbounded credits on both VCs.
    #[must_use]
    pub fn unbounded(bytes_per_cycle: u32, latency: Duration) -> Self {
        TimedServer::new(bytes_per_cycle, latency, None, None)
    }

    /// Non-mutating admission probe at `now`: `Ok` iff a request on
    /// `vc` would be granted. Agrees with what [`TimedServer::serve_parts`]
    /// at the same cycle would decide.
    pub fn check(&self, vc: Vc, now: Cycle) -> Result<(), Busy> {
        self.vcs[vc.index()].check(now)
    }

    /// Reclaims `vc`'s completed credits, then admits a request at `now`
    /// or rejects it with the cycle the needed credit frees.
    fn admit(&mut self, vc: Vc, now: Cycle) -> Result<(), Busy> {
        let state = &mut self.vcs[vc.index()];
        state.reclaim(now);
        let retry_at = state.credit_free_at(now);
        if retry_at > now {
            Err(Busy { retry_at })
        } else {
            Ok(())
        }
    }

    /// Books `bytes` onto the transmitter starting no earlier than
    /// `start` and holds a `vc` credit until they clear: the ticket is
    /// due when the last byte has left and propagated.
    fn book(&mut self, vc: Vc, start: Cycle, bytes: ByteSize) -> Ticket {
        let bw = u128::from(self.bytes_per_cycle);
        let begin = (u128::from(start.as_u64()) * bw).max(self.next_free_bt);
        self.next_free_bt = begin + u128::from(bytes.as_u64());
        let done = Cycle::new(self.next_free_bt.div_ceil(bw) as u64) + self.latency;
        self.vcs[vc.index()].grant(done);
        Ticket { done }
    }

    /// Counts `parts` under their traffic classes and on `vc`; returns
    /// their total.
    fn account(&mut self, vc: Vc, parts: &[(ByteSize, TrafficClass)]) -> ByteSize {
        let mut total = ByteSize::ZERO;
        for &(bytes, class) in parts {
            self.totals.add(class, bytes);
            total += bytes;
        }
        self.vc_bytes[vc.index()] += total.as_u64();
        total
    }

    /// Requests service for a multi-part message on `vc`: admission,
    /// then one booked transmission of all parts together, with per-class
    /// byte accounting. `Err` is the typed credit reject.
    pub fn serve_parts(
        &mut self,
        vc: Vc,
        now: Cycle,
        parts: &[(ByteSize, TrafficClass)],
    ) -> Result<Ticket, Busy> {
        self.admit(vc, now)?;
        let total = self.account(vc, parts);
        Ok(self.book(vc, now, total))
    }

    /// Sender-blocking service: instead of rejecting when `vc` is out
    /// of credits, delays the *start* of service to the cycle the needed
    /// credit frees (the sender stalls holding the message). Used by the
    /// control path, whose callers are synchronous and cannot retry.
    pub fn serve_parts_blocking(
        &mut self,
        vc: Vc,
        now: Cycle,
        parts: &[(ByteSize, TrafficClass)],
    ) -> Ticket {
        let state = &mut self.vcs[vc.index()];
        state.reclaim(now);
        let start = state.credit_free_at(now);
        state.reclaim(start);
        let total = self.account(vc, parts);
        self.book(vc, start, total)
    }

    /// Requests occupancy-only service on `vc`: books the server like
    /// [`TimedServer::serve_parts`] but accounts no bytes. Ingress ports
    /// use this — their bytes were counted at the egress they left.
    pub fn occupy(&mut self, vc: Vc, now: Cycle, bytes: ByteSize) -> Result<Ticket, Busy> {
        self.admit(vc, now)?;
        Ok(self.book(vc, now, bytes))
    }

    /// Accounts background traffic that neither queues nor holds a
    /// credit (hop-scaled ctrl accounting). Used for bytes that in
    /// hardware interleave with the message stream; modelling them as
    /// queue-blocking would let a late-scheduled message delay an
    /// earlier one, an artifact of lifecycle-ordered processing.
    pub fn charge_background(&mut self, bytes: ByteSize, class: TrafficClass) {
        self.totals.add(class, bytes);
    }

    /// Credits of `vc` held by in-flight grants at `now` (non-mutating).
    #[must_use]
    pub fn occupancy(&self, vc: Vc, now: Cycle) -> u32 {
        self.vcs[vc.index()]
            .in_flight
            .iter()
            .filter(|&&done| done > now)
            .count() as u32
    }

    /// Requests granted on `vc` so far.
    #[must_use]
    pub fn grants(&self, vc: Vc) -> u64 {
        self.vcs[vc.index()].grants
    }

    /// Bytes served on `vc` so far (granted service only; background
    /// charges are excluded — they are class-, not VC-attributed).
    #[must_use]
    pub fn vc_bytes(&self, vc: Vc) -> u64 {
        self.vc_bytes[vc.index()]
    }

    /// Credits handed out on `vc` (== grants).
    #[must_use]
    pub fn credits_issued(&self, vc: Vc) -> u64 {
        self.vcs[vc.index()].issued
    }

    /// Credits reclaimed on `vc` after their grant completed.
    #[must_use]
    pub fn credits_returned(&self, vc: Vc) -> u64 {
        self.vcs[vc.index()].returned
    }

    /// Reclaims every credit whose grant completed by `now` on both
    /// VCs. Call at drain to settle the conservation invariant
    /// `credits_issued == credits_returned`.
    pub fn settle(&mut self, now: Cycle) {
        for vc in &mut self.vcs {
            vc.reclaim(now);
        }
    }

    /// Per-class byte totals accounted on this server.
    #[must_use]
    pub fn totals(&self) -> &TrafficTotals {
        &self.totals
    }

    /// First cycle a new booking could start serializing (queue head
    /// time).
    #[must_use]
    pub fn next_free(&self) -> Cycle {
        Cycle::new(self.next_free_bt.div_ceil(u128::from(self.bytes_per_cycle)) as u64)
    }

    /// Records `n` adversary-tampered crossings. Tampering does not
    /// change the timing model (the attacker rewrites bytes in flight);
    /// the counter feeds security reporting.
    pub fn note_tampered(&mut self, n: u64) {
        self.tampered_messages += n;
    }

    /// Adversary-tampered crossings recorded on this server.
    #[must_use]
    pub fn tampered_messages(&self) -> u64 {
        self.tampered_messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(bytes: u64) -> [(ByteSize, TrafficClass); 1] {
        [(ByteSize::new(bytes), TrafficClass::Data)]
    }

    /// A 32 B/cy port with 10 cycles of propagation.
    fn port() -> TimedServer {
        TimedServer::unbounded(32, Duration::cycles(10))
    }

    #[test]
    fn serialization_rounds_up() {
        // Each message starts on an idle port: done = ser + latency.
        for (i, (bytes, cycles)) in [(0, 0), (1, 1), (32, 1), (33, 2), (64, 2)]
            .into_iter()
            .enumerate()
        {
            let mut srv = port();
            let start = Cycle::new(i as u64 * 100);
            let t = srv.serve_parts(Vc::Data, start, &parts(bytes)).unwrap();
            assert_eq!(t.done, start + Duration::cycles(cycles + 10), "{bytes} B");
        }
    }

    #[test]
    fn messages_queue_fifo() {
        let mut srv = port();
        // Two 64 B messages at t=0: first occupies [0,2), second [2,4).
        let a = srv.serve_parts(Vc::Data, Cycle::ZERO, &parts(64)).unwrap();
        let b = srv.serve_parts(Vc::Data, Cycle::ZERO, &parts(64)).unwrap();
        assert_eq!(a.done, Cycle::new(12));
        assert_eq!(b.done, Cycle::new(14));
    }

    #[test]
    fn idle_port_does_not_queue() {
        let mut srv = port();
        srv.serve_parts(Vc::Data, Cycle::ZERO, &parts(64)).unwrap();
        // Arriving long after the port drained: starts immediately.
        let c = srv
            .serve_parts(Vc::Data, Cycle::new(100), &parts(32))
            .unwrap();
        assert_eq!(c.done, Cycle::new(111));
    }

    #[test]
    fn multi_part_message_is_one_occupancy_with_per_class_accounting() {
        let mut srv = port();
        // 64+8+8+1 = 81 B -> ceil(81/32) = 3 cycles + 10 latency.
        let t = srv
            .serve_parts(
                Vc::Data,
                Cycle::ZERO,
                &[
                    (ByteSize::new(64), TrafficClass::Data),
                    (ByteSize::new(8), TrafficClass::Mac),
                    (ByteSize::new(8), TrafficClass::Counter),
                    (ByteSize::new(1), TrafficClass::SenderId),
                ],
            )
            .unwrap();
        assert_eq!(t.done, Cycle::new(13));
        assert_eq!(srv.next_free(), Cycle::new(3));
        assert_eq!(srv.totals().get(TrafficClass::Data).as_u64(), 64);
        assert_eq!(srv.totals().metadata().as_u64(), 17);
        assert_eq!(srv.totals().total().as_u64(), 81);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_panics() {
        let _ = TimedServer::unbounded(0, Duration::ZERO);
    }

    #[test]
    fn finite_credits_reject_with_exact_retry_cycle() {
        let mut srv = TimedServer::new(50, Duration::cycles(100), Some(2), None);
        // Two grants fill the VC: byte-ticks 0..64 and 64..128 at
        // 50 B/cy -> done at 102 and 103.
        let a = srv.serve_parts(Vc::Data, Cycle::ZERO, &parts(64));
        let b = srv.serve_parts(Vc::Data, Cycle::ZERO, &parts(64));
        assert_eq!(a.unwrap().done, Cycle::new(102));
        assert_eq!(b.unwrap().done, Cycle::new(103));
        // Third rejects; the credit the request needs frees at 102.
        let busy = srv
            .serve_parts(Vc::Data, Cycle::new(50), &parts(64))
            .unwrap_err();
        assert_eq!(busy.retry_at, Cycle::new(102));
        assert_eq!(srv.grants(Vc::Data), 2, "a reject takes no credit");
        // Non-mutating probe agrees before and after the credit frees.
        assert_eq!(
            srv.check(Vc::Data, Cycle::new(101)),
            Err(Busy {
                retry_at: Cycle::new(102)
            })
        );
        assert_eq!(srv.check(Vc::Data, Cycle::new(102)), Ok(()));
        // Retrying at the named cycle succeeds.
        assert!(srv.serve_parts(Vc::Data, busy.retry_at, &parts(64)).is_ok());
    }

    #[test]
    fn blocking_service_shifts_start_to_credit_free_cycle() {
        let mut blocked = TimedServer::new(50, Duration::cycles(100), None, Some(1));
        let mut open = TimedServer::new(50, Duration::cycles(100), None, None);
        let first = blocked.serve_parts_blocking(Vc::Ctrl, Cycle::ZERO, &parts(64));
        assert_eq!(first.done, Cycle::new(102));
        // Out of ctrl credits: service start shifts to 102 (the sender
        // stalls), equivalent to an unbounded send issued at 102.
        let shifted = blocked.serve_parts_blocking(Vc::Ctrl, Cycle::new(10), &parts(64));
        open.serve_parts_blocking(Vc::Ctrl, Cycle::ZERO, &parts(64));
        let reference = open.serve_parts_blocking(Vc::Ctrl, Cycle::new(102), &parts(64));
        assert_eq!(shifted.done, reference.done);
        assert_eq!(blocked.grants(Vc::Ctrl), 2);
    }

    #[test]
    fn occupancy_tracks_in_flight_credits_per_vc() {
        let mut srv = TimedServer::new(50, Duration::cycles(100), Some(4), None);
        srv.serve_parts(Vc::Data, Cycle::ZERO, &parts(64)).unwrap(); // done 102
        srv.serve_parts(Vc::Data, Cycle::ZERO, &parts(64)).unwrap(); // done 103
        assert_eq!(srv.occupancy(Vc::Data, Cycle::ZERO), 2);
        assert_eq!(srv.occupancy(Vc::Data, Cycle::new(102)), 1);
        assert_eq!(srv.occupancy(Vc::Data, Cycle::new(103)), 0);
        assert_eq!(srv.occupancy(Vc::Ctrl, Cycle::ZERO), 0);
    }

    #[test]
    fn credit_conservation_settles_at_drain() {
        let mut srv = TimedServer::new(50, Duration::cycles(100), Some(3), Some(2));
        let mut last = Cycle::ZERO;
        for i in 0..20u64 {
            let mut now = Cycle::new(i * 7);
            match srv.serve_parts(Vc::Data, now, &parts(64 + i * 8)) {
                Ok(t) => last = last.max(t.done),
                Err(busy) => {
                    let t = srv
                        .serve_parts(Vc::Data, busy.retry_at, &parts(64 + i * 8))
                        .expect("retry at the named cycle finds a credit");
                    now = busy.retry_at;
                    last = last.max(t.done);
                }
            }
            let t = srv.serve_parts_blocking(Vc::Ctrl, now, &parts(16));
            last = last.max(t.done);
        }
        assert!(srv.credits_issued(Vc::Data) > srv.credits_returned(Vc::Data));
        srv.settle(last);
        for vc in [Vc::Data, Vc::Ctrl] {
            assert_eq!(
                srv.credits_issued(vc),
                srv.credits_returned(vc),
                "{vc:?} credits leak"
            );
            assert_eq!(srv.credits_issued(vc), srv.grants(vc));
            assert_eq!(srv.occupancy(vc, last), 0);
        }
    }

    #[test]
    fn vc_bytes_split_by_channel_and_exclude_background() {
        let mut srv = TimedServer::unbounded(50, Duration::cycles(100));
        srv.serve_parts(Vc::Data, Cycle::ZERO, &parts(64)).unwrap();
        srv.serve_parts_blocking(
            Vc::Ctrl,
            Cycle::ZERO,
            &[
                (ByteSize::new(8), TrafficClass::Mac),
                (ByteSize::new(4), TrafficClass::Ack),
            ],
        );
        // Background charges are class-attributed but belong to no VC.
        srv.charge_background(ByteSize::new(16), TrafficClass::Ack);
        assert_eq!(srv.vc_bytes(Vc::Data), 64);
        assert_eq!(srv.vc_bytes(Vc::Ctrl), 12);
        // Occupancy-only service books the server but moves no bytes.
        srv.occupy(Vc::Data, Cycle::new(500), ByteSize::new(64))
            .unwrap();
        assert_eq!(srv.vc_bytes(Vc::Data), 64);
        assert_eq!(srv.totals().total().as_u64(), 92);
    }

    #[test]
    fn occupy_respects_credits_without_accounting_bytes() {
        let mut srv = TimedServer::new(32, Duration::ZERO, Some(1), None);
        let t = srv
            .occupy(Vc::Data, Cycle::ZERO, ByteSize::new(64))
            .unwrap();
        assert_eq!(t.done, Cycle::new(2));
        let busy = srv
            .occupy(Vc::Data, Cycle::ZERO, ByteSize::new(64))
            .unwrap_err();
        assert_eq!(busy.retry_at, Cycle::new(2));
        assert!(srv
            .occupy(Vc::Data, Cycle::new(2), ByteSize::new(64))
            .is_ok());
        assert_eq!(srv.totals().total().as_u64(), 0, "occupy accounts no bytes");
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// No-starvation and conservation on a single server under
            /// arbitrary arrival sequences: every [`Busy`] names a
            /// strictly-later cycle at which the retry is guaranteed a
            /// credit (one retry always suffices in a serial driver), and
            /// at drain every issued credit has been returned on both VCs.
            #[test]
            fn retry_protocol_never_starves_and_conserves_credits(
                limits in ((1u32..5, 1u32..3), (1u32..64, 0u64..32)),
                ops in proptest::collection::vec(
                    ((0u8..2, 1u64..1024), 0u64..50), 1..60),
            ) {
                let ((data_limit, ctrl_limit), (bw, latency)) = limits;
                let mut srv = TimedServer::new(
                    bw,
                    Duration::cycles(latency),
                    Some(data_limit),
                    Some(ctrl_limit),
                );
                let mut now = Cycle::ZERO;
                let mut last = Cycle::ZERO;
                for ((vc_sel, bytes), advance) in ops {
                    now = Cycle::new(now.as_u64() + advance);
                    let parts = [(ByteSize::new(bytes), TrafficClass::Data)];
                    if vc_sel == 0 {
                        let done = match srv.serve_parts(Vc::Data, now, &parts) {
                            Ok(t) => t.done,
                            Err(busy) => {
                                prop_assert!(
                                    busy.retry_at > now,
                                    "Busy must name a strictly-later cycle"
                                );
                                srv.serve_parts(Vc::Data, busy.retry_at, &parts)
                                    .expect("retry at the named cycle finds a credit")
                                    .done
                            }
                        };
                        last = last.max(done);
                    } else {
                        // Ctrl path is infallible by construction: finite
                        // credits stall the sender instead of rejecting.
                        let t = srv.serve_parts_blocking(Vc::Ctrl, now, &parts);
                        last = last.max(t.done);
                    }
                }
                srv.settle(last);
                for vc in [Vc::Data, Vc::Ctrl] {
                    prop_assert_eq!(srv.credits_issued(vc), srv.credits_returned(vc));
                    prop_assert_eq!(srv.credits_issued(vc), srv.grants(vc));
                    prop_assert_eq!(srv.occupancy(vc, last), 0);
                }
            }
        }
    }
}
