//! Timed-server substrate: one serialized port, with an occupancy ledger
//! only where an observer reads one.
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
//! the counters a co-located observer reads off a port: grants issued
//! and bytes served. Service never rejects: a request returns the cycle
//! its last byte clears the server.
//!
//! Messages still in service ([`TimedServer::occupancy`]) need a ledger
//! of in-service completions, which only an observed run reads (the
//! timeline's per-port `queue_depth`). A server keeps one only when
//! built with [`TimedServer::with_occupancy_ledger`]; every other
//! server books without touching the heap. The ledger is pruned lazily
//! by time — every booking first drops the entries that completed by
//! `now` — so no completion callback wiring is needed.
//!
//! # Examples
//!
//! ```
//! use mgpu_sim::timeq::TimedServer;
//! use mgpu_sim::link::{TrafficClass, WireParts};
//! use mgpu_types::{ByteSize, Cycle, Duration};
//!
//! // 50 B/cy, 100 cy propagation, with an occupancy ledger.
//! let mut srv = TimedServer::new(50, Duration::cycles(100)).with_occupancy_ledger();
//! let line = WireParts::of(ByteSize::CACHELINE, TrafficClass::Data);
//! // 64 B serialize in ceil(64/50) = 2 cycles, then 100 cycles of flight.
//! assert_eq!(srv.serve_parts(Cycle::ZERO, &line), Cycle::new(2 + 100));
//! // A second line queues behind the first: byte-ticks 64..128 end in
//! // cycle 3.
//! assert_eq!(srv.serve_parts(Cycle::ZERO, &line), Cycle::new(3 + 100));
//! assert_eq!(srv.occupancy(Cycle::new(102)), Some(1));
//! // A server built without a ledger books the same but cannot count.
//! let mut bare = TimedServer::new(50, Duration::cycles(100));
//! assert_eq!(bare.serve_parts(Cycle::ZERO, &line), Cycle::new(2 + 100));
//! assert_eq!(bare.occupancy(Cycle::ZERO), None);
//! ```

use std::collections::VecDeque;

use crate::link::{TrafficClass, TrafficTotals, WireParts};
use mgpu_types::{ByteSize, Cycle, Duration};

/// One direction of a serialized port. See the module docs for the
/// timing model.
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
    /// Completion cycles of booked messages, nondecreasing (bookings
    /// are FIFO, so completions are monotone). Entries at or before the
    /// last booking's `now` have been pruned. `None` unless built
    /// [`with_occupancy_ledger`](Self::with_occupancy_ledger).
    in_flight: Option<VecDeque<Cycle>>,
    /// Messages booked so far (served or occupancy-only).
    grants: u64,
    /// Bytes served (`occupy` accounts no bytes, and background charges
    /// never queue). This is the per-port byte counter a co-located
    /// observer can read.
    served_bytes: u64,
}

impl TimedServer {
    /// A server over a `bytes_per_cycle`-wide port with `latency`
    /// propagation, keeping no occupancy ledger.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    #[must_use]
    pub fn new(bytes_per_cycle: u32, latency: Duration) -> Self {
        assert!(bytes_per_cycle > 0, "port bandwidth must be non-zero");
        TimedServer {
            bytes_per_cycle,
            latency,
            next_free_bt: 0,
            totals: TrafficTotals::default(),
            tampered_messages: 0,
            in_flight: None,
            grants: 0,
            served_bytes: 0,
        }
    }

    /// This server, keeping a ledger of in-service completions so that
    /// [`occupancy`](Self::occupancy) can count them. Every booking then
    /// also prunes and pushes the ledger.
    #[must_use]
    pub fn with_occupancy_ledger(mut self) -> Self {
        self.in_flight = Some(VecDeque::new());
        self
    }

    /// Occupancy-only service: books `bytes` onto the transmitter
    /// starting no earlier than `now` and returns when the last byte has
    /// left and propagated. Accounts no bytes — ingress ports use this,
    /// their bytes were counted at the egress they left.
    pub fn occupy(&mut self, now: Cycle, bytes: ByteSize) -> Cycle {
        let bw = u128::from(self.bytes_per_cycle);
        let begin = (u128::from(now.as_u64()) * bw).max(self.next_free_bt);
        self.next_free_bt = begin + u128::from(bytes.as_u64());
        let done = Cycle::new(self.next_free_bt.div_ceil(bw) as u64) + self.latency;
        if let Some(in_flight) = &mut self.in_flight {
            while in_flight.front().is_some_and(|&d| d <= now) {
                in_flight.pop_front();
            }
            in_flight.push_back(done);
        }
        self.grants += 1;
        done
    }

    /// Serves a single-class message of `bytes` at `now`, accounting the
    /// bytes to `class`. Returns the cycle the last byte clears the
    /// server.
    pub fn serve(&mut self, now: Cycle, bytes: ByteSize, class: TrafficClass) -> Cycle {
        self.totals.add(class, bytes);
        self.served_bytes += bytes.as_u64();
        self.occupy(now, bytes)
    }

    /// Serves a multi-part message at `now`: one booked transmission of
    /// all parts together, with per-class byte accounting. Returns the
    /// cycle the last byte clears the server.
    pub fn serve_parts(&mut self, now: Cycle, parts: &WireParts) -> Cycle {
        for (bytes, class) in parts.iter() {
            self.totals.add(class, bytes);
        }
        let total = parts.total();
        self.served_bytes += total.as_u64();
        self.occupy(now, total)
    }

    /// Accounts background traffic that does not queue (hop-scaled ctrl
    /// accounting). Used for bytes that in hardware interleave with the
    /// message stream; modelling them as queue-blocking would let a
    /// late-scheduled message delay an earlier one, an artifact of
    /// lifecycle-ordered processing.
    pub fn charge_background(&mut self, bytes: ByteSize, class: TrafficClass) {
        self.totals.add(class, bytes);
    }

    /// Booked messages still in service at `now` (non-mutating), or
    /// `None` for a server built without an occupancy ledger.
    #[must_use]
    pub fn occupancy(&self, now: Cycle) -> Option<u32> {
        let in_flight = self.in_flight.as_ref()?;
        Some(in_flight.iter().filter(|&&done| done > now).count() as u32)
    }

    /// Messages booked so far.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Bytes served so far (background charges and occupancy-only
    /// bookings excluded).
    #[must_use]
    pub fn served_bytes(&self) -> u64 {
        self.served_bytes
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

    fn parts(bytes: u64) -> WireParts {
        WireParts::of(ByteSize::new(bytes), TrafficClass::Data)
    }

    /// A part list built from `(bytes, class)` pairs.
    fn list(items: &[(u64, TrafficClass)]) -> WireParts {
        let mut parts = WireParts::new();
        for &(bytes, class) in items {
            parts.push(ByteSize::new(bytes), class);
        }
        parts
    }

    /// A 32 B/cy port with 10 cycles of propagation.
    fn port() -> TimedServer {
        TimedServer::new(32, Duration::cycles(10))
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
            let done = srv.serve_parts(start, &parts(bytes));
            assert_eq!(done, start + Duration::cycles(cycles + 10), "{bytes} B");
        }
    }

    #[test]
    fn messages_queue_fifo() {
        let mut srv = port();
        // Two 64 B messages at t=0: first occupies [0,2), second [2,4).
        assert_eq!(srv.serve_parts(Cycle::ZERO, &parts(64)), Cycle::new(12));
        assert_eq!(srv.serve_parts(Cycle::ZERO, &parts(64)), Cycle::new(14));
    }

    #[test]
    fn idle_port_does_not_queue() {
        let mut srv = port();
        srv.serve_parts(Cycle::ZERO, &parts(64));
        // Arriving long after the port drained: starts immediately.
        assert_eq!(
            srv.serve_parts(Cycle::new(100), &parts(32)),
            Cycle::new(111)
        );
    }

    #[test]
    fn multi_part_message_is_one_occupancy_with_per_class_accounting() {
        let mut srv = port();
        // 64+8+8+1 = 81 B -> ceil(81/32) = 3 cycles + 10 latency.
        let done = srv.serve_parts(
            Cycle::ZERO,
            &list(&[
                (64, TrafficClass::Data),
                (8, TrafficClass::Mac),
                (8, TrafficClass::Counter),
                (1, TrafficClass::SenderId),
            ]),
        );
        assert_eq!(done, Cycle::new(13));
        assert_eq!(srv.next_free(), Cycle::new(3));
        assert_eq!(srv.totals().get(TrafficClass::Data).as_u64(), 64);
        assert_eq!(srv.totals().metadata().as_u64(), 17);
        assert_eq!(srv.totals().total().as_u64(), 81);
    }

    #[test]
    fn single_part_serve_matches_a_one_part_list() {
        let (mut a, mut b) = (port(), port());
        for (i, bytes) in [64, 8, 100, 1].into_iter().enumerate() {
            let now = Cycle::new(i as u64);
            assert_eq!(
                a.serve(now, ByteSize::new(bytes), TrafficClass::Mac),
                b.serve_parts(now, &WireParts::of(ByteSize::new(bytes), TrafficClass::Mac))
            );
        }
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.served_bytes(), b.served_bytes());
        // A single part may exceed what a block part can hold.
        a.serve(Cycle::new(10), ByteSize::new(100_000), TrafficClass::Chaff);
        assert_eq!(a.totals().get(TrafficClass::Chaff).as_u64(), 100_000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_panics() {
        let _ = TimedServer::new(0, Duration::ZERO);
    }

    #[test]
    fn occupancy_counts_messages_still_in_service() {
        let mut srv = TimedServer::new(50, Duration::cycles(100)).with_occupancy_ledger();
        srv.serve_parts(Cycle::ZERO, &parts(64)); // done 102
        srv.serve_parts(Cycle::ZERO, &parts(64)); // done 103
        assert_eq!(srv.occupancy(Cycle::ZERO), Some(2));
        assert_eq!(srv.occupancy(Cycle::new(102)), Some(1));
        assert_eq!(srv.occupancy(Cycle::new(103)), Some(0));
        // A later booking prunes the completed entries.
        srv.serve_parts(Cycle::new(200), &parts(64));
        assert_eq!(srv.occupancy(Cycle::new(200)), Some(1));
        assert_eq!(srv.grants(), 3);
    }

    #[test]
    fn the_ledger_changes_no_timing_or_counter() {
        let (mut bare, mut kept) = (port(), port().with_occupancy_ledger());
        for i in 0..1_000u64 {
            let now = Cycle::new(i * 3 / 2);
            let msg = parts(1 + i % 97);
            assert_eq!(bare.serve_parts(now, &msg), kept.serve_parts(now, &msg));
            let bytes = ByteSize::new(i % 5);
            assert_eq!(bare.occupy(now, bytes), kept.occupy(now, bytes));
        }
        assert_eq!(bare.next_free(), kept.next_free());
        assert_eq!(bare.grants(), kept.grants());
        assert_eq!(bare.served_bytes(), kept.served_bytes());
        assert_eq!(bare.totals(), kept.totals());
        assert_eq!(bare.occupancy(Cycle::new(1_500)), None);
        assert!(kept.occupancy(Cycle::new(1_500)).is_some());
    }

    #[test]
    fn served_bytes_exclude_background_and_occupancy_only_bookings() {
        let mut srv = TimedServer::new(50, Duration::cycles(100));
        srv.serve_parts(Cycle::ZERO, &parts(64));
        srv.serve_parts(
            Cycle::ZERO,
            &list(&[(8, TrafficClass::Mac), (4, TrafficClass::Ack)]),
        );
        // Background charges are class-attributed but never queue.
        srv.charge_background(ByteSize::new(16), TrafficClass::Ack);
        assert_eq!(srv.served_bytes(), 76);
        // Occupancy-only service books the server but moves no bytes.
        assert_eq!(
            srv.occupy(Cycle::new(500), ByteSize::new(64)),
            Cycle::new(502 + 100)
        );
        assert_eq!(srv.served_bytes(), 76);
        assert_eq!(srv.grants(), 3);
        assert_eq!(srv.totals().total().as_u64(), 92);
    }
}
