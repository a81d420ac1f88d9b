//! Bandwidth-serialized interconnect link model.
//!
//! A [`Link`] is one direction of a full-duplex point-to-point channel
//! (PCIe lane group or NVLink brick). It models the two first-order effects
//! the paper's traffic analysis depends on:
//!
//! * **Serialization**: a message of `bytes` occupies the wire for
//!   `ceil(bytes / bytes_per_cycle)` cycles; messages queue behind one
//!   another.
//! * **Propagation latency**: a fixed pipeline delay added after
//!   serialization completes.
//!
//! The link also keeps per-category byte counters so experiments can split
//! traffic into data vs. security metadata (paper Figs. 12 and 23).

use mgpu_types::{ByteSize, Cycle, Duration};

/// Traffic categories for interconnect accounting.
///
/// `Data` is payload (cachelines and request headers that an unsecure
/// system would also send); the remaining categories are the security
/// metadata whose bandwidth cost the paper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Ciphertext payload plus baseline message headers.
    Data,
    /// Message counters (MsgCTR) travelling with each block.
    Counter,
    /// Message authentication codes, batched or unbatched.
    Mac,
    /// Sender identifiers.
    SenderId,
    /// Acknowledgements used for replay protection.
    Ack,
    /// Batch framing (the 1 B length header of the batching scheme).
    BatchHeader,
    /// Constant-rate shaping padding on the ctrl VC (the passive-observer
    /// defense). Never emitted unless `DefenseConfig::constant_rate` is
    /// on; accounted separately so the defense's bandwidth overhead is
    /// directly measurable.
    Chaff,
}

impl TrafficClass {
    /// All categories, for iteration in reports, in discriminant order
    /// (per-class counters are indexed by discriminant).
    pub const ALL: [TrafficClass; 7] = [
        TrafficClass::Data,
        TrafficClass::Counter,
        TrafficClass::Mac,
        TrafficClass::SenderId,
        TrafficClass::Ack,
        TrafficClass::BatchHeader,
        TrafficClass::Chaff,
    ];

    /// Whether this category is security metadata (everything but data).
    #[must_use]
    pub fn is_metadata(self) -> bool {
        !matches!(self, TrafficClass::Data)
    }
}

/// A block's wire components travelling together, stored inline.
///
/// The engine's per-block hot path (NIC prepare → egress event → per-hop
/// transit) carries at most [`WireParts::CAPACITY`] parts (payload,
/// counter, MAC/batch framing, sender ID), so a fixed-capacity `Copy`
/// array replaces the `Vec` that used to cost one heap allocation per
/// transmitted block.
///
/// # Examples
///
/// ```
/// use mgpu_sim::link::{TrafficClass, WireParts};
/// use mgpu_types::ByteSize;
///
/// let mut parts = WireParts::of(ByteSize::new(72), TrafficClass::Data);
/// parts.push(ByteSize::new(8), TrafficClass::Mac);
/// assert_eq!(parts.len(), 2);
/// assert_eq!(parts.total(), ByteSize::new(80));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireParts {
    len: u8,
    items: [(ByteSize, TrafficClass); WireParts::CAPACITY],
}

impl WireParts {
    /// Maximum parts one block can carry (data + counter/sender-id +
    /// batch header + MAC).
    pub const CAPACITY: usize = 4;

    /// Creates an empty part list.
    #[must_use]
    pub fn new() -> Self {
        WireParts {
            len: 0,
            items: [(ByteSize::ZERO, TrafficClass::Data); WireParts::CAPACITY],
        }
    }

    /// Creates a single-part list.
    #[must_use]
    pub fn of(bytes: ByteSize, class: TrafficClass) -> Self {
        let mut parts = WireParts::new();
        parts.push(bytes, class);
        parts
    }

    /// Appends a part.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`WireParts::CAPACITY`] parts.
    pub fn push(&mut self, bytes: ByteSize, class: TrafficClass) {
        let slot = usize::from(self.len);
        assert!(slot < WireParts::CAPACITY, "wire part capacity exceeded");
        self.items[slot] = (bytes, class);
        self.len += 1;
    }

    /// The parts as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[(ByteSize, TrafficClass)] {
        &self.items[..usize::from(self.len)]
    }

    /// Total bytes across all parts.
    #[must_use]
    pub fn total(&self) -> ByteSize {
        self.as_slice().iter().map(|(b, _)| *b).sum()
    }
}

impl Default for WireParts {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for WireParts {
    type Target = [(ByteSize, TrafficClass)];

    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

/// Per-class byte counters accumulated by a link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    counts: [u64; TrafficClass::ALL.len()],
}

impl TrafficTotals {
    /// Counter slot of `class`: its discriminant, which is its position
    /// in [`TrafficClass::ALL`].
    fn index(class: TrafficClass) -> usize {
        class as usize
    }

    /// Adds `bytes` to `class`.
    pub fn add(&mut self, class: TrafficClass, bytes: ByteSize) {
        self.counts[Self::index(class)] += bytes.as_u64();
    }

    /// Bytes recorded for `class`.
    #[must_use]
    pub fn get(&self, class: TrafficClass) -> ByteSize {
        ByteSize::new(self.counts[Self::index(class)])
    }

    /// Total bytes across all classes.
    #[must_use]
    pub fn total(&self) -> ByteSize {
        ByteSize::new(self.counts.iter().sum())
    }

    /// Bytes of security metadata (all classes except data).
    #[must_use]
    pub fn metadata(&self) -> ByteSize {
        ByteSize::new(
            TrafficClass::ALL
                .iter()
                .filter(|c| c.is_metadata())
                .map(|&c| self.counts[Self::index(c)])
                .sum(),
        )
    }

    /// Merges another set of totals into this one.
    pub fn merge(&mut self, other: &TrafficTotals) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// One direction of a point-to-point interconnect link.
///
/// # Examples
///
/// ```
/// use mgpu_sim::link::{Link, TrafficClass};
/// use mgpu_types::{ByteSize, Cycle, Duration};
///
/// // A 50 B/cycle NVLink-class link with 100-cycle propagation delay.
/// let mut link = Link::new(50, Duration::cycles(100));
/// let arrival = link.transmit(Cycle::ZERO, ByteSize::new(64), TrafficClass::Data);
/// // 64 B serialize in ceil(64/50) = 2 cycles, then 100 cycles of flight.
/// assert_eq!(arrival, Cycle::new(102));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    bytes_per_cycle: u32,
    latency: Duration,
    /// Transmitter occupancy in *byte-ticks* (cycles × bandwidth): byte
    /// granularity lets back-to-back messages pack tightly, so every
    /// metadata byte genuinely consumes bandwidth instead of hiding in
    /// per-message rounding.
    next_free_bt: u128,
    totals: TrafficTotals,
    /// Total bytes that occupied the transmitter, for utilization
    /// reporting.
    busy_bytes: u64,
    /// Wire crossings on this link that an adversary tampered with
    /// (replayed, flipped, forged or dropped messages).
    tampered_messages: u64,
}

impl Link {
    /// Creates a link with the given serialization bandwidth and
    /// propagation latency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    #[must_use]
    pub fn new(bytes_per_cycle: u32, latency: Duration) -> Self {
        assert!(bytes_per_cycle > 0, "link bandwidth must be non-zero");
        Link {
            bytes_per_cycle,
            latency,
            next_free_bt: 0,
            totals: TrafficTotals::default(),
            busy_bytes: 0,
            tampered_messages: 0,
        }
    }

    /// Books `bytes` onto the transmitter starting no earlier than `now`;
    /// returns the cycle the last byte leaves.
    fn book(&mut self, now: Cycle, bytes: ByteSize) -> Cycle {
        let bw = u128::from(self.bytes_per_cycle);
        let start = (u128::from(now.as_u64()) * bw).max(self.next_free_bt);
        let end = start + u128::from(bytes.as_u64());
        self.next_free_bt = end;
        self.busy_bytes += bytes.as_u64();
        Cycle::new(end.div_ceil(bw) as u64)
    }

    /// Cycles needed to serialize `bytes` onto the wire.
    #[must_use]
    pub fn serialization_delay(&self, bytes: ByteSize) -> Duration {
        Duration::cycles(bytes.as_u64().div_ceil(u64::from(self.bytes_per_cycle)))
    }

    /// Transmits a message handed to the link at time `now`; returns the
    /// cycle at which the last byte arrives at the far end.
    ///
    /// Messages queue FIFO behind earlier transmissions; bytes are counted
    /// under `class` for traffic reports.
    pub fn transmit(&mut self, now: Cycle, bytes: ByteSize, class: TrafficClass) -> Cycle {
        self.totals.add(class, bytes);
        self.book(now, bytes) + self.latency
    }

    /// Transmits a multi-part message whose parts travel together (one
    /// serialization occupancy, per-class accounting). Returns arrival time
    /// of the whole message.
    pub fn transmit_parts(&mut self, now: Cycle, parts: &[(ByteSize, TrafficClass)]) -> Cycle {
        let total: ByteSize = parts.iter().map(|(b, _)| *b).sum();
        for &(bytes, class) in parts {
            self.totals.add(class, bytes);
        }
        self.book(now, total) + self.latency
    }

    /// Serializes `bytes` through the link *without* traffic accounting —
    /// used by ingress ports, whose bytes were already counted at the
    /// egress port they left. Returns when the last byte is through.
    pub fn occupy(&mut self, now: Cycle, bytes: ByteSize) -> Cycle {
        self.book(now, bytes) + self.latency
    }

    /// Charges `bytes` of background traffic to the link: the bytes are
    /// counted (traffic totals, busy time) but do not occupy the FIFO
    /// queue. Used for small reverse-direction messages (ACKs) that in
    /// hardware interleave with the request stream; modeling them as
    /// queue-blocking would let a late-scheduled ACK delay an earlier
    /// request, an artifact of lifecycle-ordered processing.
    pub fn charge_background(&mut self, bytes: ByteSize, class: TrafficClass) {
        self.busy_bytes += bytes.as_u64();
        self.totals.add(class, bytes);
    }

    /// When the transmitter next becomes free (queue head time).
    #[must_use]
    pub fn next_free(&self) -> Cycle {
        Cycle::new(self.next_free_bt.div_ceil(u128::from(self.bytes_per_cycle)) as u64)
    }

    /// Accumulated per-class traffic.
    #[must_use]
    pub fn totals(&self) -> &TrafficTotals {
        &self.totals
    }

    /// Total busy (transmitting) cycles, rounded up from the exact byte
    /// count.
    #[must_use]
    pub fn busy_cycles(&self) -> Duration {
        Duration::cycles(self.busy_bytes.div_ceil(u64::from(self.bytes_per_cycle)))
    }

    /// Link bandwidth in bytes per cycle.
    #[must_use]
    pub fn bandwidth(&self) -> u32 {
        self.bytes_per_cycle
    }

    /// Propagation latency of this link — the minimum time any message
    /// spends in flight, independent of serialization.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Records `n` adversary-tampered crossings on this link. Tampering
    /// does not change the timing model (the attacker rewrites bytes in
    /// flight); the counter feeds security reporting.
    pub fn note_tampered(&mut self, n: u64) {
        self.tampered_messages += n;
    }

    /// Wire crossings on this link the adversary tampered with.
    #[must_use]
    pub fn tampered_messages(&self) -> u64 {
        self.tampered_messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(32, Duration::cycles(10))
    }

    #[test]
    fn serialization_rounds_up() {
        let l = link();
        assert_eq!(l.serialization_delay(ByteSize::new(0)), Duration::ZERO);
        assert_eq!(l.serialization_delay(ByteSize::new(1)), Duration::cycles(1));
        assert_eq!(
            l.serialization_delay(ByteSize::new(32)),
            Duration::cycles(1)
        );
        assert_eq!(
            l.serialization_delay(ByteSize::new(33)),
            Duration::cycles(2)
        );
        assert_eq!(
            l.serialization_delay(ByteSize::new(64)),
            Duration::cycles(2)
        );
    }

    #[test]
    fn messages_queue_fifo() {
        let mut l = link();
        // Two 64 B messages at t=0: first occupies [0,2), second [2,4).
        let a = l.transmit(Cycle::ZERO, ByteSize::new(64), TrafficClass::Data);
        let b = l.transmit(Cycle::ZERO, ByteSize::new(64), TrafficClass::Data);
        assert_eq!(a, Cycle::new(12));
        assert_eq!(b, Cycle::new(14));
    }

    #[test]
    fn idle_link_does_not_queue() {
        let mut l = link();
        l.transmit(Cycle::ZERO, ByteSize::new(64), TrafficClass::Data);
        // Arriving long after the link drained: starts immediately.
        let c = l.transmit(Cycle::new(100), ByteSize::new(32), TrafficClass::Data);
        assert_eq!(c, Cycle::new(111));
    }

    #[test]
    fn traffic_accounting_by_class() {
        let mut l = link();
        l.transmit(Cycle::ZERO, ByteSize::new(64), TrafficClass::Data);
        l.transmit(Cycle::ZERO, ByteSize::new(8), TrafficClass::Mac);
        l.transmit(Cycle::ZERO, ByteSize::new(8), TrafficClass::Counter);
        l.transmit(Cycle::ZERO, ByteSize::new(1), TrafficClass::SenderId);
        assert_eq!(l.totals().get(TrafficClass::Data).as_u64(), 64);
        assert_eq!(l.totals().metadata().as_u64(), 17);
        assert_eq!(l.totals().total().as_u64(), 81);
    }

    #[test]
    fn transmit_parts_single_occupancy() {
        let mut l = link();
        // 64+8+8+1 = 81 B -> ceil(81/32) = 3 cycles + 10 latency.
        let arrival = l.transmit_parts(
            Cycle::ZERO,
            &[
                (ByteSize::new(64), TrafficClass::Data),
                (ByteSize::new(8), TrafficClass::Mac),
                (ByteSize::new(8), TrafficClass::Counter),
                (ByteSize::new(1), TrafficClass::SenderId),
            ],
        );
        assert_eq!(arrival, Cycle::new(13));
        assert_eq!(l.busy_cycles(), Duration::cycles(3));
        assert_eq!(l.totals().total().as_u64(), 81);
    }

    #[test]
    fn busy_cycles_accumulate() {
        let mut l = link();
        l.transmit(Cycle::ZERO, ByteSize::new(64), TrafficClass::Data);
        l.transmit(Cycle::new(50), ByteSize::new(64), TrafficClass::Data);
        assert_eq!(l.busy_cycles(), Duration::cycles(4));
    }

    #[test]
    fn totals_merge() {
        let mut a = TrafficTotals::default();
        let mut b = TrafficTotals::default();
        a.add(TrafficClass::Data, ByteSize::new(10));
        b.add(TrafficClass::Data, ByteSize::new(5));
        b.add(TrafficClass::Ack, ByteSize::new(16));
        a.merge(&b);
        assert_eq!(a.get(TrafficClass::Data).as_u64(), 15);
        assert_eq!(a.get(TrafficClass::Ack).as_u64(), 16);
        assert_eq!(a.total().as_u64(), 31);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_panics() {
        let _ = Link::new(0, Duration::ZERO);
    }

    #[test]
    fn all_lists_classes_in_discriminant_order() {
        for (i, class) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(*class as usize, i, "{class:?}");
        }
    }

    #[test]
    fn metadata_classification() {
        assert!(!TrafficClass::Data.is_metadata());
        for c in TrafficClass::ALL.iter().skip(1) {
            assert!(c.is_metadata());
        }
    }
}
