//! What travels over the interconnect and how it is counted.
//!
//! [`TrafficClass`] splits wire bytes into payload and the security
//! metadata categories whose bandwidth cost the paper measures (Figs. 12
//! and 23), [`WireParts`] is one block's inline list of classed parts,
//! and [`TrafficTotals`] holds per-class byte counters. The ports that
//! serialize these bytes are [`crate::timeq::TimedServer`]s.

use mgpu_types::ByteSize;

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
/// transmitted block. Block parts are fixed wire-format fields of at most
/// a header plus a cacheline, so sizes are stored as `u16` and the whole
/// list is 14 bytes — it is kept once per block for the entire run.
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
    sizes: [u16; WireParts::CAPACITY],
    classes: [TrafficClass; WireParts::CAPACITY],
    len: u8,
}

// Stored once per block for the whole run (see the type docs).
const _: () = assert!(std::mem::size_of::<WireParts>() <= 16);

impl WireParts {
    /// Maximum parts one block can carry (data + counter/sender-id +
    /// batch header + MAC).
    pub const CAPACITY: usize = 4;

    /// Creates an empty part list.
    #[must_use]
    pub fn new() -> Self {
        WireParts {
            sizes: [0; WireParts::CAPACITY],
            classes: [TrafficClass::Data; WireParts::CAPACITY],
            len: 0,
        }
    }

    /// Creates a single-part list.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `u16::MAX`.
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
    /// Panics if the list already holds [`WireParts::CAPACITY`] parts, or
    /// if `bytes` exceeds `u16::MAX`.
    pub fn push(&mut self, bytes: ByteSize, class: TrafficClass) {
        let slot = usize::from(self.len);
        assert!(slot < WireParts::CAPACITY, "wire part capacity exceeded");
        self.sizes[slot] = u16::try_from(bytes.as_u64()).expect("wire part size fits u16");
        self.classes[slot] = class;
        self.len += 1;
    }

    /// Number of parts.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the list holds no parts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The parts, in push order.
    pub fn iter(&self) -> impl Iterator<Item = (ByteSize, TrafficClass)> + '_ {
        self.sizes[..self.len()]
            .iter()
            .zip(&self.classes)
            .map(|(&bytes, &class)| (ByteSize::new(u64::from(bytes)), class))
    }

    /// Total bytes across all parts.
    #[must_use]
    pub fn total(&self) -> ByteSize {
        self.iter().map(|(b, _)| b).sum()
    }
}

impl Default for WireParts {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-class byte counters accumulated by a port.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn all_lists_classes_in_discriminant_order() {
        for (i, class) in TrafficClass::ALL.iter().enumerate() {
            assert_eq!(*class as usize, i, "{class:?}");
        }
    }

    #[test]
    fn parts_iterate_in_push_order() {
        let mut parts = WireParts::new();
        assert!(parts.is_empty());
        parts.push(ByteSize::new(72), TrafficClass::Data);
        parts.push(ByteSize::new(9), TrafficClass::Counter);
        parts.push(ByteSize::new(u64::from(u16::MAX)), TrafficClass::Mac);
        let got: Vec<_> = parts.iter().collect();
        assert_eq!(
            got,
            [
                (ByteSize::new(72), TrafficClass::Data),
                (ByteSize::new(9), TrafficClass::Counter),
                (ByteSize::new(65_535), TrafficClass::Mac),
            ]
        );
        assert_eq!(parts.total(), ByteSize::new(72 + 9 + 65_535));
    }

    #[test]
    #[should_panic(expected = "fits u16")]
    fn oversized_part_panics() {
        let _ = WireParts::of(ByteSize::new(1 << 16), TrafficClass::Data);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn fifth_part_panics() {
        let mut parts = WireParts::new();
        for _ in 0..=WireParts::CAPACITY {
            parts.push(ByteSize::new(1), TrafficClass::Data);
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
