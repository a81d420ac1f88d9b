//! The routed data fabric: moves encrypted blocks hop by hop.
//!
//! [`Fabric`] owns the [`Topology`] and turns a block transmission into a
//! sequence of per-hop transit steps the event loop can schedule: a
//! [`Transit`] token starts at the block's source, [`Fabric::begin`]
//! books the source's egress port and moves the token onto the route;
//! each time the block's in-flight bytes reach a waypoint,
//! [`Fabric::advance`] either forwards them (books the waypoint's ingress
//! and egress ports — intermediate GPUs and switches only ever see
//! ciphertext; encryption, MACs and replay protection stay end-to-end
//! between the communicating NICs) or delivers them at the destination's
//! ingress port.
//!
//! On the paper's fully-connected fabric every route is one hop, so the
//! sequence degenerates to exactly the pre-fabric model: one egress
//! booking, one ingress booking, bit-identical timing.

use mgpu_sim::link::{TrafficClass, TrafficTotals, WireParts};
use mgpu_sim::timeq::Busy;
use mgpu_sim::topology::Topology;
use mgpu_types::{ByteSize, Cycle, NodeId, PairId, SystemConfig};

/// A block's position on its route across the fabric. `hop` is the
/// waypoint whose ingress port the bytes reach next (0 = still at the
/// source, 1 = first waypoint after it). The token holds no wire parts:
/// the caller keeps a block's parts once and passes them to every call,
/// so the token stays three words.
#[derive(Debug, Clone, Copy)]
pub struct Transit {
    pair: PairId,
    hop: u16,
    /// Set when this waypoint's ingress was already booked but the
    /// onward egress rejected for credits: the retry must not occupy
    /// the ingress port (and account its bytes) a second time.
    cleared_ingress: Option<Cycle>,
}

impl Transit {
    /// A block at `pair.src`, not yet handed to [`Fabric::begin`].
    #[must_use]
    pub fn new(pair: PairId) -> Self {
        Transit {
            pair,
            hop: 0,
            cleared_ingress: None,
        }
    }

    /// The endpoints this transit travels between.
    #[must_use]
    pub fn pair(&self) -> PairId {
        self.pair
    }
}

/// What happened when in-flight bytes reached their next waypoint.
#[derive(Debug, PartialEq, Eq)]
pub enum HopOutcome {
    /// An intermediate waypoint forwarded the bytes; they reach the next
    /// waypoint's ingress at `at`.
    Forwarded {
        /// Arrival time at the next waypoint.
        at: Cycle,
    },
    /// The waypoint's onward egress is out of data-VC credits: the
    /// typed backpressure reject. The bytes sit in the waypoint's
    /// ingress buffer (already booked, and remembered by the token, so
    /// the retry goes straight to egress); re-advance the token at
    /// `retry_at`, when the credit that blocked this hop frees.
    Blocked {
        /// Earliest cycle the needed egress credit frees.
        retry_at: Cycle,
    },
    /// The destination's ingress port finished clocking the bytes in at
    /// `at`; receive-side processing can start.
    Delivered {
        /// Time the last byte cleared the destination ingress.
        at: Cycle,
    },
}

/// The routed interconnect fabric of one simulation run.
#[derive(Debug)]
pub struct Fabric {
    topo: Topology,
}

impl Fabric {
    /// Builds the fabric for `config`'s topology.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        Fabric {
            topo: Topology::new(config),
        }
    }

    /// Starts a block transmission: books `transit.pair().src`'s egress
    /// port with `parts` (accounting the bytes to it), moves the token to
    /// the first waypoint and returns the bytes' arrival time there.
    pub fn begin(&mut self, transit: &mut Transit, now: Cycle, parts: &WireParts) -> Cycle {
        debug_assert_eq!(transit.hop, 0, "transit already departed");
        transit.hop = 1;
        self.topo.depart(transit.pair, 0, now, parts)
    }

    /// Non-mutating admission probe for [`Fabric::begin`]: is `pair`'s
    /// source egress granting data-VC credits at `now`? `Err` carries the
    /// exact retry cycle. Callers order irreversible side effects (ACK
    /// window reservations) *after* this check so a credit reject leaves
    /// nothing to unwind.
    pub fn egress_ready(&self, pair: PairId, now: Cycle) -> Result<(), Busy> {
        self.topo.egress_ready(pair, 0, now)
    }

    /// Advances in-flight bytes through the waypoint they just reached:
    /// books its ingress port, and — unless it is the destination — its
    /// egress port toward the next waypoint, moving the token on.
    pub fn advance(&mut self, transit: &mut Transit, now: Cycle, parts: &WireParts) -> HopOutcome {
        let hop = usize::from(transit.hop);
        // A retry after a credit reject already holds its ingress
        // booking: clocking the bytes in again would double-book the
        // port and double-count the bytes.
        let through = match transit.cleared_ingress.take() {
            Some(t) => t.max(now),
            None => self.topo.arrive(transit.pair, hop, now, parts.total()),
        };
        if hop == self.topo.hops(transit.pair) {
            return HopOutcome::Delivered { at: through };
        }
        match self.topo.try_depart(transit.pair, hop, through, parts) {
            Ok(at) => {
                transit.hop += 1;
                HopOutcome::Forwarded { at }
            }
            Err(busy) => {
                transit.cleared_ingress = Some(through);
                HopOutcome::Blocked {
                    retry_at: busy.retry_at,
                }
            }
        }
    }

    /// Transmits a small message on `pair`'s control VC (requests, batch
    /// trailers, ACKs); latency and byte accounting scale with the
    /// route's hop count.
    pub fn transmit_ctrl(
        &mut self,
        pair: PairId,
        now: Cycle,
        parts: &[(ByteSize, TrafficClass)],
    ) -> Cycle {
        self.topo.transmit_ctrl(pair, now, parts)
    }

    /// Records `n` adversary-tampered crossings against `src`'s egress.
    pub fn note_tampered_egress(&mut self, src: NodeId, n: u64) {
        self.topo.note_tampered_egress(src, n);
    }

    /// Per-hop traffic totals across all fabric ports and VCs.
    #[must_use]
    pub fn traffic_totals(&self) -> TrafficTotals {
        self.topo.traffic_totals()
    }

    /// Total adversary-tampered crossings.
    #[must_use]
    pub fn tampered_total(&self) -> u64 {
        self.topo.tampered_total()
    }

    /// The underlying topology (read-only, for reporting).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::TopologyKind;

    fn fabric(kind: TopologyKind, gpus: u16) -> Fabric {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.gpu_count = gpus;
        cfg.topology = kind;
        Fabric::new(&cfg)
    }

    #[test]
    fn single_hop_delivers_immediately() {
        let mut f = fabric(TopologyKind::FullyConnected, 4);
        let mut transit = Transit::new(PairId::new(NodeId::gpu(1), NodeId::gpu(2)));
        let parts = WireParts::of(ByteSize::CACHELINE, TrafficClass::Data);
        let at = f.begin(&mut transit, Cycle::ZERO, &parts);
        assert_eq!(at, Cycle::new(2 + 100)); // 64 B at 50 B/cy + latency
        assert_eq!(
            f.advance(&mut transit, at, &parts),
            HopOutcome::Delivered {
                at: Cycle::new(2 + 100 + 2)
            }
        );
    }

    #[test]
    fn ring_transit_forwards_then_delivers() {
        let mut f = fabric(TopologyKind::Ring, 8);
        let mut transit = Transit::new(PairId::new(NodeId::gpu(1), NodeId::gpu(3)));
        let parts = WireParts::of(ByteSize::CACHELINE, TrafficClass::Data);
        let at = f.begin(&mut transit, Cycle::ZERO, &parts);
        let HopOutcome::Forwarded { at } = f.advance(&mut transit, at, &parts) else {
            panic!("two-hop route must forward at GPU2");
        };
        let HopOutcome::Delivered { at } = f.advance(&mut transit, at, &parts) else {
            panic!("second hop is the destination");
        };
        // Two store-and-forward legs of (2 ser + 100 lat + 2 ingress).
        assert_eq!(at, Cycle::new(2 * 104));
        // Bytes charged once per hop.
        assert_eq!(f.traffic_totals().get(TrafficClass::Data).as_u64(), 128);
    }

    #[test]
    fn blocked_transit_retries_from_its_waypoint() {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.gpu_count = 8;
        cfg.topology = TopologyKind::Ring;
        cfg.flow.data_vc_credits = Some(1);
        let mut f = Fabric::new(&cfg);
        let parts = WireParts::of(ByteSize::CACHELINE, TrafficClass::Data);
        // The routed GPU1 -> GPU3 block reaches GPU2 at 102 and clears
        // its ingress at 104, but a local GPU2 -> GPU3 block departing at
        // 100 holds GPU2's only onward data credit until it lands at 202.
        let mut routed = Transit::new(PairId::new(NodeId::gpu(1), NodeId::gpu(3)));
        let mut local = Transit::new(PairId::new(NodeId::gpu(2), NodeId::gpu(3)));
        let at = f.begin(&mut routed, Cycle::ZERO, &parts);
        f.begin(&mut local, Cycle::new(100), &parts);
        assert_eq!(
            f.advance(&mut routed, at, &parts),
            HopOutcome::Blocked {
                retry_at: Cycle::new(202)
            }
        );
        // The retry goes straight to GPU2's egress (its ingress booking
        // is remembered), then delivers one leg later.
        let HopOutcome::Forwarded { at } = f.advance(&mut routed, Cycle::new(202), &parts) else {
            panic!("the freed credit lets the block forward");
        };
        assert_eq!(at, Cycle::new(202 + 2 + 100));
        assert_eq!(
            f.advance(&mut routed, at, &parts),
            HopOutcome::Delivered {
                at: Cycle::new(202 + 2 + 100 + 2)
            }
        );
    }

    #[test]
    fn transit_exposes_pair() {
        let pair = PairId::new(NodeId::gpu(2), NodeId::gpu(4));
        assert_eq!(Transit::new(pair).pair(), pair);
    }
}
