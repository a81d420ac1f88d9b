//! System topology: CPU hub plus a routed GPU interconnect fabric.
//!
//! The paper's target architecture (Fig. 2, Table III) connects every GPU
//! to the CPU over PCIe v4 (32 GB/s) and GPUs to each other over an
//! NVLink2-class fabric (50 GB/s). At the 1 GHz shader clock those are
//! 32 B/cycle and 50 B/cycle.
//!
//! Bandwidth is a *per-port* resource, as in real NVLink/PCIe systems: all
//! data a node sends shares its **egress port**, and all data it receives
//! shares its **ingress port** (CPU ports run at PCIe speed, GPU ports at
//! NVLink speed; a transfer is limited by the slower of the two ports it
//! crosses). Small request packets and trailing MACs travel on per-pair
//! **control virtual channels**, separate from bulk data — mirroring the
//! request/response VC split real interconnects use for protocol deadlock
//! freedom, and keeping tiny control messages from head-of-line blocking
//! behind bulk data in the FIFO occupancy model. Every port and VC is a
//! [`TimedServer`]; only the egress ports of an observed run
//! (`config.observability.enabled`) keep an occupancy ledger.
//!
//! The fabric shape is configurable ([`TopologyKind`]): fully connected
//! (the paper's evaluated system, every GPU pair one direct hop), a ring
//! (messages forward through intermediate GPUs), or a switch hierarchy
//! (messages cross leaf/root switch ports). Multi-hop shapes charge every
//! byte — payload *and* security metadata — once per hop crossed, so the
//! per-hop amplification of the metadata overhead is directly measurable
//! in [`Topology::traffic_totals`]. Routes come from a static
//! [`RoutingTable`]; intermediate hops only forward ciphertext, so the
//! fabric never needs keys (encryption, MACs and replay protection stay
//! end-to-end between the communicating pair).
//!
//! A data block crosses the fabric as a sequence of per-hop steps the
//! event loop schedules: a [`Transit`] token starts at the block's
//! source, [`Topology::begin`] books the source's egress port and moves
//! the token onto the route, and each time the bytes reach a waypoint
//! [`Topology::advance`] either forwards them (books the waypoint's
//! ingress and egress ports) or delivers them at the destination's
//! ingress port. On the fully-connected fabric every route is one hop:
//! one egress booking, one ingress booking.
//!
//! [`TopologyKind`]: mgpu_types::TopologyKind

use crate::link::{TrafficClass, TrafficTotals, WireParts};
use crate::routing::{RoutingTable, Waypoint};
use crate::timeq::TimedServer;
use mgpu_types::{
    ByteSize, Cycle, DenseNodeMap, Duration, NodeId, PairId, PairTable, SystemConfig,
};

/// A block's position on its route across the fabric. `hop` is the
/// waypoint whose ingress port the bytes reach next (0 = still at the
/// source, 1 = first waypoint after it). The token holds no wire parts:
/// the caller keeps a block's parts once and passes them to every call,
/// so the token stays one word.
#[derive(Debug, Clone, Copy)]
pub struct Transit {
    pair: PairId,
    hop: u16,
}

impl Transit {
    /// A block at `pair.src`, not yet handed to [`Topology::begin`].
    #[must_use]
    pub fn new(pair: PairId) -> Self {
        Transit { pair, hop: 0 }
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
    /// The destination's ingress port finished clocking the bytes in at
    /// `at`; receive-side processing can start.
    Delivered {
        /// Time the last byte cleared the destination ingress.
        at: Cycle,
    },
}

/// The full interconnect: per-waypoint data ports plus per-pair control
/// VCs, routed over the configured fabric shape.
///
/// # Examples
///
/// ```
/// use mgpu_sim::topology::{HopOutcome, Topology, Transit};
/// use mgpu_sim::link::{TrafficClass, WireParts};
/// use mgpu_types::{ByteSize, Cycle, NodeId, PairId, SystemConfig};
///
/// let mut topo = Topology::new(&SystemConfig::paper_4gpu());
/// let parts = WireParts::of(ByteSize::CACHELINE, TrafficClass::Data);
/// let mut transit = Transit::new(PairId::new(NodeId::gpu(1), NodeId::gpu(2)));
/// // 64 B leave GPU1's egress in 2 cycles and fly for 100...
/// let at = topo.begin(&mut transit, Cycle::ZERO, &parts);
/// assert_eq!(at, Cycle::new(102));
/// // ...then clock into GPU2's ingress in 2 more.
/// assert_eq!(
///     topo.advance(&mut transit, at, &parts),
///     HopOutcome::Delivered { at: Cycle::new(104) }
/// );
/// ```
#[derive(Debug)]
pub struct Topology {
    /// Outgoing data port per node (accounts traffic totals; every hop's
    /// bytes are charged to the port they leave through). Dense-indexed by
    /// node id — port lookups sit on the per-hop transmit path.
    node_egress: DenseNodeMap<TimedServer>,
    /// Incoming data port per node (occupancy only; zero latency so each
    /// hop's propagation delay is charged once, at its egress).
    node_ingress: DenseNodeMap<TimedServer>,
    /// Outgoing data port per switch, indexed by switch number.
    switch_egress: Vec<TimedServer>,
    /// Incoming data port per switch, indexed by switch number.
    switch_ingress: Vec<TimedServer>,
    /// Small-message control VC per directed pair. Multi-hop pairs get a
    /// hop-scaled propagation latency and hop-scaled byte accounting.
    ctrl: PairTable<TimedServer>,
    routes: RoutingTable,
}

impl Topology {
    /// Builds the topology for `config`.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        let routes = RoutingTable::new(config.topology, config.gpu_count);
        // Only an observed run reads occupancy, and only off egress
        // ports (the timeline's `queue_depth`); every other port books
        // without a ledger.
        let egress = |bw: u32| {
            let port = TimedServer::new(bw, config.link_latency);
            if config.observability.enabled {
                port.with_occupancy_ledger()
            } else {
                port
            }
        };
        let mut node_egress = DenseNodeMap::with_gpu_count(config.gpu_count);
        let mut node_ingress = DenseNodeMap::with_gpu_count(config.gpu_count);
        let mut ctrl = PairTable::new();
        for node in NodeId::all(config.gpu_count) {
            let port_bw = if node.is_cpu() {
                config.pcie_bytes_per_cycle
            } else {
                config.gpu_link_bytes_per_cycle
            };
            node_egress.insert(node, egress(port_bw));
            node_ingress.insert(node, TimedServer::new(port_bw, Duration::ZERO));
            for dst in node.peers(config.gpu_count) {
                let pair = PairId::new(node, dst);
                let bw = if pair.involves_cpu() {
                    config.pcie_bytes_per_cycle
                } else {
                    config.gpu_link_bytes_per_cycle
                };
                let hops = routes.hops(pair) as u64;
                let latency = Duration::cycles(config.link_latency.as_u64() * hops);
                ctrl.insert(pair, TimedServer::new(bw, latency));
            }
        }
        // Switch ports run at fabric (NVLink) speed.
        let switch_egress = (0..routes.switch_count())
            .map(|_| egress(config.gpu_link_bytes_per_cycle))
            .collect();
        let switch_ingress = (0..routes.switch_count())
            .map(|_| TimedServer::new(config.gpu_link_bytes_per_cycle, Duration::ZERO))
            .collect();
        Topology {
            node_egress,
            node_ingress,
            switch_egress,
            switch_ingress,
            ctrl,
            routes,
        }
    }

    /// The egress port of waypoint `w` (hot path: O(1) dense index).
    fn egress_mut(&mut self, w: Waypoint) -> &mut TimedServer {
        match w {
            Waypoint::Node(n) => self.node_egress.get_mut(n).expect("waypoint within fabric"),
            Waypoint::Switch(s) => self
                .switch_egress
                .get_mut(usize::from(s))
                .expect("waypoint within fabric"),
        }
    }

    /// The ingress port of waypoint `w` (hot path: O(1) dense index).
    fn ingress_mut(&mut self, w: Waypoint) -> &mut TimedServer {
        match w {
            Waypoint::Node(n) => self
                .node_ingress
                .get_mut(n)
                .expect("waypoint within fabric"),
            Waypoint::Switch(s) => self
                .switch_ingress
                .get_mut(usize::from(s))
                .expect("waypoint within fabric"),
        }
    }

    /// Links a message from `pair.src` to `pair.dst` crosses.
    ///
    /// # Panics
    ///
    /// Panics if `pair` references a node outside the system.
    #[must_use]
    pub fn hops(&self, pair: PairId) -> usize {
        self.routes.hops(pair)
    }

    /// The control VC for `pair`.
    ///
    /// # Panics
    ///
    /// Panics if `pair` references a node outside the system.
    #[must_use]
    pub fn ctrl(&self, pair: PairId) -> &TimedServer {
        self.ctrl.get(pair).expect("pair within system")
    }

    /// Starts a block transmission: books `transit.pair().src`'s egress
    /// port with `parts` (accounting the bytes to it — per-hop accounting
    /// is what makes shared-link metadata amplification measurable),
    /// moves the token to the first waypoint and returns the bytes'
    /// arrival time there.
    ///
    /// # Panics
    ///
    /// Panics if `transit`'s pair references a node outside the system.
    pub fn begin(&mut self, transit: &mut Transit, now: Cycle, parts: &WireParts) -> Cycle {
        debug_assert_eq!(transit.hop, 0, "transit already departed");
        transit.hop = 1;
        self.egress_mut(Waypoint::Node(transit.pair.src))
            .serve_parts(now, parts)
    }

    /// Advances in-flight bytes through the waypoint they just reached:
    /// books its ingress port (occupancy only — the bytes were counted at
    /// the egress they left), and — unless it is the destination — its
    /// egress port toward the next waypoint, moving the token on.
    /// Intermediate GPUs and switches only ever see ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if `transit` was not started with [`Topology::begin`] or
    /// was already delivered.
    pub fn advance(&mut self, transit: &mut Transit, now: Cycle, parts: &WireParts) -> HopOutcome {
        let hop = usize::from(transit.hop);
        let route = self.routes.route(transit.pair);
        debug_assert!(hop >= 1, "transit not begun");
        let (here, last) = (route[hop], route.len() - 1);
        let through = self.ingress_mut(here).occupy(now, parts.total());
        if hop == last {
            return HopOutcome::Delivered { at: through };
        }
        transit.hop += 1;
        HopOutcome::Forwarded {
            at: self.egress_mut(here).serve_parts(through, parts),
        }
    }

    /// Transmits a message over the pair's control VC (requests, trailing
    /// MACs, ACKs, chaff): one part of `bytes` in `class`. The VC's
    /// propagation latency covers the whole route; on multi-hop pairs the
    /// bytes are additionally charged once per extra hop so control
    /// metadata shows the same per-hop amplification as data.
    ///
    /// # Panics
    ///
    /// Panics if `pair` references a node outside the system.
    pub fn transmit_ctrl(
        &mut self,
        pair: PairId,
        now: Cycle,
        bytes: ByteSize,
        class: TrafficClass,
    ) -> Cycle {
        let hops = self.routes.hops(pair) as u64;
        let vc = self.ctrl.get_mut(pair).expect("pair within system");
        let arrival = vc.serve(now, bytes, class);
        if hops > 1 {
            vc.charge_background(bytes * (hops - 1), class);
        }
        arrival
    }

    /// Aggregated traffic totals across the system, counted **per hop**:
    /// data bytes are accounted at every egress port they cross (node and
    /// switch); control/ACK bytes at their VC, scaled by route length.
    #[must_use]
    pub fn traffic_totals(&self) -> TrafficTotals {
        let mut totals = TrafficTotals::default();
        for link in self
            .node_egress
            .values()
            .chain(self.switch_egress.iter())
            .chain(self.ctrl.values())
        {
            totals.merge(link.totals());
        }
        totals
    }

    /// Records `n` adversary-tampered crossings against `src`'s egress
    /// port. All of a node's injected faults are charged to its egress
    /// link regardless of which message leg (block, trailer or returning
    /// ACK) was hit — a deliberate simplification that keeps per-node
    /// attribution without per-leg bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `src` is outside the system.
    pub fn note_tampered_egress(&mut self, src: NodeId, n: u64) {
        self.node_egress
            .get_mut(src)
            .expect("src within system")
            .note_tampered(n);
    }

    /// Total adversary-tampered crossings across all egress ports.
    #[must_use]
    pub fn tampered_total(&self) -> u64 {
        self.node_egress
            .values()
            .chain(self.switch_egress.iter())
            .map(TimedServer::tampered_messages)
            .sum()
    }

    /// Iterates over `(node, egress port)` entries in ascending node
    /// order — the per-node data-traffic breakdown (switch ports excluded;
    /// see [`Topology::iter_switch_egress`]).
    pub fn iter_egress(&self) -> impl Iterator<Item = (NodeId, &TimedServer)> {
        self.node_egress.iter()
    }

    /// Iterates over `(switch, egress port)` entries in switch order —
    /// the per-switch forwarding-traffic breakdown (empty outside
    /// [`TopologyKind::Switch`](mgpu_types::TopologyKind::Switch)).
    pub fn iter_switch_egress(&self) -> impl Iterator<Item = (u16, &TimedServer)> {
        self.switch_egress
            .iter()
            .enumerate()
            .map(|(s, srv)| (s as u16, srv))
    }

    /// Control-VC bytes granted so far on pairs leaving `src`, summed
    /// over every peer. All of a node's control messages share its
    /// physical port even though they ride per-pair VCs, so this sum is
    /// the byte counter a tap co-located on that port would read
    /// (chaff included — shaping padding is indistinguishable on the
    /// wire).
    #[must_use]
    pub fn ctrl_bytes_from(&self, src: NodeId) -> u64 {
        self.ctrl
            .iter()
            .filter(|(pair, _)| pair.src == src)
            .map(|(_, vc)| vc.served_bytes())
            .sum()
    }

    /// Control-VC grants issued so far on pairs leaving `src` — the
    /// count of serviced control messages visible at the node's port.
    #[must_use]
    pub fn ctrl_grants_from(&self, src: NodeId) -> u64 {
        self.ctrl
            .iter()
            .filter(|(pair, _)| pair.src == src)
            .map(|(_, vc)| vc.grants())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::TopologyKind;

    /// The paper's 4-GPU fully-connected system.
    fn paper_topo() -> Topology {
        Topology::new(&SystemConfig::paper_4gpu())
    }

    /// A paper-parameter system with `gpus` GPUs on `kind`.
    fn topo_for(kind: TopologyKind, gpus: u16) -> Topology {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.gpu_count = gpus;
        cfg.topology = kind;
        Topology::new(&cfg)
    }

    fn data(bytes: u64) -> WireParts {
        WireParts::of(ByteSize::new(bytes), TrafficClass::Data)
    }

    /// Drives one block from `pair.src` to `pair.dst` through the
    /// engine's own `begin`/`advance` path, hop after hop, and returns
    /// when it clears the destination ingress.
    fn send(topo: &mut Topology, pair: PairId, now: Cycle, parts: &WireParts) -> Cycle {
        let mut transit = Transit::new(pair);
        let mut at = topo.begin(&mut transit, now, parts);
        loop {
            match topo.advance(&mut transit, at, parts) {
                HopOutcome::Forwarded { at: next } => at = next,
                HopOutcome::Delivered { at } => return at,
            }
        }
    }

    #[test]
    fn only_observed_egress_ports_keep_an_occupancy_ledger() {
        for kind in [
            TopologyKind::FullyConnected,
            TopologyKind::Switch { radix: 4 },
        ] {
            let mut cfg = SystemConfig::paper_4gpu();
            cfg.gpu_count = 8;
            cfg.topology = kind;
            for observed in [false, true] {
                cfg.observability.enabled = observed;
                let topo = Topology::new(&cfg);
                let egress: Vec<&TimedServer> = topo
                    .iter_egress()
                    .map(|(_, p)| p)
                    .chain(topo.iter_switch_egress().map(|(_, p)| p))
                    .collect();
                assert_eq!(
                    egress.len(),
                    9 + usize::from(topo.routes.switch_count()),
                    "{kind:?}"
                );
                for port in egress {
                    assert_eq!(port.occupancy(Cycle::ZERO).is_some(), observed);
                }
                let others = topo
                    .node_ingress
                    .values()
                    .chain(&topo.switch_ingress)
                    .chain(topo.ctrl.values());
                for port in others {
                    assert_eq!(port.occupancy(Cycle::ZERO), None);
                }
            }
        }
    }

    #[test]
    fn four_gpu_port_counts() {
        let topo = paper_topo();
        assert_eq!(topo.iter_egress().count(), 5);
        assert_eq!(topo.iter_switch_egress().count(), 0);
    }

    #[test]
    fn port_speeds_follow_node_kind() {
        let mut topo = paper_topo();
        let (cpu, g1, g2) = (NodeId::CPU, NodeId::gpu(1), NodeId::gpu(2));
        let (msg, mac) = (ByteSize::new(100), TrafficClass::Mac);
        // Control VCs: 100 B at 32 B/cy (4 cy) vs 50 B/cy (2 cy), + 100.
        let pcie = topo.transmit_ctrl(PairId::new(cpu, g1), Cycle::ZERO, msg, mac);
        let nvlink = topo.transmit_ctrl(PairId::new(g1, g2), Cycle::ZERO, msg, mac);
        assert_eq!(pcie, Cycle::new(4 + 100));
        assert_eq!(nvlink, Cycle::new(2 + 100));
        // Data: the CPU egress serializes at PCIe speed, the GPU ingress
        // at NVLink speed.
        let at = send(&mut topo, PairId::new(cpu, g1), Cycle::ZERO, &data(100));
        assert_eq!(at, Cycle::new(4 + 100 + 2));
    }

    #[test]
    fn single_hop_delivers_at_the_destination_ingress() {
        let mut topo = paper_topo();
        let mut transit = Transit::new(PairId::new(NodeId::gpu(1), NodeId::gpu(2)));
        let parts = data(64);
        let at = topo.begin(&mut transit, Cycle::ZERO, &parts);
        assert_eq!(at, Cycle::new(2 + 100)); // 64 B at 50 B/cy + latency
        assert_eq!(
            topo.advance(&mut transit, at, &parts),
            HopOutcome::Delivered {
                at: Cycle::new(2 + 100 + 2)
            }
        );
    }

    #[test]
    fn gpu_to_cpu_is_pcie_limited_at_ingress() {
        let mut topo = paper_topo();
        let pair = PairId::new(NodeId::gpu(1), NodeId::CPU);
        // 100 B: egress at 50 B/cy (2 cy) + 100 cy latency, then CPU
        // ingress at 32 B/cy (4 cy; 2 cy at NVLink speed).
        let arrival = send(&mut topo, pair, Cycle::ZERO, &data(100));
        assert_eq!(arrival, Cycle::new(2 + 100 + 4));
    }

    #[test]
    fn egress_port_is_shared_across_destinations() {
        let mut topo = paper_topo();
        // 500 B to GPU2 occupies GPU1's egress for 10 cycles.
        let to_gpu2 = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
        send(&mut topo, to_gpu2, Cycle::ZERO, &data(500));
        // A message to a *different* destination queues behind it.
        let to_gpu3 = PairId::new(NodeId::gpu(1), NodeId::gpu(3));
        let b = send(&mut topo, to_gpu3, Cycle::ZERO, &data(50));
        assert_eq!(b, Cycle::new(10 + 1 + 100 + 1));
    }

    #[test]
    fn ingress_port_is_shared_across_sources() {
        let mut topo = paper_topo();
        // Two 5000 B messages from different sources to GPU1 arriving
        // together: the second serializes behind the first at ingress.
        let from_gpu2 = PairId::new(NodeId::gpu(2), NodeId::gpu(1));
        let from_gpu3 = PairId::new(NodeId::gpu(3), NodeId::gpu(1));
        let a = send(&mut topo, from_gpu2, Cycle::ZERO, &data(5000));
        let b = send(&mut topo, from_gpu3, Cycle::ZERO, &data(5000));
        assert_eq!(a, Cycle::new(100 + 100 + 100));
        assert_eq!(b, Cycle::new(100 + 100 + 200));
    }

    #[test]
    fn ctrl_vc_does_not_contend_with_data() {
        let mut topo = paper_topo();
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
        for _ in 0..100 {
            send(&mut topo, pair, Cycle::ZERO, &data(64));
        }
        // A control message still goes through immediately.
        let arrival = topo.transmit_ctrl(pair, Cycle::ZERO, ByteSize::new(16), TrafficClass::Data);
        assert_eq!(arrival, Cycle::new(1 + 100));
    }

    #[test]
    fn traffic_totals_count_data_once() {
        let mut topo = paper_topo();
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
        send(&mut topo, pair, Cycle::ZERO, &data(64));
        topo.transmit_ctrl(pair, Cycle::ZERO, ByteSize::new(16), TrafficClass::Data);
        topo.transmit_ctrl(
            PairId::new(NodeId::gpu(2), NodeId::gpu(1)),
            Cycle::ZERO,
            ByteSize::new(16),
            TrafficClass::Ack,
        );
        let totals = topo.traffic_totals();
        assert_eq!(totals.get(TrafficClass::Data).as_u64(), 80);
        assert_eq!(totals.get(TrafficClass::Ack).as_u64(), 16);
    }

    #[test]
    fn tampered_crossings_accumulate_per_egress() {
        let mut topo = paper_topo();
        assert_eq!(topo.tampered_total(), 0);
        topo.note_tampered_egress(NodeId::gpu(1), 2);
        topo.note_tampered_egress(NodeId::gpu(3), 1);
        assert_eq!(topo.node_egress[NodeId::gpu(1)].tampered_messages(), 2);
        assert_eq!(topo.node_egress[NodeId::gpu(2)].tampered_messages(), 0);
        assert_eq!(topo.tampered_total(), 3);
    }

    #[test]
    #[should_panic(expected = "within system")]
    fn out_of_system_pair_panics() {
        let topo = paper_topo();
        let _ = topo.ctrl(PairId::new(NodeId::gpu(1), NodeId::gpu(9)));
    }

    #[test]
    fn ring_transit_forwards_then_delivers_charging_each_hop() {
        let mut topo = topo_for(TopologyKind::Ring, 8);
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(3));
        assert_eq!(topo.hops(pair), 2);
        let mut transit = Transit::new(pair);
        let parts = data(64);
        let at = topo.begin(&mut transit, Cycle::ZERO, &parts);
        let HopOutcome::Forwarded { at } = topo.advance(&mut transit, at, &parts) else {
            panic!("two-hop route must forward at GPU2");
        };
        let HopOutcome::Delivered { at } = topo.advance(&mut transit, at, &parts) else {
            panic!("second hop is the destination");
        };
        // Two store-and-forward legs: (2 ser + 100 lat + 2 ingress) x 2.
        assert_eq!(at, Cycle::new(2 * (2 + 100 + 2)));
        // 64 B counted once per hop.
        assert_eq!(
            topo.traffic_totals().get(TrafficClass::Data).as_u64(),
            2 * 64
        );
        // The forwarding GPU's egress carried the transit bytes.
        assert_eq!(
            topo.node_egress[NodeId::gpu(2)]
                .totals()
                .get(TrafficClass::Data)
                .as_u64(),
            64
        );
    }

    #[test]
    fn ring_forwarding_contends_with_own_traffic() {
        let mut topo = topo_for(TopologyKind::Ring, 8);
        // GPU2 is busy sending its own 50 000 B when GPU1->GPU3 transit
        // traffic reaches it: the transit queues behind it.
        let own = PairId::new(NodeId::gpu(2), NodeId::gpu(3));
        send(&mut topo, own, Cycle::ZERO, &data(50_000));
        let free = topo.node_egress[NodeId::gpu(2)].next_free();
        let routed = PairId::new(NodeId::gpu(1), NodeId::gpu(3));
        let arrival = send(&mut topo, routed, Cycle::ZERO, &data(64));
        assert!(
            arrival > free,
            "transit {arrival} should queue behind GPU2's own send ending {free}"
        );
    }

    #[test]
    fn transit_exposes_pair() {
        let pair = PairId::new(NodeId::gpu(2), NodeId::gpu(4));
        assert_eq!(Transit::new(pair).pair(), pair);
    }

    #[test]
    fn switch_transit_uses_switch_ports() {
        let mut topo = topo_for(TopologyKind::Switch { radix: 4 }, 8);
        let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(5));
        assert_eq!(topo.hops(pair), 4); // gpu -> leaf -> root -> leaf -> gpu
        send(&mut topo, pair, Cycle::ZERO, &data(64));
        assert_eq!(
            topo.traffic_totals().get(TrafficClass::Data).as_u64(),
            4 * 64
        );
        let switch_bytes: u64 = topo
            .iter_switch_egress()
            .map(|(_, l)| l.totals().get(TrafficClass::Data).as_u64())
            .sum();
        assert_eq!(switch_bytes, 3 * 64); // leaf0, root, leaf1
    }

    #[test]
    fn ctrl_latency_and_accounting_scale_with_hops() {
        let mut topo = topo_for(TopologyKind::Ring, 8);
        let far = PairId::new(NodeId::gpu(1), NodeId::gpu(4)); // 3 hops
        let arrival = topo.transmit_ctrl(far, Cycle::ZERO, ByteSize::new(16), TrafficClass::Mac);
        // 1 cy serialization + 3 x 100 cy propagation.
        assert_eq!(arrival, Cycle::new(1 + 300));
        assert_eq!(topo.traffic_totals().get(TrafficClass::Mac).as_u64(), 48);
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Per-class byte conservation: for every injected message,
            /// the system-wide totals grow by exactly `bytes x hops` in
            /// that message's class — nothing is dropped, duplicated, or
            /// misclassified anywhere on the route.
            #[test]
            fn bytes_injected_equal_bytes_accounted_per_hop(
                shape in (0u8..3, 3u16..13),
                msgs in proptest::collection::vec(
                    ((1u16..64, 1u16..64), (1u64..4096, 0u8..6)), 1..40),
            ) {
                let (sel, gpus) = shape;
                let kind = match sel {
                    0 => TopologyKind::FullyConnected,
                    1 => TopologyKind::Ring,
                    _ => TopologyKind::Switch { radix: 4 },
                };
                let mut topo = topo_for(kind, gpus);
                let mut expected = TrafficTotals::default();
                for ((s, d), (bytes, class_sel)) in msgs {
                    let src = NodeId::gpu((s - 1) % gpus + 1);
                    let dst = NodeId::gpu((d - 1) % gpus + 1);
                    prop_assume!(src != dst);
                    let pair = PairId::new(src, dst);
                    let class = TrafficClass::ALL[usize::from(class_sel) % 6];
                    let hops = topo.hops(pair) as u64;
                    send(&mut topo, pair, Cycle::ZERO, &WireParts::of(ByteSize::new(bytes), class));
                    expected.add(class, ByteSize::new(bytes * hops));
                }
                prop_assert_eq!(topo.traffic_totals(), expected);
            }

            /// Control-VC accounting follows the same x hops rule.
            #[test]
            fn ctrl_bytes_scale_with_route_length(
                shape in (0u8..3, 3u16..13),
                msgs in proptest::collection::vec(
                    ((1u16..64, 1u16..64), 1u64..256), 1..40),
            ) {
                let (sel, gpus) = shape;
                let kind = match sel {
                    0 => TopologyKind::FullyConnected,
                    1 => TopologyKind::Ring,
                    _ => TopologyKind::Switch { radix: 4 },
                };
                let mut topo = topo_for(kind, gpus);
                let mut expected = 0u64;
                for ((s, d), bytes) in msgs {
                    let src = NodeId::gpu((s - 1) % gpus + 1);
                    let dst = NodeId::gpu((d - 1) % gpus + 1);
                    prop_assume!(src != dst);
                    let pair = PairId::new(src, dst);
                    let hops = topo.hops(pair) as u64;
                    topo.transmit_ctrl(
                        pair, Cycle::ZERO, ByteSize::new(bytes), TrafficClass::Mac);
                    expected += bytes * hops;
                }
                prop_assert_eq!(topo.traffic_totals().get(TrafficClass::Mac).as_u64(), expected);
            }
        }
    }
}
