//! Static route computation over the configured fabric shape.
//!
//! A [`RoutingTable`] maps every directed node pair to the sequence of
//! [`Waypoint`]s its messages cross. Routes are computed once at
//! construction (the fabrics are static), so the hot transmit path is a
//! table lookup. The three shapes:
//!
//! * **Fully connected** — every pair is one direct hop (the paper's
//!   evaluated system).
//! * **Ring** — GPUs forward around the shorter arc through intermediate
//!   GPUs; ties break toward ascending indices so routes stay
//!   deterministic.
//! * **Switch** — GPUs attach in `radix`-sized groups to leaf switches;
//!   leaves hang off a root switch when there is more than one leaf.
//!
//! The CPU keeps a direct PCIe link to every GPU in all shapes: host
//! traffic never transits the GPU fabric, matching real systems where the
//! host bus is separate from NVLink.

use mgpu_types::{NodeId, PairId, PairTable, TopologyKind};

/// One stop on a route: either an endpoint/forwarding node or a switch.
///
/// Switches are fabric-internal: they forward ciphertext but are never a
/// message source or destination, and — deliberately — never hold keys.
/// End-to-end encryption means a compromised switch sees only ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Waypoint {
    /// A processor (CPU or GPU).
    Node(NodeId),
    /// A switch, numbered `0..switch_count`; when a root switch exists it
    /// has the highest number.
    Switch(u16),
}

impl core::fmt::Display for Waypoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Waypoint::Node(n) => write!(f, "{n}"),
            Waypoint::Switch(s) => write!(f, "SW{s}"),
        }
    }
}

/// Precomputed routes for every directed pair of a system.
///
/// # Examples
///
/// ```
/// use mgpu_sim::routing::{RoutingTable, Waypoint};
/// use mgpu_types::{NodeId, PairId, TopologyKind};
///
/// let table = RoutingTable::new(TopologyKind::Ring, 4);
/// let pair = PairId::new(NodeId::gpu(1), NodeId::gpu(3));
/// // GPU1 -> GPU2 -> GPU3: two hops around the ring.
/// assert_eq!(table.hops(pair), 2);
/// assert_eq!(table.route(pair)[1], Waypoint::Node(NodeId::gpu(2)));
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    routes: PairTable<Vec<Waypoint>>,
    switch_count: u16,
}

impl RoutingTable {
    /// Computes routes for `kind` over a system with `gpu_count` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if the topology fails [`TopologyKind::validate`] for
    /// `gpu_count`.
    #[must_use]
    pub fn new(kind: TopologyKind, gpu_count: u16) -> Self {
        kind.validate(gpu_count)
            .expect("topology valid for gpu_count");
        let mut routes = PairTable::new();
        for src in NodeId::all(gpu_count) {
            for dst in src.peers(gpu_count) {
                let pair = PairId::new(src, dst);
                routes.insert(pair, compute_route(kind, gpu_count, src, dst));
            }
        }
        let switch_count = match kind {
            TopologyKind::Switch { radix } => {
                let leaves = gpu_count.div_ceil(radix);
                if leaves > 1 {
                    leaves + 1 // plus the root
                } else {
                    1
                }
            }
            _ => 0,
        };
        RoutingTable {
            routes,
            switch_count,
        }
    }

    /// The full path for `pair`, endpoints included
    /// (`route[0] == src`, `route.last() == dst`).
    ///
    /// # Panics
    ///
    /// Panics if `pair` references a node outside the system.
    #[must_use]
    pub fn route(&self, pair: PairId) -> &[Waypoint] {
        self.routes.get(pair).expect("pair within system")
    }

    /// Number of links `pair`'s messages cross (`route.len() - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `pair` references a node outside the system.
    #[must_use]
    pub fn hops(&self, pair: PairId) -> usize {
        self.route(pair).len() - 1
    }

    /// Switches instantiated by this fabric (0 outside `Switch`).
    #[must_use]
    pub fn switch_count(&self) -> u16 {
        self.switch_count
    }
}

/// The leaf switch a GPU attaches to (GPU indices are 1-based).
fn leaf_of(gpu_index: u16, radix: u16) -> u16 {
    (gpu_index - 1) / radix
}

fn compute_route(kind: TopologyKind, gpu_count: u16, src: NodeId, dst: NodeId) -> Vec<Waypoint> {
    // Host traffic always takes the direct PCIe link.
    if src.is_cpu() || dst.is_cpu() {
        return vec![Waypoint::Node(src), Waypoint::Node(dst)];
    }
    match kind {
        TopologyKind::FullyConnected => vec![Waypoint::Node(src), Waypoint::Node(dst)],
        TopologyKind::Ring => {
            let n = gpu_count;
            let s = src.gpu_index().expect("src is a gpu") - 1;
            let d = dst.gpu_index().expect("dst is a gpu") - 1;
            // Shorter arc wins; a tie goes the ascending (clockwise) way.
            let cw = (d + n - s) % n;
            let ccw = n - cw;
            let (step, len) = if cw <= ccw { (1, cw) } else { (n - 1, ccw) };
            let mut route = Vec::with_capacity(usize::from(len) + 1);
            let mut at = s;
            route.push(Waypoint::Node(src));
            for _ in 0..len {
                at = (at + step) % n;
                route.push(Waypoint::Node(NodeId::gpu(at + 1)));
            }
            route
        }
        TopologyKind::Switch { radix } => {
            let s = src.gpu_index().expect("src is a gpu");
            let d = dst.gpu_index().expect("dst is a gpu");
            let (src_leaf, dst_leaf) = (leaf_of(s, radix), leaf_of(d, radix));
            let leaves = gpu_count.div_ceil(radix);
            let mut route = vec![Waypoint::Node(src), Waypoint::Switch(src_leaf)];
            if src_leaf != dst_leaf {
                route.push(Waypoint::Switch(leaves)); // the root
                route.push(Waypoint::Switch(dst_leaf));
            }
            route.push(Waypoint::Node(dst));
            route
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(i: u16) -> Waypoint {
        Waypoint::Node(NodeId::gpu(i))
    }

    #[test]
    fn fully_connected_is_single_hop_everywhere() {
        let t = RoutingTable::new(TopologyKind::FullyConnected, 4);
        for src in NodeId::all(4) {
            for dst in src.peers(4) {
                assert_eq!(t.hops(PairId::new(src, dst)), 1);
            }
        }
        assert_eq!(t.switch_count(), 0);
    }

    #[test]
    fn ring_takes_the_shorter_arc() {
        let t = RoutingTable::new(TopologyKind::Ring, 8);
        // Adjacent: one hop.
        assert_eq!(t.hops(PairId::new(NodeId::gpu(1), NodeId::gpu(2))), 1);
        // Wrap-around adjacency: GPU8 -> GPU1 directly.
        assert_eq!(t.hops(PairId::new(NodeId::gpu(8), NodeId::gpu(1))), 1);
        // Two steps the short way.
        assert_eq!(
            t.route(PairId::new(NodeId::gpu(1), NodeId::gpu(7))),
            &[gpu(1), gpu(8), gpu(7)]
        );
        // Antipodal tie breaks toward ascending indices.
        assert_eq!(
            t.route(PairId::new(NodeId::gpu(1), NodeId::gpu(5))),
            &[gpu(1), gpu(2), gpu(3), gpu(4), gpu(5)]
        );
    }

    #[test]
    fn ring_keeps_cpu_direct() {
        let t = RoutingTable::new(TopologyKind::Ring, 8);
        for g in 1..=8 {
            assert_eq!(t.hops(PairId::new(NodeId::CPU, NodeId::gpu(g))), 1);
            assert_eq!(t.hops(PairId::new(NodeId::gpu(g), NodeId::CPU)), 1);
        }
    }

    #[test]
    fn switch_routes_cross_leaf_and_root() {
        let t = RoutingTable::new(TopologyKind::Switch { radix: 4 }, 8);
        assert_eq!(t.switch_count(), 3); // two leaves + root
                                         // Same leaf: src -> leaf -> dst.
        assert_eq!(
            t.route(PairId::new(NodeId::gpu(1), NodeId::gpu(2))),
            &[gpu(1), Waypoint::Switch(0), gpu(2)]
        );
        // Different leaves: src -> leaf -> root -> leaf' -> dst.
        assert_eq!(
            t.route(PairId::new(NodeId::gpu(1), NodeId::gpu(5))),
            &[
                gpu(1),
                Waypoint::Switch(0),
                Waypoint::Switch(2),
                Waypoint::Switch(1),
                gpu(5)
            ]
        );
    }

    #[test]
    fn single_leaf_switch_has_no_root() {
        let t = RoutingTable::new(TopologyKind::Switch { radix: 4 }, 4);
        assert_eq!(t.switch_count(), 1);
        assert_eq!(
            t.route(PairId::new(NodeId::gpu(1), NodeId::gpu(4))),
            &[gpu(1), Waypoint::Switch(0), gpu(4)]
        );
    }

    #[test]
    fn waypoint_display() {
        assert_eq!(gpu(2).to_string(), "GPU2");
        assert_eq!(Waypoint::Switch(1).to_string(), "SW1");
        assert_eq!(Waypoint::Node(NodeId::CPU).to_string(), "CPU");
    }

    #[test]
    #[should_panic(expected = "topology valid")]
    fn invalid_shape_panics() {
        let _ = RoutingTable::new(TopologyKind::Ring, 2);
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        /// All three shapes, valid for any `gpus >= 3`.
        fn kind(sel: u8, radix: u16) -> TopologyKind {
            match sel % 3 {
                0 => TopologyKind::FullyConnected,
                1 => TopologyKind::Ring,
                _ => TopologyKind::Switch { radix },
            }
        }

        proptest! {
            #[test]
            fn routes_start_and_end_at_the_endpoints(
                sel in 0u8..3, gpus in 3u16..17, radix in 2u16..6,
            ) {
                let t = RoutingTable::new(kind(sel, radix), gpus);
                for src in NodeId::all(gpus) {
                    for dst in src.peers(gpus) {
                        let route = t.route(PairId::new(src, dst));
                        prop_assert_eq!(route[0], Waypoint::Node(src));
                        prop_assert_eq!(*route.last().expect("non-empty"), Waypoint::Node(dst));
                        prop_assert!(t.hops(PairId::new(src, dst)) >= 1);
                    }
                }
            }

            #[test]
            fn routes_have_no_self_hops_or_cycles(
                sel in 0u8..3, gpus in 3u16..17, radix in 2u16..6,
            ) {
                let t = RoutingTable::new(kind(sel, radix), gpus);
                for src in NodeId::all(gpus) {
                    for dst in src.peers(gpus) {
                        let route = t.route(PairId::new(src, dst));
                        // A repeated waypoint is either a self-hop
                        // (adjacent repeat) or a cycle (distant repeat).
                        let mut seen = HashSet::new();
                        for w in route {
                            prop_assert!(seen.insert(w), "repeated waypoint {w} on {src}->{dst}");
                        }
                    }
                }
            }

            #[test]
            fn ring_routes_never_exceed_half_the_ring(
                gpus in 3u16..17,
            ) {
                let t = RoutingTable::new(TopologyKind::Ring, gpus);
                let max = usize::from(gpus) / 2 + usize::from(gpus % 2 == 1);
                for a in 1..=gpus {
                    for b in (1..=gpus).filter(|&b| b != a) {
                        let hops = t.hops(PairId::new(NodeId::gpu(a), NodeId::gpu(b)));
                        prop_assert!(hops <= max, "GPU{a}->GPU{b}: {hops} hops > {max}");
                    }
                }
            }
        }
    }
}
