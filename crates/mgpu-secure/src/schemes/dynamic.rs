//! The `Dynamic` scheme — the paper's proposed OTP buffer management
//! (§IV-B).
//!
//! A fixed pool of OTP buffer entries is *re-partitioned* at every interval
//! `T` based on EWMA-weighted traffic monitoring:
//!
//! 1. **Monitoring phase** — each send/receive is counted per direction and
//!    per peer ([`crate::ewma::EwmaAllocator`]).
//! 2. **Adjustment phase** — at the interval boundary, Formulas 1–4 assign
//!    each direction and peer its share; windows grow (issuing new pad
//!    generations) or shrink (discarding farthest-future pads) in place.
//!
//! At kernel launch the allocation is even, "similar to the Private
//! mechanism", and converges toward the observed communication pattern.

use super::{OtpScheme, SchemeTelemetry, SendOutcome};
use crate::ewma::EwmaAllocator;
use crate::otp::{OtpStats, PadWindow};
use mgpu_crypto::engine::{AesEngine, PadTiming};
use mgpu_types::{Cycle, DenseNodeMap, Direction, Duration, NodeId, OtpSchemeKind, SystemConfig};
use std::collections::BTreeMap;

/// Dynamic (EWMA-repartitioned) OTP buffer management (see module docs).
#[derive(Debug)]
pub struct DynamicScheme {
    send: DenseNodeMap<PadWindow>,
    recv: DenseNodeMap<PadWindow>,
    monitor: EwmaAllocator,
    /// Per-peer pads of the last close, in the monitor's registration
    /// order (ascending `NodeId`, the windows' iteration order).
    send_alloc: Vec<u32>,
    recv_alloc: Vec<u32>,
    total_buffers: u32,
    interval: Duration,
    next_boundary: Cycle,
    rebalances: u64,
    stats: OtpStats,
}

impl DynamicScheme {
    /// Builds the scheme for node `me` with an even initial allocation.
    #[must_use]
    pub fn new(me: NodeId, config: &SystemConfig, engine: &mut AesEngine) -> Self {
        let depth = config.security.otp_multiplier;
        let peers: Vec<NodeId> = me.peers(config.gpu_count).collect();
        let mut send = DenseNodeMap::with_gpu_count(config.gpu_count);
        let mut recv = DenseNodeMap::with_gpu_count(config.gpu_count);
        for &peer in &peers {
            send.insert(peer, PadWindow::new(depth, Cycle::ZERO, engine));
            recv.insert(peer, PadWindow::new(depth, Cycle::ZERO, engine));
        }
        let dynamic = &config.security.dynamic;
        debug_assert!(send.keys().eq(peers.iter().copied()));
        DynamicScheme {
            send,
            recv,
            monitor: EwmaAllocator::new(&peers, dynamic.alpha, dynamic.beta)
                .with_floor((depth / 2).max(1)),
            send_alloc: vec![0; peers.len()],
            recv_alloc: vec![0; peers.len()],
            total_buffers: config.total_otp_buffers_per_node(),
            interval: dynamic.interval,
            next_boundary: Cycle::ZERO + dynamic.interval,
            rebalances: 0,
            stats: OtpStats::default(),
        }
    }

    /// Processes any interval boundaries up to `now`: closes the monitoring
    /// interval and applies the new allocation to every window.
    ///
    /// A boundary whose monitor saw nothing since the last close is only
    /// counted: that close would return the allocation already applied,
    /// and every window already holds at least its target pads, so
    /// re-applying it would issue nothing.
    fn rebalance_to(&mut self, now: Cycle, engine: &mut AesEngine) {
        while now >= self.next_boundary {
            let boundary = self.next_boundary;
            self.next_boundary = boundary + self.interval;
            self.rebalances += 1;
            if self.monitor.is_quiet() {
                continue;
            }
            self.monitor.end_interval(
                self.total_buffers,
                &mut self.send_alloc,
                &mut self.recv_alloc,
            );
            for (window, &pads) in self.send.values_mut().zip(&self.send_alloc) {
                window.set_target(pads, boundary, engine);
            }
            for (window, &pads) in self.recv.values_mut().zip(&self.recv_alloc) {
                window.set_target(pads, boundary, engine);
            }
        }
    }

    /// Number of completed re-allocation phases (test/inspection hook).
    #[must_use]
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Current window depth for a peer/direction (test/inspection hook).
    #[must_use]
    pub fn depth(&self, peer: NodeId, dir: Direction) -> u32 {
        match dir {
            Direction::Send => self.send[peer].depth(),
            Direction::Recv => self.recv[peer].depth(),
        }
    }

    /// The counter the next in-order message from `peer` will carry
    /// (inspection hook for drivers that emulate a synchronized sender).
    #[must_use]
    pub fn recv_next_counter(&self, peer: NodeId) -> u64 {
        self.recv[peer].next_counter()
    }

    /// Total *target* entries across all windows. Conserved at the pool
    /// size by the largest-remainder allocator; the instantaneous buffered
    /// count may transiently exceed it while an over-target window drains
    /// by attrition.
    #[must_use]
    pub fn allocated(&self) -> u32 {
        self.send.values().map(PadWindow::depth).sum::<u32>()
            + self.recv.values().map(PadWindow::depth).sum::<u32>()
    }
}

impl OtpScheme for DynamicScheme {
    fn kind(&self) -> OtpSchemeKind {
        OtpSchemeKind::Dynamic
    }

    fn on_send(&mut self, now: Cycle, peer: NodeId, engine: &mut AesEngine) -> SendOutcome {
        self.rebalance_to(now, engine);
        self.monitor.observe_send(peer);
        let window = self.send.get_mut(peer).expect("peer within system");
        let (timing, counter) = window.use_pad(now, engine);
        self.stats.record(Direction::Send, timing, engine.latency());
        SendOutcome { timing, counter }
    }

    fn on_recv(&mut self, now: Cycle, peer: NodeId, ctr: u64, engine: &mut AesEngine) -> PadTiming {
        self.rebalance_to(now, engine);
        self.monitor.observe_recv(peer);
        let window = self.recv.get_mut(peer).expect("peer within system");
        let timing = window.use_pad_for(ctr, now, engine);
        self.stats.record(Direction::Recv, timing, engine.latency());
        timing
    }

    fn advance(&mut self, now: Cycle, engine: &mut AesEngine) {
        self.rebalance_to(now, engine);
    }

    fn stats(&self) -> &OtpStats {
        &self.stats
    }

    fn telemetry(&self) -> Option<SchemeTelemetry> {
        // Built by insertion: one leaf allocation per map, where
        // `collect` would buffer the pairs in a `Vec` first.
        let mut t = SchemeTelemetry {
            send_weight: self.monitor.send_weight(),
            rebalances: self.rebalances,
            send_depths: BTreeMap::new(),
            recv_depths: BTreeMap::new(),
        };
        for (peer, w) in self.send.iter() {
            t.send_depths.insert(peer, w.depth());
        }
        for (peer, w) in self.recv.iter() {
            t.recv_depths.insert(peer, w.depth());
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::otp::PadClass;

    fn setup() -> (DynamicScheme, AesEngine) {
        let cfg = SystemConfig::paper_4gpu();
        let mut engine = AesEngine::new(cfg.security.aes_latency);
        let scheme = DynamicScheme::new(NodeId::gpu(1), &cfg, &mut engine);
        (scheme, engine)
    }

    #[test]
    fn initial_allocation_matches_private() {
        let (s, _) = setup();
        for peer in NodeId::gpu(1).peers(4) {
            assert_eq!(s.depth(peer, Direction::Send), 4);
            assert_eq!(s.depth(peer, Direction::Recv), 4);
        }
        assert_eq!(s.allocated(), 32);
    }

    #[test]
    fn rebalancing_happens_at_interval_boundaries() {
        let (mut s, mut e) = setup();
        s.advance(Cycle::new(999), &mut e);
        assert_eq!(s.rebalances(), 0);
        s.advance(Cycle::new(1000), &mut e);
        assert_eq!(s.rebalances(), 1);
        // Jumping far ahead processes every missed boundary.
        s.advance(Cycle::new(5_500), &mut e);
        assert_eq!(s.rebalances(), 5);
    }

    #[test]
    fn allocation_follows_send_heavy_traffic() {
        let (mut s, mut e) = setup();
        let hot = NodeId::gpu(2);
        let mut now = Cycle::new(1);
        // Several intervals of send-only traffic to one peer.
        for _ in 0..10 {
            for _ in 0..50 {
                s.on_send(now, hot, &mut e);
                now += Duration::cycles(20);
            }
        }
        s.advance(now, &mut e);
        assert!(s.rebalances() >= 9);
        // The hot send window captured most of the pool.
        let hot_depth = s.depth(hot, Direction::Send);
        assert!(hot_depth > 10, "hot send window depth {hot_depth}");
        // Total conserved.
        assert_eq!(s.allocated(), 32);
    }

    #[test]
    fn adaptation_turns_burst_misses_into_hits() {
        // A peer receiving periodic 8-deep bursts: Private's 4-deep window
        // misses the tail of each burst; Dynamic reallocates idle peers'
        // entries to the hot path and eventually absorbs the whole burst.
        let cfg = SystemConfig::paper_4gpu();
        let mut e = AesEngine::new(cfg.security.aes_latency);
        let mut s = DynamicScheme::new(NodeId::gpu(1), &cfg, &mut e);
        let hot = NodeId::gpu(2);
        let mut last_burst_misses = u64::MAX;
        for burst in 0..20u64 {
            let t0 = Cycle::new(1 + burst * 2_000);
            let before = s.stats().count(Direction::Send, PadClass::Miss)
                + s.stats().count(Direction::Send, PadClass::Partial);
            for i in 0..8u64 {
                s.on_send(t0 + Duration::cycles(i * 4), hot, &mut e);
            }
            last_burst_misses = s.stats().count(Direction::Send, PadClass::Miss)
                + s.stats().count(Direction::Send, PadClass::Partial)
                - before;
        }
        assert_eq!(
            last_burst_misses, 0,
            "after adaptation the full burst should hit"
        );
    }

    #[test]
    fn pool_is_conserved_across_rebalances() {
        let (mut s, mut e) = setup();
        let peers: Vec<NodeId> = NodeId::gpu(1).peers(4).collect();
        let mut now = Cycle::new(1);
        for round in 0..50u64 {
            let peer = peers[(round % 4) as usize];
            for _ in 0..(round % 9) {
                s.on_send(now, peer, &mut e);
                now += Duration::cycles(7);
            }
            for _ in 0..(round % 3) {
                let ctr = s.recv[peer].next_counter();
                s.on_recv(now, peer, ctr, &mut e);
                now += Duration::cycles(7);
            }
            now += Duration::cycles(500);
            s.advance(now, &mut e);
            assert_eq!(s.allocated(), 32, "round {round}");
        }
    }

    /// Advances `s` across `n` idle boundaries and checks that they are
    /// all counted while no pad is issued and no depth moves.
    fn assert_idle_stretch_is_count_only(s: &mut DynamicScheme, e: &mut AesEngine, n: u64) {
        let peers: Vec<NodeId> = s.send.keys().collect();
        let depths = |s: &DynamicScheme| -> Vec<u32> {
            peers
                .iter()
                .flat_map(|&p| Direction::BOTH.map(|d| s.depth(p, d)))
                .collect()
        };
        let (issued, before, rebalances) = (e.issued(), depths(s), s.rebalances());
        let now = s.next_boundary + Duration::cycles(s.interval.as_u64() * (n - 1));
        s.advance(now, e);
        assert_eq!(s.rebalances(), rebalances + n);
        assert_eq!(e.issued(), issued);
        assert_eq!(depths(s), before);
    }

    /// Skewed traffic over the first few intervals, then one boundary
    /// to close the last busy interval.
    fn busy_then_closed(s: &mut DynamicScheme, e: &mut AesEngine) {
        let mut now = Cycle::new(1);
        for i in 0..60u64 {
            let peer = if i % 3 == 0 {
                NodeId::CPU
            } else {
                NodeId::gpu(2)
            };
            s.on_send(now, peer, e);
            let ctr = s.recv_next_counter(NodeId::gpu(3));
            s.on_recv(now, NodeId::gpu(3), ctr, e);
            now += Duration::cycles(60);
        }
        s.advance(s.next_boundary, e);
        assert!(s.monitor.is_quiet());
    }

    #[test]
    fn idle_boundaries_are_counted_without_issuing_pads() {
        let (mut s, mut e) = setup();
        busy_then_closed(&mut s, &mut e);
        assert_idle_stretch_is_count_only(&mut s, &mut e, 100);
    }

    #[test]
    fn every_fixed_boundary_counts_without_traffic() {
        // Every boundary of the fixed interval counts as a repartition,
        // traffic or not: four of them by cycle 4,000.
        let (mut s, mut e) = setup();
        s.advance(Cycle::new(4_000), &mut e);
        assert_eq!(s.rebalances(), 4);
    }

    #[test]
    fn counters_survive_window_resizing() {
        let (mut s, mut e) = setup();
        let peer = NodeId::gpu(3);
        let mut now = Cycle::new(1);
        for expected in 0..30u64 {
            let out = s.on_send(now, peer, &mut e);
            assert_eq!(out.counter, expected);
            now += Duration::cycles(700); // crosses boundaries regularly
        }
    }
}
