//! The `Cached` scheme: an LRU-managed pool of OTP buffer entries.
//!
//! `Cached` (paper Fig. 7c) is the hybrid of `Private` and `Shared`: a
//! fixed pool of OTP buffer entries is shared by all pair-directions and
//! managed with LRU replacement. A pair-direction whose pads are resident
//! behaves like `Private` (synchronized per-pair counters, pre-generated
//! pads); one whose entries were evicted behaves like `Shared`: the sender
//! falls back to an on-demand generation using the node's **maximum
//! MsgCTR** (guaranteeing counter freshness without per-pair state, as in
//! the paper). The counter jump desynchronizes the *receiver's* window for
//! that pair, so the receive side also pays a miss and resyncs — the
//! hidden cost that keeps `Cached` behind a well-adapted allocator.
//!
//! The flexibility win over `Private` is that *active* pair-directions can
//! hold more entries than their even share while idle ones hold none: on a
//! miss, the window regrows by the configured multiplier, stealing entries
//! from the least-recently-used pair-directions.

use super::{OtpScheme, SendOutcome};
use crate::otp::{OtpStats, PadWindow};
use mgpu_crypto::engine::{AesEngine, PadTiming};
use mgpu_types::{Cycle, DenseNodeMap, Direction, NodeId, OtpSchemeKind, SystemConfig};

type Key = (NodeId, Direction);

/// Array index for a direction: send windows live in slot 0, receive
/// windows in slot 1.
fn di(dir: Direction) -> usize {
    match dir {
        Direction::Send => 0,
        Direction::Recv => 1,
    }
}

/// Cached (LRU pool) OTP buffer management (see module docs).
#[derive(Debug)]
pub struct CachedScheme {
    /// Pad windows per pair-direction, dense-indexed: `windows[di(dir)]`
    /// holds that direction's per-peer windows.
    windows: [DenseNodeMap<PadWindow>; 2],
    /// LRU use stamps, indexed like `windows`: the larger, the more
    /// recent. Stamps are unique, so sorting by them gives the LRU order.
    last_use: [DenseNodeMap<u64>; 2],
    /// The latest stamp handed out.
    clock: u64,
    /// Scratch for `evict_for`'s `(stamp, key)` victim order.
    victims: Vec<(u64, Key)>,
    /// Total pool capacity in buffer entries.
    capacity: u32,
    /// Entries a missing window regrows by.
    growth: u32,
    /// Upper bound on one pair-direction's window (half the pool).
    per_pair_cap: u32,
    /// Highest MsgCTR this node has used on any send path — the `Shared`
    /// fallback counter for evicted windows.
    max_ctr: u64,
    /// Per-pair-direction miss counters: growth fires every other miss
    /// (an LRU cache reacts, and only slowly, to repeated pressure).
    miss_counts: [DenseNodeMap<u32>; 2],
    stats: OtpStats,
}

impl CachedScheme {
    /// Builds the scheme for node `me`. The pool capacity equals the
    /// `Private` scheme's total (paper §III-A: "the size of the on-chip OTP
    /// buffer is kept constant for all techniques"); initial allocation is
    /// even, exactly like `Private`.
    #[must_use]
    pub fn new(me: NodeId, config: &SystemConfig, engine: &mut AesEngine) -> Self {
        let capacity = config.total_otp_buffers_per_node();
        let depth = config.security.otp_multiplier;
        let mut windows = [
            DenseNodeMap::with_gpu_count(config.gpu_count),
            DenseNodeMap::with_gpu_count(config.gpu_count),
        ];
        let mut last_use = [
            DenseNodeMap::with_gpu_count(config.gpu_count),
            DenseNodeMap::with_gpu_count(config.gpu_count),
        ];
        // Construction order is the initial LRU order: the first
        // pair-direction built is the least recently used.
        let mut clock = 0;
        for peer in me.peers(config.gpu_count) {
            for dir in mgpu_types::Direction::BOTH {
                windows[di(dir)].insert(peer, PadWindow::new(depth, Cycle::ZERO, engine));
                clock += 1;
                last_use[di(dir)].insert(peer, clock);
            }
        }
        CachedScheme {
            windows,
            last_use,
            clock,
            victims: Vec::new(),
            capacity,
            // LRU caching adapts one entry at a time and can barely grow a
            // stream's window beyond its Private share — it reacts to
            // misses, it does not anticipate like the Dynamic allocator's
            // monitoring phase.
            growth: 1,
            per_pair_cap: depth + 1,
            max_ctr: 0,
            miss_counts: [DenseNodeMap::new(), DenseNodeMap::new()],
            stats: OtpStats::default(),
        }
    }

    fn touch(&mut self, key: Key) {
        self.clock += 1;
        *self.last_use[di(key.1)]
            .get_mut(key.0)
            .expect("window exists") = self.clock;
    }

    fn used_entries(&self) -> u32 {
        self.windows
            .iter()
            .flat_map(DenseNodeMap::values)
            .map(PadWindow::depth)
            .sum()
    }

    /// Frees at least `needed` entries by shrinking the least-recently-used
    /// windows (never the protected `key` itself).
    fn evict_for(&mut self, key: Key, needed: u32, now: Cycle, engine: &mut AesEngine) {
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        for dir in Direction::BOTH {
            victims.extend(
                self.last_use[di(dir)]
                    .iter()
                    .map(|(peer, &stamp)| (stamp, (peer, dir))),
            );
        }
        // Oldest stamp first: the least-recently-used order.
        victims.sort_unstable_by_key(|&(stamp, _)| stamp);
        let mut to_free = needed;
        for &(_, victim) in &victims {
            if to_free == 0 {
                break;
            }
            if victim == key {
                continue;
            }
            let window = self.windows[di(victim.1)]
                .get_mut(victim.0)
                .expect("window exists");
            let depth = window.depth();
            if depth == 0 {
                continue;
            }
            let take = depth.min(to_free);
            window.set_depth(depth - take, now, engine);
            to_free -= take;
        }
        self.victims = victims;
    }

    /// Grows `key`'s window toward `target`, evicting LRU entries as
    /// needed. Send windows may exceed the even share by one entry (they
    /// face the burst drains); receive windows stay at the even share.
    fn grow(&mut self, key: Key, target: u32, now: Cycle, engine: &mut AesEngine) {
        let cap = match key.1 {
            Direction::Send => self.per_pair_cap,
            Direction::Recv => self.per_pair_cap.saturating_sub(1).max(1),
        };
        let target = target.min(cap);
        let current = self.windows[di(key.1)][key.0].depth();
        if target <= current {
            return;
        }
        let extra = target - current;
        let used = self.used_entries();
        let free = self.capacity.saturating_sub(used);
        if extra > free {
            self.evict_for(key, extra - free, now, engine);
        }
        let window = self.windows[di(key.1)]
            .get_mut(key.0)
            .expect("window exists");
        window.set_depth(target, now, engine);
    }

    fn classify_use(
        &mut self,
        key: Key,
        now: Cycle,
        ctr: Option<u64>,
        engine: &mut AesEngine,
    ) -> (PadTiming, u64) {
        let max_ctr = self.max_ctr;
        let window = self.windows[di(key.1)]
            .get_mut(key.0)
            .expect("peer within system");
        let (timing, counter) = match ctr {
            None if window.depth() == 0 => {
                // Evicted send window: Shared fallback with the node-wide
                // maximum MsgCTR. The jump keeps the counter fresh without
                // per-pair state, but desynchronizes the receiver.
                let c = (max_ctr + 1).max(window.next_counter());
                (window.use_pad_at(c, now, engine), c)
            }
            None => window.use_pad(now, engine),
            Some(c) => (window.use_pad_for(c, now, engine), c),
        };
        if ctr.is_none() {
            self.max_ctr = self.max_ctr.max(counter);
        }
        let depth = self.windows[di(key.1)][key.0].depth();
        if matches!(
            crate::otp::OtpStats::classify(timing, engine.latency()),
            crate::otp::PadClass::Miss
        ) {
            // LRU fill: a window under repeated pressure regrows one entry
            // at the expense of the least-recently-used pairs. Purely
            // reactive and deliberately sluggish (every other miss) —
            // unlike the Dynamic allocator it never anticipates.
            let misses = self.miss_counts[di(key.1)].get_or_insert_with(key.0, || 0);
            *misses += 1;
            if misses.is_multiple_of(2) {
                self.grow(key, depth + self.growth, now, engine);
            }
        }
        self.touch(key);
        (timing, counter)
    }

    /// Current window depth for a pair-direction (test/inspection hook).
    #[must_use]
    pub fn depth(&self, peer: NodeId, dir: Direction) -> u32 {
        self.windows[di(dir)][peer].depth()
    }

    /// Pool capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

impl OtpScheme for CachedScheme {
    fn kind(&self) -> OtpSchemeKind {
        OtpSchemeKind::Cached
    }

    fn on_send(&mut self, now: Cycle, peer: NodeId, engine: &mut AesEngine) -> SendOutcome {
        let (timing, counter) = self.classify_use((peer, Direction::Send), now, None, engine);
        self.stats.record(Direction::Send, timing, engine.latency());
        SendOutcome { timing, counter }
    }

    fn on_recv(&mut self, now: Cycle, peer: NodeId, ctr: u64, engine: &mut AesEngine) -> PadTiming {
        let (timing, _) = self.classify_use((peer, Direction::Recv), now, Some(ctr), engine);
        self.stats.record(Direction::Recv, timing, engine.latency());
        timing
    }

    fn stats(&self) -> &OtpStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::otp::PadClass;
    use mgpu_types::Duration;

    fn setup() -> (CachedScheme, AesEngine) {
        let cfg = SystemConfig::paper_4gpu();
        let mut engine = AesEngine::new(cfg.security.aes_latency);
        let scheme = CachedScheme::new(NodeId::gpu(1), &cfg, &mut engine);
        (scheme, engine)
    }

    #[test]
    fn boot_allocation_is_even() {
        let (s, _) = setup();
        assert_eq!(s.capacity(), 32);
        for peer in NodeId::gpu(1).peers(4) {
            for dir in Direction::BOTH {
                assert_eq!(s.depth(peer, dir), 4);
            }
        }
    }

    #[test]
    fn pool_capacity_is_never_exceeded() {
        let (mut s, mut e) = setup();
        let mut now = Cycle::new(10_000);
        // Hammer a single pair-direction so it keeps growing.
        for _ in 0..200 {
            s.on_send(now, NodeId::gpu(2), &mut e);
            now += Duration::cycles(3);
        }
        assert!(s.used_entries() <= s.capacity());
    }

    #[test]
    fn hot_pair_grows_beyond_private_share() {
        let (mut s, mut e) = setup();
        let mut now = Cycle::new(10_000);
        // A sustained burst to GPU2 causes misses, each growing the window.
        for _ in 0..50 {
            s.on_send(now, NodeId::gpu(2), &mut e);
            now += Duration::cycles(2);
        }
        assert!(
            s.depth(NodeId::gpu(2), Direction::Send) > 4,
            "hot window stayed at {}",
            s.depth(NodeId::gpu(2), Direction::Send)
        );
    }

    #[test]
    fn cold_pairs_get_evicted() {
        let (mut s, mut e) = setup();
        let mut now = Cycle::new(10_000);
        for _ in 0..100 {
            s.on_send(now, NodeId::gpu(2), &mut e);
            s.on_recv(
                now,
                NodeId::gpu(2),
                s.windows[di(Direction::Recv)][NodeId::gpu(2)].next_counter(),
                &mut e,
            );
            now += Duration::cycles(2);
        }
        // Some untouched pair-direction lost its entries.
        let cold_total: u32 = NodeId::gpu(1)
            .peers(4)
            .filter(|&p| p != NodeId::gpu(2))
            .flat_map(|p| Direction::BOTH.map(|d| s.depth(p, d)))
            .sum();
        assert!(cold_total < 6 * 4, "cold pairs kept {cold_total} entries");
    }

    #[test]
    fn evicted_pair_misses_then_recovers() {
        let (mut s, mut e) = setup();
        let mut now = Cycle::new(10_000);
        // Evict everything except the hot pair.
        for _ in 0..100 {
            s.on_send(now, NodeId::gpu(2), &mut e);
            now += Duration::cycles(2);
        }
        if s.depth(NodeId::gpu(3), Direction::Send) == 0 {
            // First use after eviction: on-demand miss.
            let out = s.on_send(Cycle::new(50_000), NodeId::gpu(3), &mut e);
            assert_eq!(PadClass::from(out.timing), PadClass::Miss);
            // The window regrew; a later spaced use hits.
            let out = s.on_send(Cycle::new(60_000), NodeId::gpu(3), &mut e);
            assert_eq!(PadClass::from(out.timing), PadClass::Hit);
        } else {
            // Eviction policy kept some entries; the pair simply hits.
            let out = s.on_send(Cycle::new(50_000), NodeId::gpu(3), &mut e);
            assert!(out.timing.latency_hidden());
        }
    }

    #[test]
    fn counters_survive_eviction() {
        let (mut s, mut e) = setup();
        let mut now = Cycle::new(10_000);
        // Use GPU3 a few times, then evict it with GPU2 traffic.
        for _ in 0..3 {
            s.on_send(now, NodeId::gpu(3), &mut e);
            now += Duration::cycles(100);
        }
        for _ in 0..100 {
            s.on_send(now, NodeId::gpu(2), &mut e);
            now += Duration::cycles(2);
        }
        // GPU3's counter continues from 3 even though its pads are gone.
        let out = s.on_send(Cycle::new(100_000), NodeId::gpu(3), &mut e);
        assert_eq!(out.counter, 3);
    }

    #[test]
    fn per_pair_cap_is_respected() {
        let (mut s, mut e) = setup();
        let mut now = Cycle::new(10_000);
        for _ in 0..500 {
            s.on_send(now, NodeId::gpu(2), &mut e);
            now += Duration::cycles(1);
        }
        assert!(s.depth(NodeId::gpu(2), Direction::Send) <= 5);
    }

    #[test]
    fn eviction_follows_the_use_order() {
        let (mut s, mut e) = setup();
        let now = Cycle::new(10_000);
        let (cpu, g2, g3, g4) = (NodeId::CPU, NodeId::gpu(2), NodeId::gpu(3), NodeId::gpu(4));
        // Construction stamps the keys in order (CPU,S) (CPU,R) (g2,S)
        // (g2,R) (g3,S) (g3,R) (g4,S) (g4,R); these uses move four of
        // them to the recent end, leaving the LRU order
        // (g2,R) (g3,S) (g4,S) (g4,R) (CPU,S) (g3,R) (g2,S) (CPU,R).
        for key in [
            (cpu, Direction::Send),
            (g3, Direction::Recv),
            (g2, Direction::Send),
            (cpu, Direction::Recv),
        ] {
            s.touch(key);
        }
        // The pool is full, so growing (g4,S) by one entry takes it
        // from the least recently used window, (g2,R).
        s.grow((g4, Direction::Send), 5, now, &mut e);
        assert_eq!(s.depth(g4, Direction::Send), 5);
        assert_eq!(s.depth(g2, Direction::Recv), 3);
        // Freeing five entries for (g2,R) skips that protected key and
        // empties (g3,S), then takes one entry from (g4,S).
        s.evict_for((g2, Direction::Recv), 5, now, &mut e);
        let depths: Vec<u32> = [cpu, g2, g3, g4]
            .into_iter()
            .flat_map(|p| Direction::BOTH.map(|d| s.depth(p, d)))
            .collect();
        assert_eq!(depths, [4, 4, 4, 3, 0, 4, 4, 4]);
    }

    #[test]
    fn recv_uses_carried_counter() {
        let (mut s, mut e) = setup();
        assert!(s
            .on_recv(Cycle::new(10_000), NodeId::CPU, 0, &mut e)
            .latency_hidden());
        assert_eq!(
            s.on_recv(Cycle::new(20_000), NodeId::CPU, 9, &mut e),
            PadTiming::Miss
        );
    }
}
