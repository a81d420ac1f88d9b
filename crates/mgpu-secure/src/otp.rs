//! OTP buffer machinery: pad windows, hit/partial/miss classification and
//! per-direction statistics.
//!
//! An OTP buffer entry holds a pre-generated pad for one specific
//! `(sender, receiver, MsgCTR)` seed. Because counters advance by one per
//! message, a set of entries for one pair-direction forms a *window* of
//! consecutive counters. [`PadWindow`] models that window's timing: when a
//! pad is consumed, a replacement for the farthest-future counter is issued
//! to the (pipelined) AES engine, and each use is classified as
//! `Hit` / `Partial` / `Miss` exactly as in the paper's Figs. 10 and 22.
//!
//! This module models only the *timing* of pad refill against the engine
//! abstraction; no pad bytes are generated here. The functional pad is
//! the CTR keystream inside `mgpu_crypto::gcm::AesGcm`, which the wire
//! harness runs through `crate::channel::Endpoint`.

use mgpu_crypto::engine::{AesEngine, PadTiming};
use mgpu_types::{Cycle, Direction, Duration};
use std::collections::VecDeque;

/// Summary classification of one pad use (collapses
/// [`PadTiming::Partial`]'s remaining time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PadClass {
    /// Latency fully hidden.
    Hit,
    /// Latency partially hidden.
    Partial,
    /// Latency fully exposed.
    Miss,
}

impl PadClass {
    /// All classes in display order.
    pub const ALL: [PadClass; 3] = [PadClass::Hit, PadClass::Partial, PadClass::Miss];
}

impl From<PadTiming> for PadClass {
    fn from(t: PadTiming) -> Self {
        match t {
            PadTiming::Hit => PadClass::Hit,
            PadTiming::Partial { .. } => PadClass::Partial,
            PadTiming::Miss => PadClass::Miss,
        }
    }
}

/// Per-direction hit/partial/miss counts and exposed-latency totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OtpStats {
    counts: [[u64; 3]; 2],
    exposed: [u64; 2],
}

impl OtpStats {
    fn dir_index(dir: Direction) -> usize {
        match dir {
            Direction::Send => 0,
            Direction::Recv => 1,
        }
    }

    fn class_index(class: PadClass) -> usize {
        match class {
            PadClass::Hit => 0,
            PadClass::Partial => 1,
            PadClass::Miss => 2,
        }
    }

    /// Classifies a pad timing for accounting: a `Partial` whose wait is
    /// at least the full AES latency hid nothing — it is a miss in the
    /// paper's `OTP_Miss` sense (Figs. 10/22), even though the mechanism
    /// was a pending (serialized) window pad rather than an absent one.
    #[must_use]
    pub fn classify(timing: PadTiming, full_latency: Duration) -> PadClass {
        match timing {
            PadTiming::Partial { remaining } if remaining >= full_latency => PadClass::Miss,
            other => other.into(),
        }
    }

    /// Records one classified pad use.
    pub fn record(&mut self, dir: Direction, timing: PadTiming, full_latency: Duration) {
        let d = Self::dir_index(dir);
        self.counts[d][Self::class_index(Self::classify(timing, full_latency))] += 1;
        self.exposed[d] += timing.exposed_latency(full_latency).as_u64();
    }

    /// Count of uses in `dir` classified as `class`.
    #[must_use]
    pub fn count(&self, dir: Direction, class: PadClass) -> u64 {
        self.counts[Self::dir_index(dir)][Self::class_index(class)]
    }

    /// Total uses in `dir`.
    #[must_use]
    pub fn total(&self, dir: Direction) -> u64 {
        self.counts[Self::dir_index(dir)].iter().sum()
    }

    /// Fraction of uses in `dir` classified as `class`; 0 when empty.
    #[must_use]
    pub fn fraction(&self, dir: Direction, class: PadClass) -> f64 {
        let total = self.total(dir);
        if total == 0 {
            0.0
        } else {
            self.count(dir, class) as f64 / total as f64
        }
    }

    /// Fraction of uses whose latency was at least partially hidden
    /// (hit + partial) — the headline number of the paper's Fig. 10.
    #[must_use]
    pub fn hidden_fraction(&self, dir: Direction) -> f64 {
        self.fraction(dir, PadClass::Hit) + self.fraction(dir, PadClass::Partial)
    }

    /// Sum of exposed latencies in `dir`, in cycles.
    #[must_use]
    pub fn exposed_cycles(&self, dir: Direction) -> u64 {
        self.exposed[Self::dir_index(dir)]
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &OtpStats) {
        for d in 0..2 {
            for c in 0..3 {
                self.counts[d][c] += other.counts[d][c];
            }
            self.exposed[d] += other.exposed[d];
        }
    }
}

/// A window of pre-generated pads for consecutive counters of one
/// pair-direction.
///
/// # Examples
///
/// ```
/// use mgpu_secure::otp::PadWindow;
/// use mgpu_crypto::engine::{AesEngine, PadTiming};
/// use mgpu_types::{Cycle, Duration};
///
/// let mut engine = AesEngine::new(Duration::cycles(40));
/// let mut window = PadWindow::new(4, Cycle::ZERO, &mut engine);
/// // Pads were issued at boot; by cycle 1000 all four are ready.
/// let (timing, ctr) = window.use_pad(Cycle::new(1000), &mut engine);
/// assert_eq!(timing, PadTiming::Hit);
/// assert_eq!(ctr, 0);
/// ```
#[derive(Debug, Clone)]
pub struct PadWindow {
    next_counter: u64,
    ready: VecDeque<Cycle>,
    target_depth: u32,
}

impl PadWindow {
    /// Creates a window of `depth` pads starting at counter 0, issuing the
    /// initial generations at `now`.
    #[must_use]
    pub fn new(depth: u32, now: Cycle, engine: &mut AesEngine) -> Self {
        let mut window = PadWindow {
            next_counter: 0,
            ready: VecDeque::new(),
            target_depth: depth,
        };
        window.refill(now, engine);
        window
    }

    /// The counter the next message on this pair-direction will use.
    #[must_use]
    pub fn next_counter(&self) -> u64 {
        self.next_counter
    }

    /// Currently buffered (issued) pads.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.ready.len()
    }

    /// Configured depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.target_depth
    }

    fn refill(&mut self, now: Cycle, engine: &mut AesEngine) {
        while self.ready.len() < self.target_depth as usize {
            let ready_at = engine.issue(now);
            self.ready.push_back(ready_at);
        }
    }

    /// Consumes the pad for the next counter at time `now`, issues a
    /// replacement, and returns the timing classification together with the
    /// counter value used.
    ///
    /// The buffer-entry lifecycle models the hardware constraint that an
    /// OTP buffer entry is occupied from the moment its pad generation is
    /// issued until the pad is *used*: the replacement generation for the
    /// farthest-future counter can only be issued once this use frees the
    /// slot. A window of depth `d` therefore sustains at most `d` pads per
    /// AES latency — bursts beyond that rate serialize on pad generation,
    /// which is exactly why the paper's OTP `1x`→`16x` sweep (Fig. 8)
    /// matters so much.
    pub fn use_pad(&mut self, now: Cycle, engine: &mut AesEngine) -> (PadTiming, u64) {
        let ctr = self.next_counter;
        self.next_counter += 1;
        match self.ready.pop_front() {
            None => {
                // Depth-zero window: strictly on-demand generation.
                engine.issue(now);
                (PadTiming::Miss, ctr)
            }
            Some(t) if t <= now => {
                // Slot freed at `now`; replacement issues immediately.
                self.refill(now, engine);
                (PadTiming::Hit, ctr)
            }
            Some(t) => {
                // The block waits for the pad; the slot frees (and the
                // replacement issues) only when the pad is consumed at `t`.
                self.refill(t, engine);
                (PadTiming::Partial { remaining: t - now }, ctr)
            }
        }
    }

    /// Consumes the pad for a specific `ctr` (receive side). If `ctr`
    /// matches the expected next counter this behaves like [`use_pad`];
    /// otherwise the window is out of sync (e.g. the peer used a shared
    /// counter that advanced elsewhere) — a miss — and the window resyncs
    /// to `ctr + 1`.
    ///
    /// [`use_pad`]: PadWindow::use_pad
    pub fn use_pad_for(&mut self, ctr: u64, now: Cycle, engine: &mut AesEngine) -> PadTiming {
        if ctr == self.next_counter {
            self.use_pad(now, engine).0
        } else {
            // Wrong counter: every buffered pad is useless. Regenerate the
            // window beyond the observed counter.
            self.next_counter = ctr + 1;
            self.ready.clear();
            self.refill(now, engine);
            PadTiming::Miss
        }
    }

    /// Consumes the pad for `ctr`, allowing skip-ahead *within* the
    /// buffered window (used by the `Shared` scheme's receive side, where
    /// the sender's global counter may have advanced by sends to other
    /// nodes). Pads for skipped counters are discarded — those messages
    /// went elsewhere and their pads can never be used.
    ///
    /// Counters before the window or beyond its buffered range are misses
    /// and resync the window to `ctr + 1`.
    pub fn use_pad_at(&mut self, ctr: u64, now: Cycle, engine: &mut AesEngine) -> PadTiming {
        let in_window =
            ctr >= self.next_counter && ctr - self.next_counter < self.ready.len() as u64;
        if !in_window {
            self.next_counter = ctr + 1;
            self.ready.clear();
            self.refill(now, engine);
            return PadTiming::Miss;
        }
        let skip = ctr - self.next_counter;
        for _ in 0..skip {
            self.ready.pop_front();
        }
        self.next_counter = ctr + 1;
        match self.ready.pop_front() {
            None => {
                engine.issue(now);
                self.refill(now, engine);
                PadTiming::Miss
            }
            Some(t) if t <= now => {
                self.refill(now, engine);
                PadTiming::Hit
            }
            Some(t) => {
                self.refill(t, engine);
                PadTiming::Partial { remaining: t - now }
            }
        }
    }

    /// Changes the window depth. Growth issues new pad generations at
    /// `now`; shrinkage discards the farthest-future pads (hard eviction —
    /// the entries are immediately reusable elsewhere).
    pub fn set_depth(&mut self, depth: u32, now: Cycle, engine: &mut AesEngine) {
        self.target_depth = depth;
        while self.ready.len() > depth as usize {
            self.ready.pop_back();
        }
        self.refill(now, engine);
    }

    /// Changes the window's *target* depth without discarding pads:
    /// growth issues new generations at `now`, but an over-full window
    /// shrinks by attrition as pads are consumed. Used by the `Dynamic`
    /// allocator so that periodic re-partitioning never throws away
    /// already-generated pads (they stay valid until used).
    pub fn set_target(&mut self, depth: u32, now: Cycle, engine: &mut AesEngine) {
        self.target_depth = depth;
        self.refill(now, engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> AesEngine {
        AesEngine::new(Duration::cycles(40))
    }

    #[test]
    fn warm_window_hits() {
        let mut e = engine();
        let mut w = PadWindow::new(4, Cycle::ZERO, &mut e);
        assert_eq!(w.buffered(), 4);
        let (t, ctr) = w.use_pad(Cycle::new(100), &mut e);
        assert_eq!(t, PadTiming::Hit);
        assert_eq!(ctr, 0);
        assert_eq!(w.next_counter(), 1);
        assert_eq!(w.buffered(), 4); // replacement issued
    }

    #[test]
    fn burst_depletes_window_into_partials_and_misses() {
        let mut e = engine();
        let mut w = PadWindow::new(4, Cycle::ZERO, &mut e);
        let now = Cycle::new(1_000);
        let mut classes = Vec::new();
        for _ in 0..12 {
            let (t, _) = w.use_pad(now, &mut e);
            classes.push(OtpStats::classify(t, Duration::cycles(40)));
        }
        // First 4 pads were ready; replacements issued at `now` are misses
        // (remaining == full latency, modulo port conflicts pushing later).
        assert_eq!(&classes[..4], &[PadClass::Hit; 4]);
        assert!(classes[4..].iter().all(|&c| c == PadClass::Miss));
    }

    #[test]
    fn spaced_requests_after_burst_are_partial() {
        let mut e = engine();
        let mut w = PadWindow::new(2, Cycle::ZERO, &mut e);
        // Drain the two ready pads at t=1000.
        w.use_pad(Cycle::new(1000), &mut e);
        w.use_pad(Cycle::new(1000), &mut e);
        // Replacements were issued at t=1000 -> ready ~1040/1041. A request
        // at t=1020 finds a pad 20-21 cycles from ready: partial.
        let (t, _) = w.use_pad(Cycle::new(1020), &mut e);
        match t {
            PadTiming::Partial { remaining } => {
                assert!(remaining.as_u64() >= 20 && remaining.as_u64() <= 21);
            }
            other => panic!("expected partial, got {other:?}"),
        }
    }

    #[test]
    fn counters_are_sequential() {
        let mut e = engine();
        let mut w = PadWindow::new(4, Cycle::ZERO, &mut e);
        for expected in 0..20 {
            let (_, ctr) = w.use_pad(Cycle::new(5_000 + expected * 100), &mut e);
            assert_eq!(ctr, expected);
        }
    }

    #[test]
    fn recv_side_in_sync_counter_hits() {
        let mut e = engine();
        let mut w = PadWindow::new(4, Cycle::ZERO, &mut e);
        assert_eq!(w.use_pad_for(0, Cycle::new(1000), &mut e), PadTiming::Hit);
        assert_eq!(w.use_pad_for(1, Cycle::new(2000), &mut e), PadTiming::Hit);
    }

    #[test]
    fn recv_side_out_of_sync_counter_misses_and_resyncs() {
        let mut e = engine();
        let mut w = PadWindow::new(4, Cycle::ZERO, &mut e);
        // Peer's shared counter jumped to 10 (it talked to someone else).
        assert_eq!(w.use_pad_for(10, Cycle::new(1000), &mut e), PadTiming::Miss);
        assert_eq!(w.next_counter(), 11);
        // Back-to-back message with the successor counter now hits once the
        // regenerated window is ready.
        assert_eq!(w.use_pad_for(11, Cycle::new(2000), &mut e), PadTiming::Hit);
    }

    #[test]
    fn skip_ahead_within_window() {
        let mut e = engine();
        let mut w = PadWindow::new(4, Cycle::ZERO, &mut e);
        // Counter 2 is within the buffered window [0, 4): skipping 0 and 1
        // still yields a usable pad.
        assert_eq!(w.use_pad_at(2, Cycle::new(1000), &mut e), PadTiming::Hit);
        assert_eq!(w.next_counter(), 3);
        assert_eq!(w.buffered(), 4);
        // Counter far beyond the window: miss + resync.
        assert_eq!(w.use_pad_at(100, Cycle::new(2000), &mut e), PadTiming::Miss);
        assert_eq!(w.next_counter(), 101);
        // A stale counter (before the window): miss + resync.
        assert_eq!(w.use_pad_at(50, Cycle::new(3000), &mut e), PadTiming::Miss);
        assert_eq!(w.next_counter(), 51);
    }

    #[test]
    fn skip_ahead_head_equals_plain_use() {
        let mut e1 = engine();
        let mut e2 = engine();
        let mut w1 = PadWindow::new(4, Cycle::ZERO, &mut e1);
        let mut w2 = PadWindow::new(4, Cycle::ZERO, &mut e2);
        let t1 = w1.use_pad_at(0, Cycle::new(1000), &mut e1);
        let (t2, _) = w2.use_pad(Cycle::new(1000), &mut e2);
        assert_eq!(t1, t2);
        assert_eq!(w1.next_counter(), w2.next_counter());
    }

    #[test]
    fn depth_zero_always_misses() {
        let mut e = engine();
        let mut w = PadWindow::new(0, Cycle::ZERO, &mut e);
        for i in 0..5 {
            let (t, _) = w.use_pad(Cycle::new(i * 1000), &mut e);
            assert_eq!(t, PadTiming::Miss);
        }
        assert_eq!(w.buffered(), 0);
    }

    #[test]
    fn grow_and_shrink_depth() {
        let mut e = engine();
        let mut w = PadWindow::new(2, Cycle::ZERO, &mut e);
        w.set_depth(6, Cycle::new(100), &mut e);
        assert_eq!(w.buffered(), 6);
        assert_eq!(w.depth(), 6);
        w.set_depth(1, Cycle::new(200), &mut e);
        assert_eq!(w.buffered(), 1);
        // The remaining pad is still the one for the next counter: a use
        // long after is a hit.
        let (t, ctr) = w.use_pad(Cycle::new(5_000), &mut e);
        assert_eq!(t, PadTiming::Hit);
        assert_eq!(ctr, 0);
    }

    #[test]
    fn set_target_at_the_current_depth_issues_nothing() {
        // Every use leaves at least the target depth buffered, so
        // re-applying an unchanged target (what an idle Dynamic interval
        // boundary would do) never issues a generation.
        let mut e = engine();
        let mut w = PadWindow::new(4, Cycle::ZERO, &mut e);
        let reapply = |w: &mut PadWindow, e: &mut AesEngine, now: u64| {
            let before = e.issued();
            w.set_target(w.depth(), Cycle::new(now), e);
            assert_eq!(e.issued(), before, "re-target at cycle {now}");
        };
        assert_eq!(w.use_pad(Cycle::new(1_000), &mut e).0, PadTiming::Hit);
        reapply(&mut w, &mut e, 1_000);
        // Drain the window, then take a pad still in flight: a partial hit.
        for _ in 0..4 {
            w.use_pad(Cycle::new(2_000), &mut e);
        }
        let (t, _) = w.use_pad(Cycle::new(2_010), &mut e);
        assert!(matches!(t, PadTiming::Partial { .. }), "got {t:?}");
        reapply(&mut w, &mut e, 2_010);
        // An out-of-sync counter resyncs the window.
        let ctr = w.next_counter() + 5;
        assert_eq!(
            w.use_pad_for(ctr, Cycle::new(3_000), &mut e),
            PadTiming::Miss
        );
        reapply(&mut w, &mut e, 3_000);
        // An over-full window (target lowered) shrinks only by attrition.
        w.set_target(2, Cycle::new(4_000), &mut e);
        w.use_pad(Cycle::new(5_000), &mut e);
        assert_eq!(w.buffered(), 3);
        reapply(&mut w, &mut e, 5_000);
    }

    #[test]
    fn stats_accumulation() {
        let mut s = OtpStats::default();
        let lat = Duration::cycles(40);
        s.record(Direction::Send, PadTiming::Hit, lat);
        s.record(Direction::Send, PadTiming::Miss, lat);
        s.record(
            Direction::Recv,
            PadTiming::Partial {
                remaining: Duration::cycles(10),
            },
            lat,
        );
        assert_eq!(s.count(Direction::Send, PadClass::Hit), 1);
        assert_eq!(s.count(Direction::Send, PadClass::Miss), 1);
        assert_eq!(s.total(Direction::Send), 2);
        assert_eq!(s.total(Direction::Recv), 1);
        assert_eq!(s.fraction(Direction::Send, PadClass::Hit), 0.5);
        assert_eq!(s.hidden_fraction(Direction::Recv), 1.0);
        assert_eq!(s.exposed_cycles(Direction::Send), 1 + 41);
        assert_eq!(s.exposed_cycles(Direction::Recv), 11);
    }

    #[test]
    fn stats_merge() {
        let lat = Duration::cycles(40);
        let mut a = OtpStats::default();
        let mut b = OtpStats::default();
        a.record(Direction::Send, PadTiming::Hit, lat);
        b.record(Direction::Send, PadTiming::Hit, lat);
        b.record(Direction::Recv, PadTiming::Miss, lat);
        a.merge(&b);
        assert_eq!(a.count(Direction::Send, PadClass::Hit), 2);
        assert_eq!(a.count(Direction::Recv, PadClass::Miss), 1);
    }

    #[test]
    fn empty_stats_fractions_are_zero() {
        let s = OtpStats::default();
        assert_eq!(s.fraction(Direction::Send, PadClass::Hit), 0.0);
        assert_eq!(s.hidden_fraction(Direction::Recv), 0.0);
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn window_never_exceeds_depth(
                depth in 0u32..8,
                gaps in proptest::collection::vec(0u64..200, 1..100)) {
                let mut e = AesEngine::new(Duration::cycles(40));
                let mut w = PadWindow::new(depth, Cycle::ZERO, &mut e);
                let mut now = Cycle::ZERO;
                for g in gaps {
                    now += Duration::cycles(g);
                    w.use_pad(now, &mut e);
                    prop_assert!(w.buffered() <= depth as usize);
                }
            }

            #[test]
            fn counters_always_monotonic(
                gaps in proptest::collection::vec(0u64..200, 1..100)) {
                let mut e = AesEngine::new(Duration::cycles(40));
                let mut w = PadWindow::new(4, Cycle::ZERO, &mut e);
                let mut now = Cycle::ZERO;
                let mut prev: Option<u64> = None;
                for g in gaps {
                    now += Duration::cycles(g);
                    let (_, ctr) = w.use_pad(now, &mut e);
                    if let Some(p) = prev {
                        prop_assert_eq!(ctr, p + 1);
                    }
                    prev = Some(ctr);
                }
            }

            #[test]
            fn fully_spaced_requests_always_hit(
                depth in 1u32..8,
                n in 1usize..50) {
                // Requests spaced by more than the full latency can always
                // be served from the refilled window.
                let mut e = AesEngine::new(Duration::cycles(40));
                let mut w = PadWindow::new(depth, Cycle::ZERO, &mut e);
                let mut now = Cycle::new(100);
                for _ in 0..n {
                    let (t, _) = w.use_pad(now, &mut e);
                    prop_assert_eq!(PadClass::from(t), PadClass::Hit);
                    now += Duration::cycles(100);
                }
            }
        }
    }
}
