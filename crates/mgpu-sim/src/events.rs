//! Deterministic discrete-event queue.
//!
//! Events are ordered by time; ties break by insertion order (FIFO), which
//! keeps simulations deterministic regardless of payload type.
//!
//! Two implementations share that contract:
//!
//! * [`EventQueue`] — a calendar queue (bucketed time wheel). Near-future
//!   events (within [`WHEEL_SPAN`] cycles of the clock) go straight into a
//!   per-cycle bucket, so `schedule` and `pop` are O(1) with no heap sift.
//!   The buckets are intrusive FIFO lists threaded through one slab of
//!   slots with a free list, and a one-bit-per-bucket occupancy bitmap
//!   finds the earliest non-empty bucket a word at a time, so the wheel
//!   costs three allocations however many buckets it has, and a steady
//!   backlog recycles slots without allocating. Far-future events park in
//!   an overflow binary heap and migrate into the wheel as the clock
//!   advances. This is the engine's hot-path queue: simulation event gaps
//!   (link latency, DRAM access, flush timeouts) are typically a few
//!   hundred cycles, far inside the wheel span.
//! * [`HeapEventQueue`] — the original binary-heap queue, kept as the
//!   reference oracle. Property tests drive both with the same operation
//!   sequences and require identical pop streams.
//!
//! # Ordering equivalence
//!
//! The wheel reproduces heap order exactly because of three invariants:
//!
//! 1. Every pending event with time `< horizon` lives in the wheel;
//!    everything at or past `horizon` lives in the overflow heap. The
//!    horizon only advances (with the clock), and overflow events migrate
//!    into the wheel the moment the advancing horizon passes them.
//! 2. A bucket's entries are always in ascending sequence order: direct
//!    inserts append in call (= sequence) order, and a migrated batch for
//!    some time `t` lands before any direct insert for `t` can exist —
//!    a direct insert for `t` requires `t < horizon`, which first becomes
//!    true at the very migration that drains every overflow entry for `t`
//!    (all of which carry smaller sequence numbers).
//! 3. Wheel times lie in `[now, now + WHEEL_SPAN)`, so walking the buckets
//!    cyclically from `now & WHEEL_MASK` visits them in time order.

use mgpu_types::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Cycles covered by the calendar wheel ahead of the clock. Power of two
/// so bucket indexing is a mask, sized to swallow the simulator's typical
/// event horizons (link latencies ~100, DRAM ~200, flush timeouts ~160).
pub const WHEEL_SPAN: u64 = 1 << 12;

const WHEEL_MASK: u64 = WHEEL_SPAN - 1;

/// Words of the bucket-occupancy bitmap, one bit per bucket.
const WORDS: usize = (WHEEL_SPAN / 64) as usize;

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One scheduled entry: ordered by `(time, seq)` ascending.
struct Entry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first ordering.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One slab slot: a wheel entry linked into its bucket's list, or (with
/// `event: None`) a link of the free list.
struct Slot<E> {
    time: Cycle,
    next: u32,
    event: Option<E>,
}

/// A time-ordered event queue with FIFO tie-breaking, implemented as a
/// calendar queue (per-cycle buckets plus a far-future overflow heap).
///
/// # Examples
///
/// ```
/// use mgpu_sim::events::EventQueue;
/// use mgpu_types::Cycle;
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle::new(3), "late");
/// q.schedule(Cycle::new(1), "early");
/// q.schedule(Cycle::new(1), "early-second");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["early", "early-second", "late"]);
/// ```
pub struct EventQueue<E> {
    /// Slot storage shared by every bucket list and the free list. It
    /// grows to the peak wheel backlog and is recycled from then on.
    slots: Vec<Slot<E>>,
    /// Head of the free list of `slots`.
    free: u32,
    /// First and last slot of each bucket's list, meaningful while the
    /// bucket's `occupied` bit is set. Bucket `t & WHEEL_MASK` holds the
    /// events for the unique time `t` inside `[now, horizon)` that maps to
    /// it, FIFO in sequence order (see module docs).
    heads: Box<[u32; WHEEL_SPAN as usize]>,
    tails: Box<[u32; WHEEL_SPAN as usize]>,
    /// Bit `b % 64` of word `b / 64` is set while bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Pending events currently in the wheel.
    wheel_len: usize,
    /// Exclusive upper bound of wheel coverage: wheel entries have
    /// `time < horizon`, overflow entries `time >= horizon`.
    horizon: u64,
    /// Far-future events, ordered `(time, seq)` ascending.
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            heads: Box::new([NIL; WHEEL_SPAN as usize]),
            tails: Box::new([NIL; WHEEL_SPAN as usize]),
            occupied: [0; WORDS],
            wheel_len: 0,
            horizon: WHEEL_SPAN,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time — an
    /// event cannot fire in the past.
    #[inline]
    pub fn schedule(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if time.as_u64() < self.horizon {
            self.push_wheel(time, event);
        } else {
            self.push_overflow(Entry { time, seq, event });
        }
    }

    /// Parks a far-future event in the overflow heap.
    #[cold]
    #[inline(never)]
    fn push_overflow(&mut self, entry: Entry<E>) {
        self.overflow.push(entry);
    }

    /// Appends an event to the tail of its bucket's list.
    #[inline]
    fn push_wheel(&mut self, time: Cycle, event: E) {
        let slot = Slot {
            time,
            next: NIL,
            event: Some(event),
        };
        let idx = if self.free == NIL {
            self.slots.push(slot);
            u32::try_from(self.slots.len() - 1).expect("wheel backlog fits u32")
        } else {
            let idx = self.free;
            self.free = self.slots[idx as usize].next;
            self.slots[idx as usize] = slot;
            idx
        };
        let b = (time.as_u64() & WHEEL_MASK) as usize;
        let bit = 1 << (b % 64);
        if self.occupied[b / 64] & bit == 0 {
            self.heads[b] = idx;
            self.occupied[b / 64] |= bit;
        } else {
            let tail = self.tails[b];
            self.slots[tail as usize].next = idx;
        }
        self.tails[b] = idx;
        self.wheel_len += 1;
    }

    /// The earliest non-empty bucket. Wheel times lie in
    /// `[now, now + WHEEL_SPAN)`, so the first set bit found walking the
    /// bitmap cyclically from the clock's bucket is the earliest time.
    /// Requires a non-empty wheel.
    #[inline]
    fn first_bucket(&self) -> usize {
        let start = (self.now.as_u64() & WHEEL_MASK) as usize;
        let word = start / 64;
        let upper = self.occupied[word] & (!0 << (start % 64));
        if upper != 0 {
            return word * 64 + upper.trailing_zeros() as usize;
        }
        // The last step revisits `word` whole: its bits below `start`
        // are the wheel's latest times.
        (1..=WORDS)
            .map(|k| (word + k) % WORDS)
            .find_map(|w| {
                let bits = self.occupied[w];
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            })
            .expect("non-empty wheel has an occupied bucket")
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.wheel_len == 0 {
            return self.pop_overflow();
        }
        // The wheel always wins: every wheel entry is earlier than the
        // horizon, every overflow entry at or past it.
        let b = self.first_bucket();
        let idx = self.heads[b];
        let slot = &mut self.slots[idx as usize];
        let (time, next) = (slot.time, slot.next);
        let event = slot.event.take().expect("listed slot holds an event");
        slot.next = self.free;
        self.free = idx;
        self.heads[b] = next;
        if next == NIL {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.wheel_len -= 1;
        self.advance_to(time);
        Some((time, event))
    }

    /// Pops the earliest overflow event once the wheel has run dry.
    #[cold]
    #[inline(never)]
    fn pop_overflow(&mut self) -> Option<(Cycle, E)> {
        let entry = self.overflow.pop()?;
        self.advance_to(entry.time);
        Some((entry.time, entry.event))
    }

    /// Moves the clock to `time` and the horizon with it, migrating the
    /// overflow events the horizon now covers. Most pops stay in the
    /// clock's cycle or leave the overflow untouched, so the migration
    /// itself is out of line.
    #[inline]
    fn advance_to(&mut self, time: Cycle) {
        self.now = time;
        let new_horizon = time.as_u64() + WHEEL_SPAN;
        if new_horizon > self.horizon {
            self.horizon = new_horizon;
            if self
                .overflow
                .peek()
                .is_some_and(|e| e.time.as_u64() < new_horizon)
            {
                self.migrate();
            }
        }
    }

    /// Moves overflow events the advanced horizon now covers into their
    /// buckets. The heap yields them `(time, seq)` ascending, so each
    /// bucket receives its migrants in sequence order.
    #[cold]
    #[inline(never)]
    fn migrate(&mut self) {
        while self
            .overflow
            .peek()
            .is_some_and(|e| e.time.as_u64() < self.horizon)
        {
            let e = self.overflow.pop().expect("peeked entry exists");
            self.push_wheel(e.time, e.event);
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> core::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

/// The original binary-heap event queue: same `(time, seq)` FIFO contract
/// as [`EventQueue`], kept as the reference oracle for equivalence tests.
///
/// # Examples
///
/// ```
/// use mgpu_sim::events::HeapEventQueue;
/// use mgpu_types::Cycle;
///
/// let mut q = HeapEventQueue::new();
/// q.schedule(Cycle::new(2), "b");
/// q.schedule(Cycle::new(1), "a");
/// assert_eq!(q.pop(), Some((Cycle::new(1), "a")));
/// ```
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time.
    pub fn schedule(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> core::fmt::Debug for HeapEventQueue<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HeapEventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(30), 3);
        q.schedule(Cycle::new(10), 1);
        q.schedule(Cycle::new(20), 2);
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle::new(5), i)));
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), ());
        q.pop();
        q.schedule(Cycle::new(5), ());
    }

    #[test]
    #[should_panic(expected = "past")]
    fn heap_scheduling_into_the_past_panics() {
        let mut q = HeapEventQueue::new();
        q.schedule(Cycle::new(10), ());
        q.pop();
        q.schedule(Cycle::new(5), ());
    }

    #[test]
    fn same_time_scheduling_after_pop_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(10), 1);
        q.pop();
        q.schedule(Cycle::new(10), 2); // now == 10; same-cycle follow-up
        assert_eq!(q.pop(), Some((Cycle::new(10), 2)));
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycle::new(7), "x");
        q.schedule(Cycle::new(3), "y");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        let far = Cycle::new(3 * WHEEL_SPAN + 17);
        q.schedule(far, "far");
        q.schedule(Cycle::new(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Cycle::new(1), "near")));
        assert_eq!(q.pop(), Some((far, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn migration_preserves_fifo_across_horizon() {
        let mut q = EventQueue::new();
        let far = Cycle::new(WHEEL_SPAN + 100); // beyond initial horizon
        q.schedule(far, 1); // seq 0: parks in overflow
        q.schedule(Cycle::new(500), 0); // wheel
        assert_eq!(q.pop(), Some((Cycle::new(500), 0))); // migrates `far`
        q.schedule(far, 2); // direct insert lands after the migrant
        assert_eq!(q.pop(), Some((far, 1)));
        assert_eq!(q.pop(), Some((far, 2)));
    }

    #[test]
    fn wheel_wraparound_reuses_buckets() {
        // March the clock several wheel spans forward in steps smaller
        // than the span, so buckets are reused many times.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..200u64 {
            t += 97; // co-prime with the span: hits every bucket eventually
            q.schedule(Cycle::new(t), i);
            expect.push((Cycle::new(t), i));
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn latest_wheel_time_below_the_clock_bucket_pops_last() {
        // The clock sits mid-word; the latest wheel time maps to a bucket
        // just below it in the same bitmap word, reached only after the
        // cyclic scan wraps through every other word.
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(40), 0);
        assert_eq!(q.pop(), Some((Cycle::new(40), 0)));
        let latest = Cycle::new(40 + WHEEL_SPAN - 1);
        q.schedule(latest, 2);
        q.schedule(Cycle::new(41 + 64), 1);
        assert_eq!(q.pop(), Some((Cycle::new(105), 1)));
        assert_eq!(q.pop(), Some((latest, 2)));
        assert!(q.is_empty());
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn output_is_sorted(times in proptest::collection::vec(0u64..1000, 1..200)) {
                let mut q = EventQueue::new();
                for &t in &times {
                    q.schedule(Cycle::new(t), t);
                }
                let mut prev = 0u64;
                while let Some((t, _)) = q.pop() {
                    prop_assert!(t.as_u64() >= prev);
                    prev = t.as_u64();
                }
            }

            #[test]
            fn all_events_are_delivered(times in proptest::collection::vec(0u64..1000, 0..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(Cycle::new(t), i);
                }
                let mut seen = std::collections::HashSet::new();
                while let Some((_, i)) = q.pop() {
                    seen.insert(i);
                }
                prop_assert_eq!(seen.len(), times.len());
            }

            /// The calendar queue and the heap oracle, driven by one
            /// operation stream (schedules at `now + delta`, interleaved
            /// pops while draining), must produce identical pop streams.
            /// Deltas deliberately straddle `WHEEL_SPAN` so events land on
            /// both sides of the horizon, and delta 0 exercises same-cycle
            /// FIFO ties.
            #[test]
            fn calendar_matches_heap_oracle(
                ops in proptest::collection::vec((0u8..4, 0usize..12), 1..300)
            ) {
                // Deltas deliberately straddle WHEEL_SPAN so events land on
                // both sides of the horizon; delta 0 exercises same-cycle
                // FIFO ties.
                const DELTAS: [u64; 12] = [
                    0, 1, 2, 3, 50, 100, 161, 1000,
                    WHEEL_SPAN - 1, WHEEL_SPAN, WHEEL_SPAN + 1, 3 * WHEEL_SPAN,
                ];
                let mut cal = EventQueue::new();
                let mut heap = HeapEventQueue::new();
                let mut payload = 0u32;
                let mut now = 0u64;
                for &(kind, delta_idx) in &ops {
                    let delta = DELTAS[delta_idx];
                    if kind == 3 {
                        // Interleaved pop: schedule-while-draining.
                        let popped = cal.pop();
                        prop_assert_eq!(popped, heap.pop());
                        if let Some((time, _)) = popped {
                            now = time.as_u64();
                        }
                    } else {
                        let time = Cycle::new(now + delta);
                        cal.schedule(time, payload);
                        heap.schedule(time, payload);
                        payload += 1;
                    }
                    prop_assert_eq!(cal.len(), heap.len());
                }
                loop {
                    let (a, b) = (cal.pop(), heap.pop());
                    prop_assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
