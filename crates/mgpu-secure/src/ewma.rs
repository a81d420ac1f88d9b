//! EWMA-based traffic monitoring and OTP buffer partitioning — the paper's
//! Formulas 1–4 (§IV-B).
//!
//! Every interval `T`, each node:
//!
//! 1. updates the **send-direction weight** `S_{i+1} = (1-α)·S_i +
//!    α·(SReq_i / (SReq_i + RReq_i))` (Formula 1),
//! 2. splits the total OTP buffer pool between directions:
//!    `SPad = Total·S`, `RPad = Total - SPad` (Formula 2),
//! 3. updates **per-peer weights** within each direction by the same EWMA
//!    with rate β (Formula 3), and
//! 4. assigns each peer its share `SPad^m = SPad·S^m` (Formula 4).
//!
//! The paper's formulas produce real numbers; buffers are discrete. We use
//! largest-remainder rounding so the integer allocation always conserves
//! the pool exactly — an invariant the property tests pin down.

use mgpu_types::{DenseNodeMap, NodeId};

/// Splits `total` units proportionally to `weights` using the
/// largest-remainder method, writing each share to the matching slot of
/// `out`. The shares always sum to `total`.
///
/// `order` is scratch space for the remainder order; its contents are
/// overwritten. Passing the same `Vec` on every call keeps the split
/// allocation-free once it has grown to `weights.len()`.
///
/// Weights are sanitized before use: negative and **non-finite** values
/// (NaN, ±inf) are treated as zero. EWMA state can only go non-finite if a
/// caller feeds in a corrupted weight vector, but a metadata allocator must
/// not panic (or silently hand +inf the whole pool) on bad telemetry — it
/// degrades to ignoring the bad entry. If every weight sanitizes to zero
/// the split is as even as possible (earlier indices get the extras).
///
/// # Panics
///
/// Panics if `out` and `weights` differ in length.
///
/// # Examples
///
/// ```
/// use mgpu_secure::ewma::partition;
///
/// let mut order = Vec::new();
/// let mut out = [0u32; 2];
/// partition(10, &[0.74, 0.26], &mut out, &mut order);
/// assert_eq!(out, [7, 3]);
/// let mut out = [0u32; 3];
/// partition(7, &[1.0, 1.0, 1.0], &mut out, &mut order);
/// assert_eq!(out.iter().sum::<u32>(), 7);
/// // Non-finite weights are ignored, not propagated.
/// partition(8, &[f64::NAN, 1.0, f64::INFINITY], &mut out, &mut order);
/// assert_eq!(out, [0, 8, 0]);
/// ```
pub fn partition(total: u32, weights: &[f64], out: &mut [u32], order: &mut Vec<(f64, usize)>) {
    assert_eq!(out.len(), weights.len(), "one share per weight");
    if weights.is_empty() {
        return;
    }
    let clamp = |w: f64| {
        if w.is_finite() {
            w.clamp(0.0, MAX_WEIGHT)
        } else {
            0.0
        }
    };
    let sum: f64 = weights.iter().map(|&w| clamp(w)).sum();
    let even = f64::from(total) / weights.len() as f64;
    // Each share's floor, plus its quota's fractional part paired with
    // its index. The floor is a truncating cast, not libm's `floor` (a
    // call on baseline x86_64), and the two agree bit for bit here:
    // every quota is finite and in [0, 2^32). `clamp` puts each weight in
    // [0, MAX_WEIGHT], so `total · w` cannot overflow; float sums of
    // non-negative terms never fall below a term, so `w <= sum` and the
    // quota stays at most `total` plus rounding; and `even` is
    // `total / n`. On such a value truncation is floor. The one sign
    // difference, `-0.0` (a weight of `-0.0` may clamp to itself), is
    // folded into `+0.0` by adding `0.0`, so its fractional part is
    // `+0.0` as with libm, where `-0.0 - floor(-0.0)` is `+0.0`.
    order.clear();
    let mut assigned = 0u32;
    for (i, (&w, share)) in weights.iter().zip(out.iter_mut()).enumerate() {
        let quota = if sum > 0.0 {
            f64::from(total) * clamp(w) / sum
        } else {
            even
        } + 0.0;
        *share = quota as u32;
        assigned += *share;
        order.push((quota - f64::from(*share), i));
    }
    // Largest fraction first, lower index first among equal fractions: a
    // total order, so the unstable sort is deterministic.
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let leftover = (total - assigned) as usize;
    for &(_, i) in order.iter().take(leftover) {
        out[i] += 1;
    }
}

/// The largest weight [`partition`] uses; larger finite weights count as
/// this much. `u32::MAX · MAX_WEIGHT` is finite, so no quota overflows.
/// Every caller's weights are EWMA fractions in [0, 1].
const MAX_WEIGHT: f64 = f64::MAX / 4_294_967_296.0;

/// Per-node EWMA monitor implementing the paper's Formulas 1–4.
///
/// # Examples
///
/// ```
/// use mgpu_secure::ewma::EwmaAllocator;
/// use mgpu_types::{DenseNodeMap, NodeId};
///
/// let peers = vec![NodeId::CPU, NodeId::gpu(2)];
/// let mut mon = EwmaAllocator::new(&peers, 0.9, 0.5);
/// // A send-heavy interval toward GPU2:
/// for _ in 0..90 { mon.observe_send(NodeId::gpu(2)); }
/// for _ in 0..10 { mon.observe_recv(NodeId::CPU); }
/// let (mut send, mut recv) = ([0u32; 2], [0u32; 2]);
/// mon.end_interval(32, &mut send, &mut recv);
/// assert_eq!(send.iter().sum::<u32>() + recv.iter().sum::<u32>(), 32);
/// // The send direction won more than half the pool.
/// assert!(send.iter().sum::<u32>() > 16);
/// ```
#[derive(Debug, Clone)]
pub struct EwmaAllocator {
    alpha: f64,
    beta: f64,
    peers: Vec<NodeId>,
    /// Registration slot of each peer.
    slots: DenseNodeMap<usize>,
    /// Send-direction weight `S_i` (Formula 1).
    s: f64,
    /// Per-peer send weights `S^m_i` (Formula 3).
    send_weights: Vec<f64>,
    /// Per-peer recv weights `R^m_i`.
    recv_weights: Vec<f64>,
    /// Interval counters `SReq^m_i` / `RReq^m_i`.
    send_counts: Vec<u64>,
    recv_counts: Vec<u64>,
    /// Whether an interval has closed and nothing was observed since.
    quiet: bool,
    /// Guaranteed minimum pads per peer per direction.
    floor: u32,
    intervals: u64,
    /// Scratch for one direction's square-rooted weights.
    sqrt_weights: Vec<f64>,
    /// Scratch for [`partition`]'s remainder order.
    order: Vec<(f64, usize)>,
}

impl EwmaAllocator {
    /// Creates a monitor for a node with the given peers and EWMA rates.
    ///
    /// Initial weights are uniform: the send direction starts at 0.5 and
    /// each peer at `1 / peers` — matching the paper's even initial
    /// allocation "similar to the Private mechanism".
    ///
    /// An empty peer set is allowed (a single-node system has nobody to
    /// exchange pads with); `end_interval` then allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the rates are outside `(0, 1]`.
    #[must_use]
    pub fn new(peers: &[NodeId], alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta in (0,1]");
        let n = peers.len();
        EwmaAllocator {
            alpha,
            beta,
            peers: peers.to_vec(),
            slots: peers.iter().enumerate().map(|(i, &p)| (p, i)).collect(),
            s: 0.5,
            send_weights: vec![1.0 / n as f64; n],
            recv_weights: vec![1.0 / n as f64; n],
            send_counts: vec![0; n],
            recv_counts: vec![0; n],
            quiet: false,
            floor: 0,
            intervals: 0,
            sqrt_weights: vec![0.0; n],
            order: Vec::with_capacity(n),
        }
    }

    /// Sets a guaranteed minimum of `floor` pads per peer per direction;
    /// only the remainder of the pool is EWMA-partitioned. Proportional
    /// allocation alone over-concentrates: a pair with a small *share* of
    /// the traffic still receives full-size bursts, and a starved window
    /// serializes pad generation for the whole burst. (The stall cost of a
    /// burst is inversely proportional to window depth, so the optimal
    /// depth grows like the square root of a pair's share — a floor plus
    /// proportional flexible pool approximates that.)
    #[must_use]
    pub fn with_floor(mut self, floor: u32) -> Self {
        self.floor = floor;
        self
    }

    fn peer_index(&self, peer: NodeId) -> usize {
        *self
            .slots
            .get(peer)
            .expect("peer registered with allocator")
    }

    /// Records one send request toward `peer` in the current interval.
    ///
    /// # Panics
    ///
    /// Panics if `peer` was not registered at construction.
    pub fn observe_send(&mut self, peer: NodeId) {
        let i = self.peer_index(peer);
        self.send_counts[i] += 1;
        self.quiet = false;
    }

    /// Records one receive request from `peer` in the current interval.
    ///
    /// # Panics
    ///
    /// Panics if `peer` was not registered at construction.
    pub fn observe_recv(&mut self, peer: NodeId) {
        let i = self.peer_index(peer);
        self.recv_counts[i] += 1;
        self.quiet = false;
    }

    /// Whether an interval has closed and nothing was observed since.
    /// Closing now would then leave every weight unchanged (Formulas 1
    /// and 3 skip a direction with no traffic) and return exactly the
    /// allocation of the last close.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Current send-direction weight `S_i`.
    #[must_use]
    pub fn send_weight(&self) -> f64 {
        self.s
    }

    /// Per-peer send weights `S^m_i` (Formula 3), in registration order.
    #[must_use]
    pub fn send_weights(&self) -> &[f64] {
        &self.send_weights
    }

    /// Per-peer recv weights `R^m_i`, in registration order.
    #[must_use]
    pub fn recv_weights(&self) -> &[f64] {
        &self.recv_weights
    }

    /// Peers in registration order (parallel to the weight slices).
    #[must_use]
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Number of completed intervals.
    #[must_use]
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Closes the current interval: applies Formulas 1 and 3, resets the
    /// counters, and writes the integer allocation of `total_buffers`
    /// (Formulas 2 and 4 with largest-remainder rounding, on the pool
    /// remaining above the per-peer floor) to `send` and `recv`, one
    /// entry per peer in registration order.
    ///
    /// With no registered peers nothing is allocated (and the interval
    /// still counts).
    ///
    /// # Panics
    ///
    /// Panics if `send` or `recv` does not hold one entry per peer.
    pub fn end_interval(&mut self, total_buffers: u32, send: &mut [u32], recv: &mut [u32]) {
        let n = self.peers.len();
        assert!(send.len() == n && recv.len() == n, "one entry per peer");
        self.intervals += 1;
        self.quiet = true;
        if n == 0 {
            return;
        }
        let send_total: u64 = self.send_counts.iter().sum();
        let recv_total: u64 = self.recv_counts.iter().sum();

        // Formula 1 — only meaningful when the interval saw any traffic.
        if send_total + recv_total > 0 {
            let measured = send_total as f64 / (send_total + recv_total) as f64;
            self.s = (1.0 - self.alpha) * self.s + self.alpha * measured;
        }

        // Formula 3 per direction — skipped for a direction with no
        // traffic (the measured fractions would be 0/0).
        if send_total > 0 {
            for (w, &c) in self.send_weights.iter_mut().zip(&self.send_counts) {
                let measured = c as f64 / send_total as f64;
                *w = (1.0 - self.beta) * *w + self.beta * measured;
            }
        }
        if recv_total > 0 {
            for (w, &c) in self.recv_weights.iter_mut().zip(&self.recv_counts) {
                let measured = c as f64 / recv_total as f64;
                *w = (1.0 - self.beta) * *w + self.beta * measured;
            }
        }

        self.send_counts.iter_mut().for_each(|c| *c = 0);
        self.recv_counts.iter_mut().for_each(|c| *c = 0);

        // Reserve the floor, then apply Formula 2 (direction split) and
        // Formula 4 (per-peer split) to the flexible remainder.
        let n = n as u32;
        let floor = self.floor.min(total_buffers / (2 * n));
        let flexible = total_buffers - 2 * n * floor;
        let mut split = [0u32; 2];
        partition(
            flexible,
            &[self.s, 1.0 - self.s],
            &mut split,
            &mut self.order,
        );
        // Buffers are partitioned by the square root of the EWMA weights:
        // a pair's burst-drain stall scales inversely with its window
        // depth, so for bursts of similar size arriving with probability
        // w_m the expected stall Σ w_m / d_m is minimized by d_m ∝ √w_m.
        for (pool, weights, out) in [
            (split[0], &self.send_weights, send),
            (split[1], &self.recv_weights, recv),
        ] {
            for (r, w) in self.sqrt_weights.iter_mut().zip(weights) {
                *r = w.max(0.0).sqrt();
            }
            partition(pool, &self.sqrt_weights, out, &mut self.order);
            out.iter_mut().for_each(|a| *a += floor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers() -> Vec<NodeId> {
        vec![NodeId::CPU, NodeId::gpu(2), NodeId::gpu(3), NodeId::gpu(4)]
    }

    /// `partition` into a fresh vector.
    fn split(total: u32, weights: &[f64]) -> Vec<u32> {
        let mut out = vec![0; weights.len()];
        partition(total, weights, &mut out, &mut Vec::new());
        out
    }

    /// Per-peer `(send, recv)` pads of one close of `m`.
    fn close(m: &mut EwmaAllocator, total: u32) -> (Vec<u32>, Vec<u32>) {
        let n = m.peers().len();
        let (mut send, mut recv) = (vec![0; n], vec![0; n]);
        m.end_interval(total, &mut send, &mut recv);
        (send, recv)
    }

    fn pool(alloc: &(Vec<u32>, Vec<u32>)) -> u32 {
        alloc.0.iter().sum::<u32>() + alloc.1.iter().sum::<u32>()
    }

    #[test]
    fn partition_conserves_total() {
        assert_eq!(split(32, &[0.25; 4]), vec![8, 8, 8, 8]);
        assert_eq!(split(10, &[0.9, 0.1]), vec![9, 1]);
        assert_eq!(split(0, &[0.5, 0.5]), vec![0, 0]);
        assert_eq!(split(5, &[]), Vec::<u32>::new());
    }

    #[test]
    fn partition_handles_zero_weights() {
        assert_eq!(split(6, &[0.0, 0.0, 0.0]), vec![2, 2, 2]);
        assert_eq!(split(7, &[0.0, 0.0, 0.0]).iter().sum::<u32>(), 7);
        // Negative weights are clamped.
        assert_eq!(split(4, &[-1.0, 1.0]), vec![0, 4]);
    }

    #[test]
    fn formula_1_hand_computed() {
        // S_0 = 0.5, α = 0.9; interval with 90 sends / 10 recvs:
        // S_1 = 0.1*0.5 + 0.9*0.9 = 0.86.
        let p = peers();
        let mut m = EwmaAllocator::new(&p, 0.9, 0.5);
        for _ in 0..90 {
            m.observe_send(NodeId::gpu(2));
        }
        for _ in 0..10 {
            m.observe_recv(NodeId::gpu(2));
        }
        close(&mut m, 32);
        assert!((m.send_weight() - 0.86).abs() < 1e-12);
    }

    #[test]
    fn formula_3_hand_computed() {
        // β = 0.5, initial per-peer weight 0.25. Interval sends: all to
        // GPU2. New weight for GPU2 = 0.5*0.25 + 0.5*1.0 = 0.625; others
        // 0.5*0.25 = 0.125.
        let p = peers();
        let mut m = EwmaAllocator::new(&p, 0.9, 0.5);
        for _ in 0..40 {
            m.observe_send(NodeId::gpu(2));
        }
        let (send, _) = close(&mut m, 1000);
        // S_1 = 0.1*0.5 + 0.9*1.0 = 0.95 -> send pool 950.
        let send_pool: u32 = send.iter().sum();
        assert_eq!(send_pool, 950);
        // Buffers split by sqrt-weights: √0.625 / (√0.625 + 3·√0.125).
        let share = 0.625f64.sqrt() / (0.625f64.sqrt() + 3.0 * 0.125f64.sqrt());
        let expected = (950.0 * share).round() as u32;
        let got = send[1];
        assert!(
            got.abs_diff(expected) <= 1,
            "got {got}, expected about {expected}"
        );
    }

    #[test]
    fn allocation_always_conserves_pool() {
        let p = peers();
        let mut m = EwmaAllocator::new(&p, 0.9, 0.5);
        for round in 0..50u64 {
            for (i, &peer) in p.iter().enumerate() {
                for _ in 0..(round * i as u64) % 17 {
                    m.observe_send(peer);
                }
                for _ in 0..(round + i as u64) % 5 {
                    m.observe_recv(peer);
                }
            }
            let alloc = close(&mut m, 32);
            assert_eq!(pool(&alloc), 32, "round {round}");
        }
        assert_eq!(m.intervals(), 50);
    }

    #[test]
    fn idle_interval_keeps_weights() {
        let p = peers();
        let mut m = EwmaAllocator::new(&p, 0.9, 0.5);
        let before = m.send_weight();
        let (send, recv) = close(&mut m, 32);
        assert_eq!(m.send_weight(), before);
        // Uniform weights -> even split of each direction's pool.
        assert_eq!(send[0], 4);
        assert_eq!(recv[3], 4);
    }

    #[test]
    fn idle_close_after_busy_one_repeats_its_allocation() {
        // The fact the Dynamic scheme's idle-boundary skip rests on: with
        // nothing observed since the last close, a close moves no weight
        // and returns the same allocation, bit for bit.
        let p = peers();
        let mut m = EwmaAllocator::new(&p, 0.9, 0.5).with_floor(2);
        assert!(!m.is_quiet(), "no interval has closed yet");
        for (i, &peer) in p.iter().enumerate() {
            for _ in 0..3 * i + 1 {
                m.observe_send(peer);
            }
            for _ in 0..5 - i {
                m.observe_recv(peer);
            }
        }
        let busy = close(&mut m, 64);
        assert!(m.is_quiet());
        let (s, send_w, recv_w) = (
            m.send_weight(),
            m.send_weights().to_vec(),
            m.recv_weights().to_vec(),
        );
        let idle = close(&mut m, 64);
        assert_eq!(idle, busy);
        assert_eq!(m.send_weight().to_bits(), s.to_bits());
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(m.send_weights()), bits(&send_w));
        assert_eq!(bits(m.recv_weights()), bits(&recv_w));
        // One observation ends the quiet spell.
        m.observe_recv(NodeId::CPU);
        assert!(!m.is_quiet());
    }

    #[test]
    fn skewed_traffic_shifts_allocation_over_time() {
        let p = peers();
        let mut m = EwmaAllocator::new(&p, 0.9, 0.5);
        let mut last = None;
        for _ in 0..10 {
            for _ in 0..100 {
                m.observe_send(NodeId::gpu(3));
            }
            for _ in 0..10 {
                m.observe_recv(NodeId::CPU);
            }
            last = Some(close(&mut m, 32));
        }
        let (send, recv) = last.expect("ran intervals");
        // GPU3 (slot 2) dominates the send direction.
        let g3 = send[2];
        for (&peer, &pads) in p.iter().zip(&send) {
            if peer != NodeId::gpu(3) {
                assert!(g3 > pads, "GPU3 ({g3}) should beat {peer} ({pads})");
            }
        }
        // Receive pool is small but non-zero and concentrated on the CPU.
        let recv_pool: u32 = recv.iter().sum();
        assert!(recv_pool < 8, "recv pool {recv_pool}");
    }

    #[test]
    fn weights_remain_normalized() {
        let p = peers();
        let mut m = EwmaAllocator::new(&p, 0.9, 0.5);
        for i in 0..20u64 {
            for _ in 0..(i % 7) {
                m.observe_send(p[(i % 4) as usize]);
            }
            for _ in 0..((i + 3) % 4) {
                m.observe_recv(p[((i + 1) % 4) as usize]);
            }
            close(&mut m, 32);
            let ssum: f64 = m.send_weights.iter().sum();
            let rsum: f64 = m.recv_weights.iter().sum();
            assert!((ssum - 1.0).abs() < 1e-9, "send weights sum {ssum}");
            assert!((rsum - 1.0).abs() < 1e-9, "recv weights sum {rsum}");
        }
    }

    #[test]
    fn partition_sanitizes_non_finite_weights() {
        // NaN and ±inf act like zero weight; the finite entries share.
        assert_eq!(split(8, &[f64::NAN, 1.0, f64::INFINITY]), vec![0, 8, 0]);
        assert_eq!(split(6, &[f64::NEG_INFINITY, 1.0, 1.0]), vec![0, 3, 3]);
        // All non-finite -> even split, still conserved.
        assert_eq!(split(7, &[f64::NAN, f64::INFINITY]).iter().sum::<u32>(), 7);
    }

    #[test]
    fn empty_peers_trivial_allocation() {
        let mut m = EwmaAllocator::new(&[], 0.9, 0.5).with_floor(2);
        let alloc = close(&mut m, 32);
        assert!(alloc.0.is_empty());
        assert!(alloc.1.is_empty());
        assert_eq!(m.intervals(), 1);
    }

    #[test]
    fn single_peer_gets_whole_pool() {
        let mut m = EwmaAllocator::new(&[NodeId::gpu(2)], 0.9, 0.5);
        for _ in 0..10 {
            m.observe_send(NodeId::gpu(2));
        }
        let (send, recv) = close(&mut m, 32);
        assert_eq!(send[0] + recv[0], 32);
    }

    #[test]
    fn floor_clamped_when_pool_smaller_than_2n() {
        // 4 peers, floor 8 -> full floors would need 64 pads; only 6
        // available, so the floor clamps to 6 / 8 = 0 and the whole pool
        // is EWMA-partitioned. The pool is still conserved exactly.
        let p = peers();
        let mut m = EwmaAllocator::new(&p, 0.9, 0.5).with_floor(8);
        assert_eq!(pool(&close(&mut m, 6)), 6);
        // Clamped-floor boundary: exactly 2n pads -> floor 1 each.
        let mut m = EwmaAllocator::new(&p, 0.9, 0.5).with_floor(8);
        let alloc = close(&mut m, 8);
        assert_eq!(pool(&alloc), 8);
        assert!(alloc.0.iter().chain(&alloc.1).all(|&a| a >= 1));
    }

    #[test]
    #[should_panic(expected = "registered")]
    fn unknown_peer_panics() {
        let mut m = EwmaAllocator::new(&[NodeId::CPU], 0.9, 0.5);
        m.observe_send(NodeId::gpu(7));
    }

    #[test]
    #[should_panic(expected = "registered")]
    fn unregistered_id_inside_the_slot_table_panics() {
        // GPU1 lies between two registered ids but is not a peer.
        let mut m = EwmaAllocator::new(&[NodeId::CPU, NodeId::gpu(2)], 0.9, 0.5);
        m.observe_recv(NodeId::gpu(1));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let _ = EwmaAllocator::new(&[NodeId::CPU], 0.0, 0.5);
    }

    /// `partition` as it was before the floor became a cast: libm
    /// `floor`, weights clamped by `max(0.0)` alone. Returns the shares
    /// and the sorted remainder order, fractions as bits.
    fn partition_libm(total: u32, weights: &[f64]) -> (Vec<u32>, Vec<(u64, usize)>) {
        let mut out = vec![0u32; weights.len()];
        let mut order: Vec<(f64, usize)> = Vec::new();
        let clamp = |w: f64| if w.is_finite() { w.max(0.0) } else { 0.0 };
        let sum: f64 = weights.iter().map(|&w| clamp(w)).sum();
        let even = f64::from(total) / weights.len() as f64;
        let mut assigned = 0u32;
        for (i, (&w, share)) in weights.iter().zip(out.iter_mut()).enumerate() {
            let quota = if sum > 0.0 {
                f64::from(total) * clamp(w) / sum
            } else {
                even
            };
            let floor = quota.floor();
            *share = floor as u32;
            assigned += *share;
            order.push((quota - floor, i));
        }
        order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let leftover = (total - assigned) as usize;
        for &(_, i) in order.iter().take(leftover) {
            out[i] += 1;
        }
        (out, order.iter().map(|&(f, i)| (f.to_bits(), i)).collect())
    }

    /// Asserts `partition` matches [`partition_libm`] bit for bit, shares
    /// and remainder order both.
    fn assert_matches_libm(total: u32, weights: &[f64]) {
        let mut out = vec![0u32; weights.len()];
        let mut order = Vec::new();
        partition(total, weights, &mut out, &mut order);
        let order: Vec<(u64, usize)> = order.iter().map(|&(f, i)| (f.to_bits(), i)).collect();
        assert_eq!(
            (out, order),
            partition_libm(total, weights),
            "total {total}, weights {weights:?}"
        );
    }

    #[test]
    fn cast_floor_matches_libm_on_signed_zeros_and_ties() {
        for weights in [
            vec![-0.0, 1.0, 1.0, 0.0],
            vec![-0.0, -0.0],
            vec![0.0, -0.0, 0.0],
            vec![1.0; 7],
            vec![0.25, -0.0, 0.25, 0.5, 0.0, -3.0, f64::NAN],
            vec![f64::INFINITY, -0.0, f64::NEG_INFINITY],
        ] {
            for total in [0, 1, 2, 3, 7, 10, 31, 1_000, u32::MAX] {
                assert_matches_libm(total, &weights);
            }
        }
    }

    #[test]
    fn weights_too_large_to_scale_still_conserve() {
        // Uncapped, `total · w` overflows to an infinite quota here; a
        // split must still conserve the pool.
        for weights in [[f64::MAX, 1.0], [1e300, 1e299], [f64::MAX, f64::MAX]] {
            for total in [1, 10, u32::MAX] {
                assert_eq!(split(total, &weights).iter().sum::<u32>(), total);
            }
        }
        assert_eq!(split(10, &[f64::MAX, 0.0]), [10, 0]);
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn cast_floor_matches_libm_bit_for_bit(
                big in any::<u32>(),
                tagged in proptest::collection::vec((0u8..10, -10.0f64..10.0), 1..18)) {
                // Signed zeros, ties and non-finite values come from tags
                // (the vendored proptest stand-in has no prop_oneof).
                let weights: Vec<f64> = tagged
                    .into_iter()
                    .map(|(tag, w)| match tag {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => -0.0,
                        3 => 0.0,
                        4 | 5 => 1.0,
                        6 => w.abs().sqrt() / 4.0,
                        _ => w,
                    })
                    .collect();
                for total in [0, 1, 5, big % 600, big] {
                    assert_matches_libm(total, &weights);
                }
            }

            #[test]
            #[test]
            fn partition_sum_invariant(total in 0u32..500,
                                       weights in proptest::collection::vec(0.0f64..10.0, 1..10)) {
                let alloc = split(total, &weights);
                prop_assert_eq!(alloc.iter().sum::<u32>(), total);
                prop_assert_eq!(alloc.len(), weights.len());
            }

            #[test]
            fn partition_conserves_with_nonfinite_weights(
                total in 0u32..500,
                tagged in proptest::collection::vec((0u8..5, -10.0f64..10.0), 1..10)) {
                // The vendored proptest stand-in has no prop_oneof, so
                // non-finite values are injected by mapping a tag.
                let weights: Vec<f64> = tagged
                    .into_iter()
                    .map(|(tag, w)| match tag {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        _ => w,
                    })
                    .collect();
                let alloc = split(total, &weights);
                prop_assert_eq!(alloc.iter().sum::<u32>(), total);
                prop_assert_eq!(alloc.len(), weights.len());
            }

            #[test]
            fn partition_ignores_stale_scratch(
                total in 0u32..500,
                weights in proptest::collection::vec(0.0f64..10.0, 1..10),
                stale in proptest::collection::vec((0.0f64..1.0, 0usize..20), 0..20)) {
                let mut order = stale;
                let mut out = vec![7; weights.len()];
                partition(total, &weights, &mut out, &mut order);
                prop_assert_eq!(out, split(total, &weights));
            }

            #[test]
            fn allocator_conserves_under_arbitrary_traffic(
                total in 1u32..256,
                traffic in proptest::collection::vec((0usize..4, any::<bool>()), 0..200)) {
                let p = vec![NodeId::CPU, NodeId::gpu(2), NodeId::gpu(3), NodeId::gpu(4)];
                let mut m = EwmaAllocator::new(&p, 0.9, 0.5);
                for (peer_idx, is_send) in traffic {
                    if is_send {
                        m.observe_send(p[peer_idx]);
                    } else {
                        m.observe_recv(p[peer_idx]);
                    }
                }
                prop_assert_eq!(pool(&close(&mut m, total)), total);
            }
        }
    }
}
