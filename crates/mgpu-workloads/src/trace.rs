//! Request-trace container with the pattern statistics the paper's
//! motivation figures report.
//!
//! A [`Trace`] wraps a request stream and computes:
//!
//! * per-window send/receive mixes as seen from one GPU (Fig. 13),
//! * per-window destination decomposition (Fig. 14), and
//! * block-accumulation intervals — how long it takes for `n` blocks to
//!   gather on a directed pair (Figs. 15/16).

use crate::request::Request;
use mgpu_sim::stats::Histogram;
use mgpu_types::{Cycle, NodeId};
use std::collections::BTreeMap;

/// An ordered remote-request trace plus analysis helpers.
///
/// # Examples
///
/// ```
/// use mgpu_workloads::{Benchmark, Trace, TrafficModel};
/// use mgpu_types::NodeId;
///
/// let model = TrafficModel::new(Benchmark::MatrixMultiplication, 4, 1);
/// let trace = Trace::new(model.generate_all(500));
/// let hist = trace.accumulation_histogram(16);
/// assert!(hist.total() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Wraps a request stream, sorting it by availability time.
    #[must_use]
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| (r.available_at, r.requester, r.target));
        Trace { requests }
    }

    /// The requests in time order.
    #[must_use]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Per-block arrival cycles of one request: a direct access is a single
    /// block at `available_at`; a page migration is 64 blocks spaced one
    /// cycle apart. Every view in this module (accumulation *and* the
    /// windowed timelines) expands migrations through this one helper so
    /// their per-window counts agree across window boundaries.
    fn request_block_cycles(r: &Request) -> impl Iterator<Item = Cycle> {
        let start = r.available_at;
        (0..u64::from(r.kind.blocks())).map(move |i| start + mgpu_types::Duration::cycles(i))
    }

    /// Expands requests into per-block arrivals on directed pairs
    /// `(data owner → requester)` — the data-response streams whose
    /// burstiness the batching scheme exploits. Page migrations expand to
    /// 64 blocks spaced one cycle apart.
    fn block_arrivals(&self) -> BTreeMap<(NodeId, NodeId), Vec<Cycle>> {
        let mut arrivals: BTreeMap<(NodeId, NodeId), Vec<Cycle>> = BTreeMap::new();
        for r in &self.requests {
            let stream = arrivals.entry((r.target, r.requester)).or_default();
            stream.extend(Self::request_block_cycles(r));
        }
        for stream in arrivals.values_mut() {
            stream.sort();
        }
        arrivals
    }

    /// Histogram of the cycles needed for `group` consecutive blocks to
    /// accumulate on a directed pair (Figs. 15/16; paper buckets).
    #[must_use]
    pub fn accumulation_histogram(&self, group: usize) -> Histogram {
        let mut hist = Histogram::paper_burst_edges();
        for stream in self.block_arrivals().values() {
            for window in stream.chunks(group) {
                if window.len() == group {
                    let span = window[group - 1].as_u64() - window[0].as_u64();
                    hist.record(span);
                }
            }
        }
        hist
    }

    /// Fraction of `group`-block windows that accumulate within
    /// `within_cycles` (the paper quotes 69.2 % of 16-block groups within
    /// 160 cycles).
    ///
    /// Boundary convention: "within `w`" counts spans **strictly below**
    /// `w`, matching [`Histogram`]'s half-open `[lo, hi)` buckets on the
    /// same spans — a span of exactly 160 cycles is *not* within 160 and
    /// lands in the `[160, 640)` bucket, so `fraction_within(group, edge)`
    /// always equals the summed fractions of the histogram buckets strictly
    /// below `edge` (pinned by tests at both sites).
    #[must_use]
    pub fn accumulation_fraction_within(&self, group: usize, within_cycles: u64) -> f64 {
        let mut total = 0u64;
        let mut fast = 0u64;
        for stream in self.block_arrivals().values() {
            for window in stream.chunks(group) {
                if window.len() == group {
                    total += 1;
                    if window[group - 1].as_u64() - window[0].as_u64() < within_cycles {
                        fast += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            fast as f64 / total as f64
        }
    }

    /// Send/receive block counts for `node` over consecutive windows of
    /// `window` cycles (Fig. 13). "Send" counts blocks `node` serves to
    /// others (it is the data owner); "receive" counts blocks it pulls.
    ///
    /// Page migrations are expanded to their 64 one-cycle-spaced blocks,
    /// each attributed to the window containing *its own* arrival cycle —
    /// the same expansion the accumulation views use — so a migration
    /// straddling a window boundary is split across both windows rather
    /// than lumped into the window of `available_at`.
    #[must_use]
    pub fn send_recv_timeline(&self, node: NodeId, window: u64) -> Vec<(u64, u64)> {
        assert!(window > 0, "window must be non-zero");
        let mut timeline: Vec<(u64, u64)> = Vec::new();
        for r in &self.requests {
            if r.target != node && r.requester != node {
                continue;
            }
            for cycle in Self::request_block_cycles(r) {
                let idx = (cycle.as_u64() / window) as usize;
                if timeline.len() <= idx {
                    timeline.resize(idx + 1, (0, 0));
                }
                if r.target == node {
                    timeline[idx].0 += 1; // node sends data
                } else {
                    timeline[idx].1 += 1; // node receives data
                }
            }
        }
        timeline
    }

    /// Destination decomposition of `node`'s outgoing *requests* over
    /// consecutive windows (Fig. 14): for each window, blocks pulled from
    /// each peer. Migrations are expanded per block exactly like
    /// [`send_recv_timeline`](Trace::send_recv_timeline).
    #[must_use]
    pub fn destination_timeline(&self, node: NodeId, window: u64) -> Vec<BTreeMap<NodeId, u64>> {
        assert!(window > 0, "window must be non-zero");
        let mut timeline: Vec<BTreeMap<NodeId, u64>> = Vec::new();
        for r in self.requests.iter().filter(|r| r.requester == node) {
            for cycle in Self::request_block_cycles(r) {
                let idx = (cycle.as_u64() / window) as usize;
                if timeline.len() <= idx {
                    timeline.resize(idx + 1, BTreeMap::new());
                }
                *timeline[idx].entry(r.target).or_default() += 1;
            }
        }
        timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_params::Benchmark;
    use crate::model::TrafficModel;
    use mgpu_types::Duration;

    fn trace(b: Benchmark) -> Trace {
        Trace::new(TrafficModel::new(b, 4, 42).generate_all(2_000))
    }

    #[test]
    fn new_sorts_requests() {
        let r1 = Request::direct(Cycle::new(10), NodeId::gpu(1), NodeId::gpu(2));
        let r2 = Request::direct(Cycle::new(5), NodeId::gpu(1), NodeId::gpu(2));
        let t = Trace::new(vec![r1, r2]);
        assert_eq!(t.requests()[0].available_at, Cycle::new(5));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn bursty_workloads_accumulate_fast() {
        // High-RPKI workloads should put most 16-block groups well within
        // 160 cycles (Fig. 15 shape).
        let t = trace(Benchmark::MatrixTranspose);
        let frac = t.accumulation_fraction_within(16, 160);
        assert!(frac > 0.5, "mt 16-block fraction {frac}");
    }

    #[test]
    fn sparse_workloads_accumulate_slowly() {
        let t = trace(Benchmark::Fir);
        let frac = t.accumulation_fraction_within(16, 160);
        let t2 = trace(Benchmark::MatrixTranspose);
        assert!(
            frac < t2.accumulation_fraction_within(16, 160),
            "fir should be slower than mt"
        );
    }

    #[test]
    fn thirty_two_block_groups_are_slower_than_sixteen() {
        // Fig. 16 vs Fig. 15: bigger groups take longer to fill.
        let t = trace(Benchmark::MatrixMultiplication);
        let f16 = t.accumulation_fraction_within(16, 160);
        let f32 = t.accumulation_fraction_within(32, 160);
        assert!(f32 <= f16, "f32={f32} > f16={f16}");
    }

    #[test]
    fn histogram_fractions_cover_everything() {
        let t = trace(Benchmark::Fft);
        let h = t.accumulation_histogram(16);
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn send_recv_timeline_counts_both_roles() {
        let r1 = Request::direct(Cycle::new(10), NodeId::gpu(1), NodeId::gpu(2));
        let r2 = Request::direct(Cycle::new(20), NodeId::gpu(2), NodeId::gpu(1));
        let r3 = Request::migration(Cycle::new(30), NodeId::gpu(3), NodeId::gpu(1));
        let t = Trace::new(vec![r1, r2, r3]);
        let tl = t.send_recv_timeline(NodeId::gpu(1), 100);
        // Window 0: GPU1 receives 1 block (r1), sends 1 (r2) + 64 (r3).
        assert_eq!(tl[0], (65, 1));
    }

    #[test]
    fn destination_timeline_tracks_pulls() {
        let r1 = Request::direct(Cycle::new(10), NodeId::gpu(1), NodeId::gpu(2));
        let r2 = Request::direct(Cycle::new(150), NodeId::gpu(1), NodeId::CPU);
        let t = Trace::new(vec![r1, r2]);
        let tl = t.destination_timeline(NodeId::gpu(1), 100);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0][&NodeId::gpu(2)], 1);
        assert_eq!(tl[1][&NodeId::CPU], 1);
    }

    #[test]
    fn destination_mix_varies_over_time() {
        // Fig. 14: the dominant pull source changes across phases.
        let m = TrafficModel::new(Benchmark::MatrixMultiplication, 4, 42);
        let t = Trace::new(m.generate_for(NodeId::gpu(1), 30_000));
        let tl = t.destination_timeline(
            NodeId::gpu(1),
            Benchmark::MatrixMultiplication.params().phase_len,
        );
        let dominant: Vec<Option<NodeId>> = tl
            .iter()
            .map(|w| {
                w.iter()
                    .filter(|(n, _)| n.is_gpu())
                    .max_by_key(|&(_, c)| c)
                    .map(|(&n, _)| n)
            })
            .collect();
        let distinct: std::collections::BTreeSet<_> = dominant.iter().flatten().copied().collect();
        assert!(distinct.len() >= 2, "dominant peers: {dominant:?}");
    }

    #[test]
    fn page_migration_expands_to_64_blocks() {
        let r = Request::migration(Cycle::new(0), NodeId::gpu(1), NodeId::gpu(2));
        let t = Trace::new(vec![r]);
        let h = t.accumulation_histogram(16);
        // 64 blocks -> 4 complete windows of 16.
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn empty_trace_behaves() {
        let t = Trace::new(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.accumulation_fraction_within(16, 160), 0.0);
        assert_eq!(t.accumulation_histogram(16).total(), 0);
        assert!(t.send_recv_timeline(NodeId::gpu(1), 100).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let t = Trace::new(Vec::new());
        let _ = t.send_recv_timeline(NodeId::gpu(1), 0);
    }

    #[test]
    fn windowed_views_split_migrations_across_boundaries() {
        // A migration at cycle 90 with window 100 spans blocks 90..=153:
        // 10 blocks land in window 0 and 54 in window 1 — previously all 64
        // were lumped into window 0.
        let r = Request::migration(Cycle::new(90), NodeId::gpu(1), NodeId::gpu(2));
        let t = Trace::new(vec![r]);
        let send = t.send_recv_timeline(NodeId::gpu(2), 100);
        assert_eq!(send, vec![(10, 0), (54, 0)]);
        let recv = t.send_recv_timeline(NodeId::gpu(1), 100);
        assert_eq!(recv, vec![(0, 10), (0, 54)]);
        let dst = t.destination_timeline(NodeId::gpu(1), 100);
        assert_eq!(dst.len(), 2);
        assert_eq!(dst[0][&NodeId::gpu(2)], 10);
        assert_eq!(dst[1][&NodeId::gpu(2)], 54);
    }

    #[test]
    fn windowed_views_agree_with_block_arrivals() {
        // Fig. 13/14 counts must agree with the accumulation view's block
        // expansion on every window, for a workload full of migrations.
        let t = trace(Benchmark::Kmeans);
        let node = NodeId::gpu(1);
        let window = 500u64;
        let mut expected_recv: Vec<u64> = Vec::new();
        let mut expected_send: Vec<u64> = Vec::new();
        for ((owner, requester), stream) in t.block_arrivals() {
            for c in stream {
                let idx = (c.as_u64() / window) as usize;
                if owner == node {
                    if expected_send.len() <= idx {
                        expected_send.resize(idx + 1, 0);
                    }
                    expected_send[idx] += 1;
                }
                if requester == node {
                    if expected_recv.len() <= idx {
                        expected_recv.resize(idx + 1, 0);
                    }
                    expected_recv[idx] += 1;
                }
            }
        }
        let tl = t.send_recv_timeline(node, window);
        for (i, &(s, r)) in tl.iter().enumerate() {
            assert_eq!(s, expected_send.get(i).copied().unwrap_or(0), "send w{i}");
            assert_eq!(r, expected_recv.get(i).copied().unwrap_or(0), "recv w{i}");
        }
        let dst = t.destination_timeline(node, window);
        let pulled: u64 = dst.iter().flat_map(|w| w.values()).sum();
        assert_eq!(pulled, tl.iter().map(|&(_, r)| r).sum::<u64>());
    }

    #[test]
    fn accumulation_boundary_is_half_open() {
        // 16 blocks spanning exactly 160 cycles: excluded from
        // "within 160" (strict <) AND counted in the [160, 640) histogram
        // bucket — the two sites share one half-open convention.
        let mut reqs: Vec<Request> = (0..15u64)
            .map(|i| Request::direct(Cycle::new(i), NodeId::gpu(1), NodeId::gpu(2)))
            .collect();
        reqs.push(Request::direct(
            Cycle::new(160),
            NodeId::gpu(1),
            NodeId::gpu(2),
        ));
        let t = Trace::new(reqs);
        assert_eq!(t.accumulation_fraction_within(16, 160), 0.0);
        assert_eq!(t.accumulation_fraction_within(16, 161), 1.0);
        let h = t.accumulation_histogram(16);
        assert_eq!(h.total(), 1);
        // paper_burst_edges: [0,40) [40,160) [160,640) [640,2560) overflow.
        assert_eq!(h.fractions()[2], 1.0, "span 160 lands in [160, 640)");
    }

    #[test]
    fn fraction_within_matches_histogram_prefix() {
        // fraction_within(g, edge) == sum of histogram buckets strictly
        // below edge, for every paper bucket edge.
        let t = trace(Benchmark::MatrixMultiplication);
        let h = t.accumulation_histogram(16);
        let fr = h.fractions();
        for (prefix_len, edge) in [(1usize, 40u64), (2, 160), (3, 640), (4, 2560)] {
            let expect: f64 = fr[..prefix_len].iter().sum();
            let got = t.accumulation_fraction_within(16, edge);
            assert!(
                (got - expect).abs() < 1e-12,
                "edge {edge}: fraction {got} vs histogram prefix {expect}"
            );
        }
    }

    #[test]
    fn paper_sixty_nine_percent_within_160() {
        // Paper §IV-C: "69.2% of 16-block groups accumulate within 160
        // cycles". Pinned on the half-open boundary convention (strict <,
        // matching the [160, 640) histogram bucket): a calibrated bursty
        // benchmark must reproduce the figure within a few points.
        let t = trace(Benchmark::PageRank);
        let frac = t.accumulation_fraction_within(16, 160);
        assert!(
            (frac - 0.692).abs() < 0.05,
            "pr 16-block fraction {frac} should sit near the paper's 0.692"
        );
        // The same number must be exactly the histogram prefix below 160.
        let fr = t.accumulation_histogram(16).fractions();
        assert!((frac - (fr[0] + fr[1])).abs() < 1e-12);
    }

    #[test]
    fn migration_blocks_are_spaced() {
        let r = Request::migration(Cycle::new(100), NodeId::gpu(1), NodeId::gpu(2));
        let t = Trace::new(vec![r]);
        // The 64 blocks span 63 cycles -> all 16-block windows within 160.
        assert_eq!(t.accumulation_fraction_within(16, 160), 1.0);
        let _ = Duration::cycles(1); // keep the import exercised
    }
}
