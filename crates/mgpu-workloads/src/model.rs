//! The primary stochastic traffic generator.
//!
//! Each GPU's remote-request arrival process is a sequence of *bursts*
//! (geometric length around the benchmark's mean, fixed intra-burst
//! spacing) separated by exponential-ish idle gaps, with a per-phase hot
//! destination that rotates over time. All randomness is drawn from a
//! seeded [`rand::rngs::StdRng`], so every experiment is reproducible.

use crate::bench_params::{Benchmark, WorkloadParams};
use crate::request::Request;
use mgpu_types::{Cycle, Duration, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic, per-benchmark remote-traffic generator.
///
/// # Examples
///
/// ```
/// use mgpu_workloads::{Benchmark, TrafficModel};
/// use mgpu_types::NodeId;
///
/// let model = TrafficModel::new(Benchmark::PageRank, 4, 7);
/// let a = model.generate_for(NodeId::gpu(2), 100);
/// let b = model.generate_for(NodeId::gpu(2), 100);
/// assert_eq!(a, b, "same seed, same trace");
/// ```
#[derive(Debug, Clone)]
pub struct TrafficModel {
    benchmark: Benchmark,
    params: WorkloadParams,
    gpu_count: u16,
    seed: u64,
}

impl TrafficModel {
    /// Creates a generator for `benchmark` on a system with `gpu_count`
    /// GPUs, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count < 2`.
    #[must_use]
    pub fn new(benchmark: Benchmark, gpu_count: u16, seed: u64) -> Self {
        assert!(gpu_count >= 2, "need at least 2 GPUs for remote traffic");
        TrafficModel {
            benchmark,
            params: benchmark.params(),
            gpu_count,
            seed,
        }
    }

    fn rng_for(&self, requester: NodeId) -> StdRng {
        // Distinct, stable stream per (seed, benchmark, requester).
        let mix = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(requester.raw()) << 32)
            .wrapping_add(self.benchmark as u64);
        StdRng::seed_from_u64(mix)
    }

    /// Samples a geometric-ish burst length with the configured mean
    /// (minimum 1).
    fn sample_burst_len(&self, rng: &mut StdRng) -> u32 {
        let mean = f64::from(self.params.burst_len_mean);
        // Uniform in [0.5, 1.5) × mean keeps the mean while varying size.
        let len = mean * rng.random_range(0.5..1.5);
        (len.round() as u32).max(1)
    }

    /// Samples the idle gap between bursts (exponential with the
    /// configured mean), scaled by the requester's current duty phase: a
    /// "producer" phase pulls less (longer gaps), a "consumer" phase pulls
    /// more — the send/receive asymmetry of the paper's Fig. 13.
    fn sample_inter_gap(&self, requester: NodeId, now: Cycle, rng: &mut StdRng) -> u64 {
        let phase = now.as_u64() / self.params.phase_len;
        let heavy = (phase + u64::from(requester.raw())).is_multiple_of(2);
        let duty = self.params.duty_variation;
        let factor = if heavy {
            1.0 - 0.6 * duty
        } else {
            1.0 + 2.0 * duty
        };
        let mean = self.params.inter_burst_gap_mean as f64 * factor;
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        (-mean * u.ln()).round() as u64
    }

    /// Picks a destination for a burst beginning at `now`.
    ///
    /// Per the paper's Fig. 14 analysis, "during a time interval, GPU1
    /// sends most of its send requests to the CPU or one or two remote
    /// GPUs": traffic concentrates on a primary and a secondary hot peer
    /// that both rotate with the phase, with only a small uniform
    /// remainder.
    fn pick_destination(&self, requester: NodeId, now: Cycle, rng: &mut StdRng) -> NodeId {
        // CPU traffic first: host orchestration, input/output pages.
        if rng.random_bool(self.params.cpu_weight) && !requester.is_cpu() {
            return NodeId::CPU;
        }
        // Primary/secondary hot GPUs rotate per phase at different
        // strides, offset by the requester so traffic is not globally
        // synchronized on one victim.
        let phase = (now.as_u64() / self.params.phase_len) as usize;
        let n = usize::from(self.gpu_count) - usize::from(requester.is_gpu());
        let hot = gpu_peer(requester, (phase + requester.raw() as usize) % n);
        let hot2 = gpu_peer(requester, (phase / 2 + requester.raw() as usize + 1) % n);
        if rng.random_bool(self.params.locality) {
            hot
        } else if rng.random_bool(0.75) && hot2 != hot {
            hot2
        } else {
            gpu_peer(requester, rng.random_range(0..n))
        }
    }

    /// Generates `count` remote requests for `requester`.
    ///
    /// Page-migration bursts emit a single [`crate::AccessKind::PageMigration`]
    /// request (64 blocks at the transport level); direct bursts emit one
    /// request per block.
    #[must_use]
    pub fn generate_for(&self, requester: NodeId, count: usize) -> Vec<Request> {
        let mut rng = self.rng_for(requester);
        let mut requests = Vec::with_capacity(count);
        let mut now =
            Cycle::ZERO + Duration::cycles(self.sample_inter_gap(requester, Cycle::ZERO, &mut rng));
        while requests.len() < count {
            let dst = self.pick_destination(requester, now, &mut rng);
            if rng.random_bool(self.params.migration_fraction) {
                // One page migration replaces a whole burst.
                requests.push(Request::migration(now, requester, dst));
                now += Duration::cycles(64 * self.params.intra_burst_gap);
            } else {
                let len = self.sample_burst_len(&mut rng);
                for i in 0..len {
                    if requests.len() >= count {
                        break;
                    }
                    let t = now + Duration::cycles(u64::from(i) * self.params.intra_burst_gap);
                    requests.push(Request::direct(t, requester, dst));
                }
                now += Duration::cycles(u64::from(len) * self.params.intra_burst_gap);
            }
            now += Duration::cycles(self.sample_inter_gap(requester, now, &mut rng));
        }
        requests.truncate(count);
        requests
    }

    /// Generates the whole system's traffic: `count` requests per GPU
    /// (the CPU does not originate remote pulls in this model), merged and
    /// sorted by availability time.
    #[must_use]
    pub fn generate_all(&self, count_per_gpu: usize) -> Vec<Request> {
        let mut all = Vec::with_capacity(count_per_gpu * usize::from(self.gpu_count));
        for gpu in 1..=self.gpu_count {
            all.extend(self.generate_for(NodeId::gpu(gpu), count_per_gpu));
        }
        all.sort_by_key(|r| (r.available_at, r.requester, r.target));
        all
    }
}

/// The `k`-th GPU other than `requester`, counting in ascending node
/// order from 0: GPUs are nodes `1..=gpu_count`, and a GPU requester
/// skips itself.
fn gpu_peer(requester: NodeId, k: usize) -> NodeId {
    let mut raw = k + 1;
    if requester.is_gpu() && raw >= usize::from(requester.raw()) {
        raw += 1;
    }
    NodeId::gpu(u16::try_from(raw).expect("GPU index fits u16"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AccessKind;
    use std::collections::BTreeMap;

    fn model(b: Benchmark) -> TrafficModel {
        TrafficModel::new(b, 4, 42)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = model(Benchmark::Spmv).generate_for(NodeId::gpu(1), 200);
        let b = model(Benchmark::Spmv).generate_for(NodeId::gpu(1), 200);
        assert_eq!(a, b);
        let c = TrafficModel::new(Benchmark::Spmv, 4, 43).generate_for(NodeId::gpu(1), 200);
        assert_ne!(a, c);
    }

    #[test]
    fn distinct_streams_per_requester() {
        let m = model(Benchmark::Spmv);
        let a = m.generate_for(NodeId::gpu(1), 100);
        let b = m.generate_for(NodeId::gpu(2), 100);
        assert_ne!(a, b);
    }

    #[test]
    fn times_are_nondecreasing() {
        for b in Benchmark::ALL {
            let reqs = model(b).generate_for(NodeId::gpu(1), 300);
            assert!(
                reqs.windows(2)
                    .all(|w| w[0].available_at <= w[1].available_at),
                "{b}"
            );
        }
    }

    #[test]
    fn never_targets_self() {
        for b in [Benchmark::PageRank, Benchmark::Kmeans, Benchmark::Aes] {
            for r in model(b).generate_for(NodeId::gpu(2), 500) {
                assert_ne!(r.target, r.requester);
                assert_eq!(r.requester, NodeId::gpu(2));
            }
        }
    }

    #[test]
    fn cpu_weight_produces_host_traffic() {
        let reqs = model(Benchmark::Kmeans).generate_for(NodeId::gpu(1), 2_000);
        let cpu = reqs.iter().filter(|r| r.target.is_cpu()).count();
        // km has cpu_weight 0.25 at the burst level; the per-request share
        // is similar (whole bursts go to the CPU).
        let frac = cpu as f64 / reqs.len() as f64;
        assert!(frac > 0.10 && frac < 0.45, "cpu fraction {frac}");
    }

    #[test]
    fn migration_fraction_produces_migrations() {
        let reqs = model(Benchmark::FloydWarshall).generate_for(NodeId::gpu(1), 2_000);
        let migrations = reqs
            .iter()
            .filter(|r| r.kind == AccessKind::PageMigration)
            .count();
        assert!(migrations > 0, "floyd should migrate pages");
        let pr = model(Benchmark::PageRank).generate_for(NodeId::gpu(1), 2_000);
        let pr_migr = pr
            .iter()
            .filter(|r| r.kind == AccessKind::PageMigration)
            .count();
        assert!(
            migrations * pr.len() > pr_migr * reqs.len(),
            "floyd migrates more than pagerank"
        );
    }

    #[test]
    fn hot_destination_rotates_across_phases() {
        // Count per-destination traffic in early vs late windows; the hot
        // destination must change (Figs. 13/14 drift).
        let m = model(Benchmark::MatrixMultiplication);
        let reqs = m.generate_for(NodeId::gpu(1), 20_000);
        let phase_len = Benchmark::MatrixMultiplication.params().phase_len;
        let hot_in = |lo: u64, hi: u64| -> NodeId {
            let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
            for r in reqs
                .iter()
                .filter(|r| r.available_at.as_u64() >= lo && r.available_at.as_u64() < hi)
                .filter(|r| r.target.is_gpu())
            {
                *counts.entry(r.target).or_default() += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(_, c)| c)
                .map(|(n, _)| n)
                .expect("traffic in window")
        };
        let h0 = hot_in(0, phase_len);
        let h1 = hot_in(phase_len, 2 * phase_len);
        assert_ne!(h0, h1, "hot destination should rotate");
    }

    #[test]
    fn high_rpki_is_denser_than_low() {
        let dense = model(Benchmark::MatrixTranspose).generate_for(NodeId::gpu(1), 1_000);
        let sparse = model(Benchmark::Fir).generate_for(NodeId::gpu(1), 1_000);
        let span = |r: &[Request]| r.last().unwrap().available_at.as_u64();
        assert!(
            span(&sparse) > 10 * span(&dense),
            "fir span {} vs mt span {}",
            span(&sparse),
            span(&dense)
        );
    }

    #[test]
    fn generate_all_covers_every_gpu() {
        let all = model(Benchmark::Atax).generate_all(50);
        assert_eq!(all.len(), 200);
        for gpu in 1..=4u16 {
            assert_eq!(
                all.iter()
                    .filter(|r| r.requester == NodeId::gpu(gpu))
                    .count(),
                50
            );
        }
        assert!(all
            .windows(2)
            .all(|w| w[0].available_at <= w[1].available_at));
    }

    #[test]
    fn exact_request_count() {
        for n in [1usize, 17, 100] {
            assert_eq!(
                model(Benchmark::Fft).generate_for(NodeId::gpu(3), n).len(),
                n
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_gpu_panics() {
        let _ = TrafficModel::new(Benchmark::Fft, 1, 0);
    }

    /// The destination choice as it was written before `gpu_peer`: index
    /// a collected list of the requester's GPU peers.
    fn pick_destination_collected(
        m: &TrafficModel,
        requester: NodeId,
        now: Cycle,
        rng: &mut StdRng,
    ) -> NodeId {
        if rng.random_bool(m.params.cpu_weight) && !requester.is_cpu() {
            return NodeId::CPU;
        }
        let gpu_peers: Vec<NodeId> = requester
            .peers(m.gpu_count)
            .filter(|n| n.is_gpu())
            .collect();
        let phase = (now.as_u64() / m.params.phase_len) as usize;
        let n = gpu_peers.len();
        let hot = gpu_peers[(phase + requester.raw() as usize) % n];
        let hot2 = gpu_peers[(phase / 2 + requester.raw() as usize + 1) % n];
        if rng.random_bool(m.params.locality) {
            hot
        } else if rng.random_bool(0.75) && hot2 != hot {
            hot2
        } else {
            gpu_peers[rng.random_range(0..n)]
        }
    }

    #[test]
    fn arithmetic_peer_choice_matches_collected_peer_list() {
        for gpus in [4, 8, 16] {
            for b in Benchmark::ALL {
                let m = TrafficModel::new(b, gpus, 42);
                for requester in NodeId::all(gpus) {
                    let mut rng = m.rng_for(requester);
                    let mut reference = rng.clone();
                    for phase in 0..64 {
                        let now = Cycle::new(phase * m.params.phase_len + phase);
                        assert_eq!(
                            m.pick_destination(requester, now, &mut rng),
                            pick_destination_collected(&m, requester, now, &mut reference),
                            "{b:?} {gpus} GPUs {requester} phase {phase}"
                        );
                    }
                    // Same draws consumed: the streams stay in lock step.
                    assert_eq!(
                        rng.random_range(0..u64::MAX),
                        reference.random_range(0..u64::MAX)
                    );
                }
            }
        }
    }
}
