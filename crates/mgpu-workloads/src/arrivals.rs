//! Open-loop serving arrivals: seeded Poisson / MMPP inter-arrival
//! processes with Zipf-skewed destination mixes and per-request SLO
//! deadlines.
//!
//! Unlike [`TrafficModel`](crate::TrafficModel) — which replays a batch
//! kernel's bursty pull pattern — this module models *request serving*:
//! an open-loop stream of independent remote accesses whose arrival times
//! are governed by an offered load, not by the progress of a kernel. What
//! matters downstream is tail latency against each request's deadline,
//! reported by the system layer's latency stamps.
//!
//! All randomness comes from a seeded [`rand::rngs::StdRng`] with one
//! stream per `(seed, requester)`, so traces are bit-reproducible.

use crate::request::Request;
use mgpu_types::{Cycle, Duration, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The inter-arrival process of one GPU's request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential gaps with the given mean (cycles).
    /// The classic open-loop load generator — `mean_gap = 1/λ`.
    Poisson {
        /// Mean inter-arrival gap in cycles (`1/λ`).
        mean_gap: f64,
    },
    /// Markov-modulated Poisson process: a two-state on/off chain where
    /// each state is itself Poisson with its own gap, and dwell times in
    /// each state are exponential. Models bursty serving traffic (request
    /// floods separated by lulls) while staying fully seeded.
    Mmpp {
        /// Mean inter-arrival gap while in the *on* (burst) state.
        on_gap: f64,
        /// Mean inter-arrival gap while in the *off* (lull) state.
        off_gap: f64,
        /// Mean dwell time in each state, in cycles.
        mean_dwell: f64,
    },
}

impl ArrivalProcess {
    /// A Poisson process with the given mean inter-arrival gap (cycles).
    ///
    /// # Panics
    ///
    /// Panics unless `mean_gap` is positive and finite.
    #[must_use]
    pub fn poisson(mean_gap: f64) -> Self {
        assert!(
            mean_gap > 0.0 && mean_gap.is_finite(),
            "mean_gap must be positive and finite, got {mean_gap}"
        );
        ArrivalProcess::Poisson { mean_gap }
    }

    /// A bursty on/off MMPP that preserves the *time-averaged* arrival
    /// rate of [`poisson(mean_gap)`](ArrivalProcess::poisson): with equal
    /// expected dwell in both states, the on-state rate is `burst_factor`
    /// times the off-state rate while `(λ_on + λ_off) / 2 = 1 / mean_gap`.
    /// `burst_factor = 1` degenerates to plain Poisson.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_gap`, `burst_factor ≥ 1` and `mean_dwell` are
    /// positive and finite.
    #[must_use]
    pub fn bursty(mean_gap: f64, burst_factor: f64, mean_dwell: f64) -> Self {
        assert!(
            mean_gap > 0.0 && mean_gap.is_finite(),
            "mean_gap must be positive and finite, got {mean_gap}"
        );
        assert!(
            burst_factor >= 1.0 && burst_factor.is_finite(),
            "burst_factor must be >= 1, got {burst_factor}"
        );
        assert!(
            mean_dwell > 0.0 && mean_dwell.is_finite(),
            "mean_dwell must be positive and finite, got {mean_dwell}"
        );
        // λ_on = 2λ·f/(1+f), λ_off = 2λ/(1+f) keeps the mean rate at λ.
        let on_gap = mean_gap * (1.0 + burst_factor) / (2.0 * burst_factor);
        let off_gap = mean_gap * (1.0 + burst_factor) / 2.0;
        ArrivalProcess::Mmpp {
            on_gap,
            off_gap,
            mean_dwell,
        }
    }
}

/// Exponential gap with the given mean, rounded to whole cycles.
fn exp_gap(rng: &mut StdRng, mean: f64) -> u64 {
    let u: f64 = rng.random_range(f64::EPSILON..1.0);
    (-mean * u.ln()).round() as u64
}

/// Open-loop serving-trace generator: one request stream per GPU with the
/// configured arrival process, a Zipf-skewed destination mix, and an
/// absolute deadline stamped on every request.
///
/// # Examples
///
/// ```
/// use mgpu_workloads::{ArrivalProcess, ServingModel};
/// use mgpu_types::{Duration, NodeId};
///
/// let model = ServingModel::new(4, 42, ArrivalProcess::poisson(50.0))
///     .with_zipf(1.2)
///     .with_deadline(Duration::cycles(2_000));
/// let a = model.generate_for(NodeId::gpu(1), 100);
/// let b = model.generate_for(NodeId::gpu(1), 100);
/// assert_eq!(a, b, "same seed, same trace");
/// assert!(a.iter().all(|r| r.deadline.is_some()));
/// ```
#[derive(Debug, Clone)]
pub struct ServingModel {
    gpu_count: u16,
    seed: u64,
    process: ArrivalProcess,
    /// Zipf skew exponent `s` over each requester's peer list; `0` is
    /// uniform, larger is more skewed toward the hot peer.
    zipf_s: f64,
    /// Relative SLO budget added to each arrival time, or `None` for
    /// deadline-free requests.
    deadline: Option<Duration>,
    /// Memoized Zipf CDF. The peer count `n` is fixed per model (every
    /// requester has the same number of peers) and `s` is fixed after
    /// construction, so the CDF is a pure function of the model — built
    /// once on first use instead of per `generate_for` call.
    zipf_cache: std::cell::OnceCell<Vec<f64>>,
}

impl ServingModel {
    /// Creates a serving generator for a system with `gpu_count` GPUs.
    ///
    /// Defaults: uniform destination mix (`s = 0`), no deadlines.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count < 2`.
    #[must_use]
    pub fn new(gpu_count: u16, seed: u64, process: ArrivalProcess) -> Self {
        assert!(gpu_count >= 2, "need at least 2 GPUs for remote traffic");
        ServingModel {
            gpu_count,
            seed,
            process,
            zipf_s: 0.0,
            deadline: None,
            zipf_cache: std::cell::OnceCell::new(),
        }
    }

    /// Sets the Zipf skew exponent of the destination mix.
    ///
    /// # Panics
    ///
    /// Panics unless `s` is non-negative and finite.
    #[must_use]
    pub fn with_zipf(mut self, s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "zipf s must be >= 0, got {s}");
        self.zipf_s = s;
        // The memoized CDF is a function of `s`; invalidate it.
        self.zipf_cache = std::cell::OnceCell::new();
        self
    }

    /// Stamps every generated request with `available_at + budget` as its
    /// absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    fn rng_for(&self, requester: NodeId) -> StdRng {
        // Distinct, stable stream per (seed, requester); a different
        // mixing constant than TrafficModel so the two families never
        // alias on the same seed.
        let mix = self
            .seed
            .wrapping_mul(0xD1B5_4A32_D192_ED03)
            .wrapping_add(u64::from(requester.raw()) << 32);
        StdRng::seed_from_u64(mix)
    }

    /// The requester's peers in Zipf rank order (hottest first). The
    /// ranking is rotated by the requester index so each tenant has its
    /// own hot peer instead of the whole system piling onto one node.
    fn ranked_peers(&self, requester: NodeId) -> Vec<NodeId> {
        let peers: Vec<NodeId> = requester.peers(self.gpu_count).collect();
        let n = peers.len();
        let off = requester.raw() as usize % n;
        (0..n).map(|i| peers[(i + off) % n]).collect()
    }

    /// Cumulative Zipf weights over `n` ranks: `w_i ∝ (i + 1)^-s`.
    /// Memoized on the model — `n` and `s` are both fixed per model, so
    /// the vector is built exactly once across all `generate_for` calls.
    fn zipf_cdf(&self, n: usize) -> &[f64] {
        let cdf = self.zipf_cache.get_or_init(|| {
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for i in 0..n {
                acc += 1.0 / ((i + 1) as f64).powf(self.zipf_s);
                cdf.push(acc);
            }
            let total = acc;
            for c in &mut cdf {
                *c /= total;
            }
            cdf
        });
        assert_eq!(cdf.len(), n, "peer count is fixed per model");
        cdf
    }

    /// Generates `count` open-loop requests for `requester`.
    #[must_use]
    pub fn generate_for(&self, requester: NodeId, count: usize) -> Vec<Request> {
        let mut rng = self.rng_for(requester);
        let peers = self.ranked_peers(requester);
        let cdf = self.zipf_cdf(peers.len());
        let mut requests = Vec::with_capacity(count);

        // MMPP state; unused (but kept deterministic) for plain Poisson.
        let mut on = true;
        let mut state_end = match self.process {
            ArrivalProcess::Poisson { .. } => Cycle::new(u64::MAX),
            ArrivalProcess::Mmpp { mean_dwell, .. } => {
                Cycle::ZERO + Duration::cycles(exp_gap(&mut rng, mean_dwell))
            }
        };

        let mut now = Cycle::ZERO;
        while requests.len() < count {
            let gap = match self.process {
                ArrivalProcess::Poisson { mean_gap } => exp_gap(&mut rng, mean_gap),
                ArrivalProcess::Mmpp {
                    on_gap,
                    off_gap,
                    mean_dwell,
                } => {
                    let gap = exp_gap(&mut rng, if on { on_gap } else { off_gap });
                    // Advance the modulating chain past this arrival.
                    while now + Duration::cycles(gap) >= state_end {
                        on = !on;
                        state_end += Duration::cycles(exp_gap(&mut rng, mean_dwell));
                    }
                    gap
                }
            };
            now += Duration::cycles(gap);
            let u: f64 = rng.random_range(0.0..1.0);
            let rank = cdf.partition_point(|&c| c < u).min(peers.len() - 1);
            let mut r = Request::direct(now, requester, peers[rank]);
            if let Some(budget) = self.deadline {
                r = r.with_deadline(now + budget);
            }
            requests.push(r);
        }
        requests
    }

    /// Generates the whole system's serving traffic: `count_per_gpu`
    /// requests per GPU, merged and sorted by availability time.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn top_peer_fraction(s: f64) -> f64 {
        let model = ServingModel::new(4, 7, ArrivalProcess::poisson(40.0)).with_zipf(s);
        let reqs = model.generate_for(NodeId::gpu(1), 4_000);
        let hot = model.ranked_peers(NodeId::gpu(1))[0];
        reqs.iter().filter(|r| r.target == hot).count() as f64 / reqs.len() as f64
    }

    #[test]
    fn seeded_determinism() {
        for process in [
            ArrivalProcess::poisson(80.0),
            ArrivalProcess::bursty(80.0, 8.0, 5_000.0),
        ] {
            let m = ServingModel::new(4, 42, process).with_deadline(Duration::cycles(1_000));
            let a = m.generate_for(NodeId::gpu(2), 500);
            let b = m.generate_for(NodeId::gpu(2), 500);
            assert_eq!(a, b, "same seed must reproduce bit-identically");
            let other = ServingModel::new(4, 43, process).generate_for(NodeId::gpu(2), 500);
            assert_ne!(a, other, "different seed must differ");
        }
    }

    #[test]
    fn distinct_streams_per_requester() {
        let m = ServingModel::new(4, 42, ArrivalProcess::poisson(60.0));
        assert_ne!(
            m.generate_for(NodeId::gpu(1), 200),
            m.generate_for(NodeId::gpu(2), 200)
        );
    }

    #[test]
    fn poisson_mean_gap_close_to_configured() {
        let mean = 120.0;
        let m = ServingModel::new(4, 1, ArrivalProcess::poisson(mean));
        let reqs = m.generate_for(NodeId::gpu(1), 20_000);
        let span = reqs.last().unwrap().available_at.as_u64() as f64;
        let empirical = span / (reqs.len() - 1) as f64;
        let rel = (empirical - mean).abs() / mean;
        assert!(rel < 0.05, "empirical mean gap {empirical} vs {mean}");
    }

    #[test]
    fn mmpp_preserves_average_rate() {
        let mean = 100.0;
        let m = ServingModel::new(4, 5, ArrivalProcess::bursty(mean, 6.0, 10_000.0));
        let reqs = m.generate_for(NodeId::gpu(1), 50_000);
        let span = reqs.last().unwrap().available_at.as_u64() as f64;
        let empirical = span / (reqs.len() - 1) as f64;
        let rel = (empirical - mean).abs() / mean;
        // Time-averaged rate matches Poisson's within a loose tolerance
        // (dwell randomness makes this noisier than plain Poisson).
        assert!(rel < 0.25, "empirical mean gap {empirical} vs {mean}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Dispersion test: the MMPP's gap variance must exceed Poisson's
        // at the same average rate (CoV^2 > 1 for an on/off MMPP).
        let gaps = |process: ArrivalProcess| -> Vec<f64> {
            let m = ServingModel::new(4, 9, process);
            let reqs = m.generate_for(NodeId::gpu(1), 20_000);
            reqs.windows(2)
                .map(|w| (w[1].available_at.as_u64() - w[0].available_at.as_u64()) as f64)
                .collect()
        };
        let cov2 = |g: &[f64]| {
            let mean = g.iter().sum::<f64>() / g.len() as f64;
            let var = g.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / g.len() as f64;
            var / (mean * mean)
        };
        let poisson = cov2(&gaps(ArrivalProcess::poisson(100.0)));
        let mmpp = cov2(&gaps(ArrivalProcess::bursty(100.0, 8.0, 20_000.0)));
        assert!(
            mmpp > poisson * 1.5,
            "mmpp CoV^2 {mmpp} should exceed poisson {poisson}"
        );
    }

    #[test]
    fn zipf_skew_monotone_in_s() {
        let f0 = top_peer_fraction(0.0);
        let f1 = top_peer_fraction(0.8);
        let f2 = top_peer_fraction(1.6);
        assert!(
            f0 < f1 && f1 < f2,
            "top-peer fraction must grow with s: {f0} {f1} {f2}"
        );
        // s = 0 is uniform over 4 peers.
        assert!((f0 - 0.25).abs() < 0.05, "uniform fraction {f0}");
    }

    #[test]
    fn deadlines_are_arrival_plus_budget() {
        let budget = Duration::cycles(1_500);
        let m = ServingModel::new(4, 3, ArrivalProcess::poisson(70.0)).with_deadline(budget);
        for r in m.generate_for(NodeId::gpu(2), 300) {
            assert_eq!(r.deadline, Some(r.available_at + budget));
        }
    }

    #[test]
    fn never_targets_self_and_covers_gpus() {
        let m = ServingModel::new(4, 2, ArrivalProcess::poisson(50.0)).with_zipf(0.9);
        let all = m.generate_all(250);
        assert_eq!(all.len(), 1_000);
        for r in &all {
            assert_ne!(r.target, r.requester);
        }
        for gpu in 1..=4u16 {
            assert!(all.iter().any(|r| r.requester == NodeId::gpu(gpu)));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_gpu_panics() {
        let _ = ServingModel::new(1, 0, ArrivalProcess::poisson(10.0));
    }

    #[test]
    #[should_panic(expected = "burst_factor")]
    fn sub_unit_burst_factor_panics() {
        let _ = ArrivalProcess::bursty(10.0, 0.5, 100.0);
    }

    #[test]
    fn bursty_keeps_the_poisson_mean_rate() {
        // Equal expected dwell in both states: the rates average to 1/64.
        let ArrivalProcess::Mmpp {
            on_gap, off_gap, ..
        } = ArrivalProcess::bursty(64.0, 8.0, 100.0)
        else {
            panic!("bursty builds an MMPP");
        };
        assert!((2.0 / (1.0 / on_gap + 1.0 / off_gap) - 64.0).abs() < 1e-9);
    }
}
