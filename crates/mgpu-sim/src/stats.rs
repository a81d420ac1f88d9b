//! Small statistics helpers used across the simulator and experiments:
//! histograms with custom bucket edges (for the paper's burstiness
//! figures), geometric means and percentiles.

use core::fmt;

/// A histogram over `u64` samples with caller-defined bucket edges.
///
/// Buckets are `[edge[i], edge[i+1])`, plus a final overflow bucket
/// `[edge[last], ∞)`. The paper's Figs. 15/16 use edges
/// `[0, 40, 160, 640, 2560]` cycles.
///
/// Boundary convention: buckets are **half-open on the right** — a sample
/// equal to an edge belongs to the bucket *starting* at that edge (exactly
/// 160 lands in `[160, 640)`). `Trace::accumulation_fraction_within` in
/// `mgpu-workloads` uses the matching strict-`<` test, so "within edge"
/// always equals the summed fractions of the buckets strictly below that
/// edge; both sites pin this with tests.
///
/// # Examples
///
/// ```
/// use mgpu_sim::stats::Histogram;
///
/// let mut h = Histogram::new(&[0, 40, 160, 640, 2560]);
/// h.record(25);
/// h.record(100);
/// h.record(100_000);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    edges: Vec<u64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly ascending.
    #[must_use]
    pub fn new(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "at least one edge required");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be strictly ascending"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len()],
        }
    }

    /// The bucket edges used by the paper's burst-interval figures.
    #[must_use]
    pub fn paper_burst_edges() -> Self {
        Histogram::new(&[0, 40, 160, 640, 2560])
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is below the first edge.
    pub fn record(&mut self, value: u64) {
        assert!(value >= self.edges[0], "sample below histogram range");
        let bucket = match self.edges.binary_search(&value) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        self.counts[bucket] += 1;
    }

    /// Total samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-bucket fractions in [0, 1]; all zeros when empty.
    #[must_use]
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Human-readable bucket labels, e.g. `[40, 160)` and `[2560, inf)`.
    #[must_use]
    pub fn labels(&self) -> Vec<String> {
        let mut labels = Vec::with_capacity(self.edges.len());
        for w in self.edges.windows(2) {
            labels.push(format!("[{}, {})", w[0], w[1]));
        }
        labels.push(format!("[{}, inf)", self.edges.last().expect("non-empty")));
        labels
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fractions = self.fractions();
        for (label, frac) in self.labels().iter().zip(fractions.iter()) {
            writeln!(f, "{label:>16}: {:5.1}%", frac * 100.0)?;
        }
        Ok(())
    }
}

/// Geometric mean over positive samples — the conventional way to average
/// normalized execution times across benchmarks.
///
/// # Examples
///
/// ```
/// use mgpu_sim::stats::geometric_mean;
///
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// assert!(geometric_mean(&[]).is_none());
/// ```
#[must_use]
pub fn geometric_mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&s| s <= 0.0) {
        return None;
    }
    let log_sum: f64 = samples.iter().map(|s| s.ln()).sum();
    Some((log_sum / samples.len() as f64).exp())
}

/// The `p`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks; `None` when empty or any sample is NaN.
///
/// Used by the observability layer to fold interval series (hit rates,
/// queue depths) into summary statistics for `BENCH_repro.json`.
///
/// # Examples
///
/// ```
/// use mgpu_sim::stats::percentile;
///
/// assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
/// assert_eq!(percentile(&[1.0, 2.0], 100.0), Some(2.0));
/// assert!(percentile(&[], 50.0).is_none());
/// ```
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// The `p`-th percentile of **already-sorted** `samples` — what
/// [`percentile`] computes after its clone and sort; `None` when empty or
/// any sample is NaN. For hot summary paths whose sample vectors are
/// sorted once at collection time (e.g. `LatencyReport::finish`);
/// sortedness is checked in debug builds only.
///
/// # Examples
///
/// ```
/// use mgpu_sim::stats::percentile_sorted;
///
/// assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
/// assert!(percentile_sorted(&[], 50.0).is_none());
/// ```
#[must_use]
pub fn percentile_sorted(samples: &[f64], p: f64) -> Option<f64> {
    debug_assert!(
        samples.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
        "percentile_sorted requires ascending samples"
    );
    // In `total_cmp` order every NaN sorts to an end (negative-bit NaNs
    // first, positive-bit NaNs last), so checking the two ends replaces
    // the full O(n) scan the unsorted variant needs.
    let (first, last) = (samples.first(), samples.last());
    if first.is_none_or(|s| s.is_nan()) || last.is_some_and(|s| s.is_nan()) {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment() {
        let mut h = Histogram::paper_burst_edges();
        h.record(0);
        h.record(39);
        h.record(40);
        h.record(159);
        h.record(160);
        h.record(2559);
        h.record(2560);
        h.record(1_000_000);
        assert_eq!(h.fractions(), vec![0.25, 0.25, 0.125, 0.125, 0.25]);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = Histogram::new(&[0, 10]);
        for v in [1, 2, 3, 11] {
            h.record(v);
        }
        let f = h.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f, vec![0.75, 0.25]);
    }

    #[test]
    fn empty_histogram_fractions_are_zero() {
        let h = Histogram::new(&[0, 10]);
        assert_eq!(h.fractions(), vec![0.0, 0.0]);
    }

    #[test]
    fn labels_format() {
        let h = Histogram::new(&[0, 40, 160]);
        assert_eq!(h.labels(), vec!["[0, 40)", "[40, 160)", "[160, inf)"]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_ascending_edges_panic() {
        let _ = Histogram::new(&[0, 10, 10]);
    }

    #[test]
    #[should_panic(expected = "below histogram range")]
    fn sample_below_range_panics() {
        let mut h = Histogram::new(&[10, 20]);
        h.record(5);
    }

    #[test]
    fn geometric_mean_rejects_nonpositive() {
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[1.0, -2.0]).is_none());
    }

    #[test]
    fn geometric_mean_of_identical_values() {
        let g = geometric_mean(&[1.195, 1.195, 1.195]).unwrap();
        assert!((g - 1.195).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&s, 0.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(40.0));
        assert_eq!(percentile(&s, 50.0), Some(25.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert!(percentile(&[1.0, f64::NAN], 50.0).is_none());
    }

    #[test]
    fn percentile_sorted_matches_unsorted_variant() {
        let s = [10.0, 20.0, 30.0, 40.0];
        for p in [0.0, 25.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile_sorted(&s, p), percentile(&s, p));
        }
        assert_eq!(percentile_sorted(&[7.0], 90.0), Some(7.0));
        assert!(percentile_sorted(&[], 50.0).is_none());
        // NaNs sort to the ends under total_cmp; both are rejected.
        assert!(percentile_sorted(&[1.0, 2.0, f64::NAN], 50.0).is_none());
        assert!(percentile_sorted(&[-f64::NAN, 1.0, 2.0], 50.0).is_none());
    }
}
