//! Run metrics collected by the simulation.

use crate::node::SecureNic;
use crate::timeseries::Timeline;
use mgpu_secure::adversary::SecurityEventLog;
use mgpu_secure::OtpStats;
use mgpu_sim::link::TrafficTotals;
use mgpu_sim::stats::percentile_sorted;
use mgpu_types::{Cycle, Duration, OtpSchemeKind};
use mgpu_workloads::Benchmark;

/// Per-request latency distributions and SLO accounting for one run.
///
/// Each completed request contributes one sample to each vector; the
/// engine sorts the vectors ascending before publishing the report, so
/// the `Debug` rendering depends only on the multiset of samples. Samples
/// are in cycles. Latencies are measured from the request's *arrival*
/// (`available_at`) — under open-loop pacing this includes queueing delay
/// from stalled issue slots, which is exactly the serving-tail signal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyReport {
    /// Total latency: completion − arrival.
    pub total: Vec<f64>,
    /// Service latency: completion − issue (excludes queueing delay).
    pub service: Vec<f64>,
    /// Requests that carried an SLO deadline.
    pub with_deadline: u64,
    /// Deadline-carrying requests that completed after their deadline.
    pub violations: u64,
}

impl LatencyReport {
    /// An empty report with room for `requests` samples per vector.
    #[must_use]
    pub fn with_capacity(requests: usize) -> Self {
        LatencyReport {
            total: Vec::with_capacity(requests),
            service: Vec::with_capacity(requests),
            ..LatencyReport::default()
        }
    }

    /// Records one completed request. Samples are appended unsorted;
    /// call [`LatencyReport::finish`] before publishing.
    pub fn record(&mut self, arrived: Cycle, issued: Cycle, done: Cycle, deadline: Option<Cycle>) {
        self.total
            .push(done.saturating_since(arrived).as_u64() as f64);
        self.service
            .push(done.saturating_since(issued).as_u64() as f64);
        if let Some(d) = deadline {
            self.with_deadline += 1;
            if done > d {
                self.violations += 1;
            }
        }
    }

    /// Sorts the sample vectors into their canonical ascending order.
    /// Values equal under `total_cmp` have equal bits, so the unstable
    /// sort's output is the stable sort's, without its scratch buffer.
    pub fn finish(&mut self) {
        self.total.sort_unstable_by(f64::total_cmp);
        self.service.sort_unstable_by(f64::total_cmp);
    }

    /// The `p`-th percentile (0–100) of total latency; `None` when no
    /// requests completed. The samples are sorted by
    /// [`LatencyReport::finish`], so this is O(1) per call.
    #[must_use]
    pub fn total_percentile(&self, p: f64) -> Option<f64> {
        percentile_sorted(&self.total, p)
    }

    /// Mean total latency in cycles; zero when empty.
    #[must_use]
    pub fn mean_total(&self) -> f64 {
        if self.total.is_empty() {
            0.0
        } else {
            self.total.iter().sum::<f64>() / self.total.len() as f64
        }
    }

    /// Fraction of deadline-carrying requests that missed their deadline;
    /// zero when no request carried one.
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        if self.with_deadline == 0 {
            0.0
        } else {
            self.violations as f64 / self.with_deadline as f64
        }
    }
}

/// Everything one simulation run measures.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The modeled benchmark.
    pub benchmark: Benchmark,
    /// OTP scheme in effect.
    pub scheme: OtpSchemeKind,
    /// Whether metadata batching was enabled.
    pub batching: bool,
    /// Execution time: the cycle at which the last request's data became
    /// usable.
    pub total_cycles: Duration,
    /// Remote requests completed.
    pub requests: u64,
    /// 64 B blocks transferred (page migrations count 64 each).
    pub blocks: u64,
    /// Per-class interconnect traffic across every link.
    pub traffic: TrafficTotals,
    /// Merged OTP hit/partial/miss statistics across all nodes.
    pub otp: OtpStats,
    /// ACK messages transmitted.
    pub acks_sent: u64,
    /// Total pad generations issued to the AES engines.
    pub pads_issued: u64,
    /// Mean blocks per closed batch (0 when batching is off).
    pub mean_batch_occupancy: f64,
    /// Per-request latency distributions (sorted) and SLO accounting.
    pub latency: LatencyReport,
    /// Wire crossings tampered with by the adversary harness (0 when the
    /// adversary is disabled).
    pub tampered_crossings: u64,
    /// Security-event ledger from the adversary harness: injections,
    /// detections, misses, false positives, per-pair counts and
    /// time-to-detection. Empty when the adversary is disabled.
    pub security: SecurityEventLog,
    /// Interval-resolved observability series; `None` unless
    /// `config.observability.enabled` was set for the run.
    pub timeline: Option<Timeline>,
    /// Discrete events popped from the engine's queue over the run — the
    /// denominator-free measure of engine work, used to report throughput
    /// (events per wall-clock second) in benchmarks.
    pub events_processed: u64,
}

impl RunReport {
    /// Execution time normalized to a baseline run (the paper's
    /// "normalized execution time"; > 1 means slower than baseline).
    ///
    /// Returns `None` when the baseline took zero cycles (a degenerate
    /// zero-request workload) — previously this panicked, so an empty
    /// workload could never produce a comparison report.
    #[must_use]
    pub fn normalized_time(&self, baseline: &RunReport) -> Option<f64> {
        let base = baseline.total_cycles.as_u64();
        if base == 0 {
            return None;
        }
        Some(self.total_cycles.as_u64() as f64 / base as f64)
    }

    /// Total interconnect traffic normalized to a baseline run
    /// (the paper's Figs. 12/23).
    ///
    /// Returns `None` when the baseline moved zero bytes.
    #[must_use]
    pub fn traffic_ratio(&self, baseline: &RunReport) -> Option<f64> {
        let base = baseline.traffic.total().as_u64();
        if base == 0 {
            return None;
        }
        Some(self.traffic.total().as_u64() as f64 / base as f64)
    }

    /// Fraction of this run's bytes that were security metadata.
    #[must_use]
    pub fn metadata_fraction(&self) -> f64 {
        let total = self.traffic.total().as_u64();
        if total == 0 {
            0.0
        } else {
            self.traffic.metadata().as_u64() as f64 / total as f64
        }
    }
}

/// The fleet's [`RunReport`] security fields: merged OTP statistics,
/// pads issued, and mean blocks per closed batch across `nics`, each
/// NIC's mean weighted by its closed batches so a NIC that closed few
/// batches counts for few. An empty fleet (an unsecure run) reads zero.
pub(crate) fn otp_summary<'a>(
    nics: impl IntoIterator<Item = &'a SecureNic>,
) -> (OtpStats, u64, f64) {
    let mut otp = OtpStats::default();
    let mut pads_issued = 0;
    let mut closed_blocks = 0.0;
    let mut closed_batches = 0u64;
    for nic in nics {
        otp.merge(nic.otp_stats());
        pads_issued += nic.pads_issued();
        let (full, flush) = nic.batch_closes();
        closed_blocks += nic.mean_batch_occupancy() * (full + flush) as f64;
        closed_batches += full + flush;
    }
    let mean_occupancy = if closed_batches > 0 {
        closed_blocks / closed_batches as f64
    } else {
        0.0
    };
    (otp, pads_issued, mean_occupancy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_sim::link::TrafficClass;
    use mgpu_types::ByteSize;

    fn report(cycles: u64, data: u64, meta: u64) -> RunReport {
        let mut traffic = TrafficTotals::default();
        traffic.add(TrafficClass::Data, ByteSize::new(data));
        traffic.add(TrafficClass::Mac, ByteSize::new(meta));
        RunReport {
            benchmark: Benchmark::Atax,
            scheme: OtpSchemeKind::Private,
            batching: false,
            total_cycles: Duration::cycles(cycles),
            requests: 10,
            blocks: 10,
            traffic,
            otp: OtpStats::default(),
            acks_sent: 10,
            pads_issued: 40,
            mean_batch_occupancy: 0.0,
            latency: LatencyReport::default(),
            tampered_crossings: 0,
            security: SecurityEventLog::default(),
            timeline: None,
            events_processed: 0,
        }
    }

    #[test]
    fn normalization() {
        let base = report(1000, 640, 0);
        let secure = report(1195, 640, 230);
        assert!((secure.normalized_time(&base).unwrap() - 1.195).abs() < 1e-12);
        assert!((secure.traffic_ratio(&base).unwrap() - 870.0 / 640.0).abs() < 1e-12);
    }

    #[test]
    fn metadata_fraction() {
        let r = report(100, 720, 280);
        assert!((r.metadata_fraction() - 0.28).abs() < 1e-12);
        let empty = report(100, 0, 0);
        assert_eq!(empty.metadata_fraction(), 0.0);
    }

    #[test]
    fn latency_report_records_and_sorts() {
        let mut l = LatencyReport::default();
        // Arrived 0, issued 10, done 100, deadline 80: miss.
        l.record(
            Cycle::new(0),
            Cycle::new(10),
            Cycle::new(100),
            Some(Cycle::new(80)),
        );
        // Arrived 5, issued 5, done 30, deadline 60: met.
        l.record(
            Cycle::new(5),
            Cycle::new(5),
            Cycle::new(30),
            Some(Cycle::new(60)),
        );
        l.finish();
        assert_eq!(l.total, vec![25.0, 100.0]);
        assert_eq!(l.service, vec![25.0, 90.0]);
        assert_eq!(l.with_deadline, 2);
        assert_eq!(l.violations, 1);
        assert!((l.violation_rate() - 0.5).abs() < 1e-12);
        assert!((l.mean_total() - 62.5).abs() < 1e-12);
        assert_eq!(l.total_percentile(100.0), Some(100.0));
    }

    #[test]
    fn empty_latency_report_is_benign() {
        let l = LatencyReport::default();
        assert_eq!(l.total_percentile(99.0), None);
        assert_eq!(l.mean_total(), 0.0);
        assert_eq!(l.violation_rate(), 0.0);
    }

    #[test]
    fn fleet_occupancy_is_blocks_per_closed_batch() {
        use mgpu_types::{NodeId, SystemConfig};
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.scheme = OtpSchemeKind::Dynamic;
        cfg.security.batching.enabled = true;
        cfg.security.batching.batch_size = 16;
        let mut gpu1 = SecureNic::new(NodeId::gpu(1), &cfg);
        let mut gpu2 = SecureNic::new(NodeId::gpu(2), &cfg);
        // GPU 1 fills two 16-block batches; GPU 2 sends one block whose
        // batch closes by timeout.
        for i in 0..32 {
            gpu1.prepare_send(Cycle::new(10_000 + i), NodeId::gpu(3));
        }
        gpu2.prepare_send(Cycle::new(10_000), NodeId::gpu(3));
        let mut flushed = Vec::new();
        gpu2.flush_due(Cycle::MAX, &mut flushed);
        assert_eq!(flushed.len(), 1);
        // 33 blocks over 3 batches, not the mean of the per-NIC means
        // (16 and 1).
        let (_, _, occupancy) = otp_summary([&gpu1, &gpu2]);
        assert!((occupancy - 11.0).abs() < 1e-12, "{occupancy}");
        // An unsecure run has no NICs: its summary reads zero.
        let (otp, pads, occupancy) = otp_summary([]);
        assert_eq!(otp, OtpStats::default());
        assert_eq!((pads, occupancy), (0, 0.0));
    }

    #[test]
    fn zero_baseline_yields_none() {
        let base = report(0, 640, 0);
        let secure = report(100, 640, 0);
        assert_eq!(secure.normalized_time(&base), None);
        let mut no_bytes = report(100, 0, 0);
        no_bytes.traffic = TrafficTotals::default();
        assert_eq!(secure.traffic_ratio(&no_bytes), None);
    }
}
