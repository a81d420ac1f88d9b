//! `serving` experiment: open-loop inference-serving traffic with
//! tail-latency SLOs.
//!
//! Unlike the paper's batch kernels (closed-loop compute gaps), serving
//! traffic arrives on an external clock: [`ServingModel`] drives seeded
//! Poisson or bursty MMPP arrivals with a Zipf-skewed destination mix and
//! a per-request deadline, and the engine runs in open-loop pacing so
//! queueing delay lands in the latency distribution instead of shifting
//! arrivals. The sweep crosses offered load × burstiness × scheme and
//! reports p50/p99/p999 total latency plus SLO-violation rates.
//!
//! Two adaptive scheme variants ride on the paper's mechanisms:
//!
//! * `dynamic-load-4x` — load-triggered repartitioning: the OTP pool is
//!   repartitioned when the observed arrival rate shifts (burst onset or
//!   end) instead of on every fixed interval.
//! * `batching-deadline-4x` — deadline-aware batch close: open metadata
//!   batches close early when the estimated time to fill the batch
//!   exceeds the SLO slack, converting full-batch closes on data blocks
//!   (which can defer on a full replay table) into trailer closes.

use crate::common::{Mode, SEED};
use crate::report::{percent, Table};
use crate::{Output, Record};
use mgpu_system::runner::configs;
use mgpu_system::{RunReport, Simulation};
use mgpu_types::{Duration, SystemConfig};
use mgpu_workloads::{ArrivalProcess, Benchmark, ServingModel};

/// GPUs in the serving system (the paper's standard 4-GPU node).
const GPUS: u16 = 4;

/// Zipf skew of each tenant's destination mix.
const ZIPF_S: f64 = 0.9;

/// Per-request SLO budget in cycles (unloaded round trip is ~400 cycles;
/// the budget leaves headroom for queueing but is tight under bursts).
const SLO_BUDGET: u64 = 1_200;

/// Burst intensity of the MMPP cells: on-state arrival rate is 8× the
/// off-state rate at the same time-averaged load.
const BURST_FACTOR: f64 = 8.0;

/// Mean dwell time of each MMPP state, in cycles (several repartition
/// check intervals long, so the load shift is observable).
const MEAN_DWELL: f64 = 2_000.0;

/// One cell of the serving sweep, summarized.
#[derive(Debug, Clone)]
pub struct ServingCell {
    /// Offered-load label (`gap60` = mean inter-arrival gap 60 cycles).
    pub load: String,
    /// Arrival-process label (`poisson` or `bursty`).
    pub arrivals: String,
    /// Scheme label (`private-4x`, `dynamic-load-4x`, ...).
    pub scheme: String,
    /// Median total latency in cycles.
    pub p50: f64,
    /// 99th-percentile total latency in cycles.
    pub p99: f64,
    /// 99.9th-percentile total latency in cycles.
    pub p999: f64,
    /// Mean total latency in cycles.
    pub mean: f64,
    /// Fraction of requests that missed their SLO deadline.
    pub violation_rate: f64,
}

/// The serving sweep, summarized (the `serving` block of
/// `BENCH_repro.json`).
#[derive(Debug, Clone)]
pub struct ServingSummary {
    /// Requests per GPU in each cell.
    pub requests_per_gpu: usize,
    /// One entry per (load, arrivals, scheme) cell.
    pub cells: Vec<ServingCell>,
}

/// Mean inter-arrival gaps (cycles) defining the offered-load axis.
///
/// The hot Zipf pair's link saturates during bursts near a 5-cycle mean
/// gap, so `gap5` probes the congestion knee while `gap12` is a moderate
/// load where only bursts queue.
fn load_points() -> [f64; 2] {
    [5.0, 12.0]
}

/// The burstiness axis: steady Poisson and the 8× on/off MMPP at the
/// same time-averaged rate.
fn arrival_points(mean_gap: f64) -> [(&'static str, ArrivalProcess); 2] {
    [
        ("poisson", ArrivalProcess::poisson(mean_gap)),
        (
            "bursty",
            ArrivalProcess::bursty(mean_gap, BURST_FACTOR, MEAN_DWELL),
        ),
    ]
}

/// The scheme axis: the paper's fixed policies plus both adaptive
/// variants.
fn serving_configs(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    vec![
        ("private-4x".into(), configs::private(base, 4)),
        ("dynamic-4x".into(), configs::dynamic(base, 4)),
        ("dynamic-load-4x".into(), configs::load_dynamic(base, 4)),
        ("batching-4x".into(), configs::batching(base, 4)),
        (
            "batching-deadline-4x".into(),
            configs::deadline_batching(base, 4),
        ),
    ]
}

/// Runs one serving cell: open-loop pacing over the seeded serving trace.
#[must_use]
pub fn run_cell(cfg: &SystemConfig, process: ArrivalProcess, per_gpu: usize) -> RunReport {
    let model = ServingModel::new(GPUS, SEED, process)
        .with_zipf(ZIPF_S)
        .with_deadline(Duration::cycles(SLO_BUDGET));
    Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, SEED)
        .with_open_loop()
        .run_trace(model.generate_all(per_gpu))
}

fn cell_summary(load: &str, arrivals: &str, scheme: &str, report: &RunReport) -> ServingCell {
    let lat = &report.latency;
    ServingCell {
        load: load.to_string(),
        arrivals: arrivals.to_string(),
        scheme: scheme.to_string(),
        p50: lat.total_percentile(50.0).unwrap_or(f64::NAN),
        p99: lat.total_percentile(99.0).unwrap_or(f64::NAN),
        p999: lat.total_percentile(99.9).unwrap_or(f64::NAN),
        mean: lat.mean_total(),
        violation_rate: lat.violation_rate(),
    }
}

/// Runs the full sweep and returns the per-cell summaries.
#[must_use]
pub fn sweep(mode: Mode) -> ServingSummary {
    let per_gpu = mode.requests();
    let base = SystemConfig::paper_4gpu();
    let schemes = serving_configs(&base);
    let mut cells = Vec::new();
    for mean_gap in load_points() {
        let load = format!("gap{mean_gap:.0}");
        for (arrivals, process) in arrival_points(mean_gap) {
            for (scheme, cfg) in &schemes {
                let report = run_cell(cfg, process, per_gpu);
                cells.push(cell_summary(&load, arrivals, scheme, &report));
            }
        }
    }
    ServingSummary {
        requests_per_gpu: per_gpu,
        cells,
    }
}

/// The `serving` experiment: one row per (load, arrivals, scheme) cell,
/// and the same cells as the `serving` record block.
#[must_use]
pub fn serving(mode: Mode) -> Output {
    let s = sweep(mode);
    let mut t = Table::new(
        "Serving: tail latency under open-loop load (cycles)",
        &[
            "load", "arrivals", "scheme", "p50", "p99", "p999", "mean", "slo-viol",
        ],
    );
    for c in &s.cells {
        t.add_row(vec![
            c.load.clone(),
            c.arrivals.clone(),
            c.scheme.clone(),
            format!("{:.0}", c.p50),
            format!("{:.0}", c.p99),
            format!("{:.0}", c.p999),
            format!("{:.1}", c.mean),
            percent(c.violation_rate),
        ]);
    }
    Output {
        tables: vec![t],
        record: Some(Record::Serving(s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bursty_cell(scheme_label: &str, mean_gap: f64, per_gpu: usize) -> ServingCell {
        let base = SystemConfig::paper_4gpu();
        let (label, cfg) = serving_configs(&base)
            .into_iter()
            .find(|(l, _)| l == scheme_label)
            .expect("scheme label exists");
        let process = ArrivalProcess::bursty(mean_gap, BURST_FACTOR, MEAN_DWELL);
        let report = run_cell(&cfg, process, per_gpu);
        cell_summary("test", "bursty", &label, &report)
    }

    #[test]
    fn serving_smoke_is_finite_ordered_and_deterministic() {
        let a = bursty_cell("dynamic-4x", 5.0, Mode::Bench.requests());
        let b = bursty_cell("dynamic-4x", 5.0, Mode::Bench.requests());
        for c in [&a, &b] {
            assert!(c.p50.is_finite() && c.p99.is_finite() && c.p999.is_finite());
            assert!(
                c.p50 <= c.p99 && c.p99 <= c.p999,
                "percentiles must be ordered: {} {} {}",
                c.p50,
                c.p99,
                c.p999
            );
            assert!((0.0..=1.0).contains(&c.violation_rate));
        }
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.p999, b.p999);
        assert_eq!(a.violation_rate, b.violation_rate);
    }

    #[test]
    fn open_loop_latency_counts_queueing_delay() {
        // Under heavy load the total latency (from arrival) must exceed
        // the service latency (from issue) in the tail: that gap *is* the
        // queueing delay open-loop pacing exposes.
        let base = SystemConfig::paper_4gpu();
        let cfg = configs::dynamic(&base, 4);
        let report = run_cell(
            &cfg,
            ArrivalProcess::bursty(5.0, BURST_FACTOR, MEAN_DWELL),
            100,
        );
        let lat = &report.latency;
        assert_eq!(lat.total.len() as u64, report.requests);
        assert_eq!(lat.total.len(), lat.service.len());
        assert!(
            lat.total_percentile(99.0).unwrap() >= percentile_of(&lat.service, 99.0),
            "total latency can only add queueing delay on top of service"
        );
        // Every request carried a deadline.
        assert_eq!(lat.with_deadline, report.requests);
    }

    fn percentile_of(samples: &[f64], p: f64) -> f64 {
        mgpu_sim::stats::percentile(samples, p).unwrap()
    }

    #[test]
    fn adaptive_variants_improve_bursty_p99_over_parents() {
        // The acceptance bar for this experiment: on at least one bursty
        // cell, each adaptive variant beats its fixed-policy parent's
        // p99. Quick-size cells keep this deterministic and cheap.
        let per_gpu = Mode::Quick.requests();
        let mut load_win = false;
        let mut deadline_win = false;
        for mean_gap in load_points() {
            let dynamic = bursty_cell("dynamic-4x", mean_gap, per_gpu);
            let load_dynamic = bursty_cell("dynamic-load-4x", mean_gap, per_gpu);
            let batching = bursty_cell("batching-4x", mean_gap, per_gpu);
            let deadline = bursty_cell("batching-deadline-4x", mean_gap, per_gpu);
            if load_dynamic.p99 < dynamic.p99 {
                load_win = true;
            }
            if deadline.p99 < batching.p99 {
                deadline_win = true;
            }
        }
        assert!(
            load_win,
            "load-triggered repartition should beat fixed-interval p99 on a bursty cell"
        );
        assert!(
            deadline_win,
            "deadline-aware close should beat fixed-timeout p99 on a bursty cell"
        );
    }

    #[test]
    #[ignore]
    fn dump_sweep() {
        for c in sweep(Mode::Quick).cells {
            println!(
                "{:>7} {:>8} {:>22} p50={:>7.0} p99={:>7.0} p999={:>8.0} mean={:>8.1} viol={:.3}",
                c.load, c.arrivals, c.scheme, c.p50, c.p99, c.p999, c.mean, c.violation_rate
            );
        }
    }

    #[test]
    fn table_covers_the_full_sweep() {
        let t = &serving(Mode::Bench).tables[0];
        // 2 loads x 2 arrival processes x 5 schemes.
        assert_eq!(t.len(), 20);
    }
}
