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

/// Mean dwell time of each MMPP state, in cycles (two Dynamic
/// repartition intervals, so the load shift is observable).
const MEAN_DWELL: f64 = 2_000.0;

/// One cell of the serving sweep, summarized.
#[derive(Debug, Clone)]
pub struct ServingCell {
    /// Offered-load label (`gap60` = mean inter-arrival gap 60 cycles).
    pub load: String,
    /// Arrival-process label (`poisson` or `bursty`).
    pub arrivals: String,
    /// Scheme label (`private-4x`, `dynamic-4x` or `batching-4x`).
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

/// The scheme axis: the paper's Private baseline, Dynamic, and Dynamic
/// with metadata batching.
fn serving_configs(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    vec![
        ("private-4x".into(), configs::private(base, 4)),
        ("dynamic-4x".into(), configs::dynamic(base, 4)),
        ("batching-4x".into(), configs::batching(base, 4)),
    ]
}

/// Runs one serving cell: open-loop pacing over the serving trace that
/// `seed` draws; the simulation takes the same seed.
#[must_use]
pub fn run_cell(
    cfg: &SystemConfig,
    process: ArrivalProcess,
    per_gpu: usize,
    seed: u64,
) -> RunReport {
    let model = ServingModel::new(GPUS, seed, process)
        .with_zipf(ZIPF_S)
        .with_deadline(Duration::cycles(SLO_BUDGET));
    Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, seed)
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
                let report = run_cell(cfg, process, per_gpu, SEED);
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

    fn gap5_bursty_cell(scheme_label: &str, per_gpu: usize, seed: u64) -> ServingCell {
        let base = SystemConfig::paper_4gpu();
        let (label, cfg) = serving_configs(&base)
            .into_iter()
            .find(|(l, _)| l == scheme_label)
            .expect("scheme label exists");
        let process = ArrivalProcess::bursty(5.0, BURST_FACTOR, MEAN_DWELL);
        let report = run_cell(&cfg, process, per_gpu, seed);
        cell_summary("test", "bursty", &label, &report)
    }

    #[test]
    fn serving_smoke_is_finite_ordered_and_deterministic() {
        let a = gap5_bursty_cell("dynamic-4x", Mode::Bench.requests(), SEED);
        let b = gap5_bursty_cell("dynamic-4x", Mode::Bench.requests(), SEED);
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
            SEED,
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
    fn batching_beats_dynamic_bursty_p99_across_seeds() {
        // The table's headline verdict, held on more than one seed: at
        // the congestion knee under bursts, batching's p99 sits below
        // fixed-interval Dynamic's. Quick-size cells keep this cheap.
        let per_gpu = Mode::Quick.requests();
        for seed in [SEED, 1, 2, 3] {
            let dynamic = gap5_bursty_cell("dynamic-4x", per_gpu, seed);
            let batching = gap5_bursty_cell("batching-4x", per_gpu, seed);
            assert!(
                batching.p99 < dynamic.p99,
                "seed {seed}: batching p99 {} vs dynamic p99 {}",
                batching.p99,
                dynamic.p99
            );
        }
    }

    #[test]
    fn table_covers_the_full_sweep() {
        let t = &serving(Mode::Bench).tables[0];
        // 2 loads x 2 arrival processes x 3 schemes.
        assert_eq!(t.len(), 12);
    }
}
