//! Evaluation-section experiments: Figs. 21–26 and Table IV.

use crate::common::{self, Mode};
use crate::motivation::otp_distribution_table;
use crate::report::{percent, ratio, Table};
use mgpu_system::runner::configs;
use mgpu_system::RunReport;
use mgpu_types::{Duration, SystemConfig};
use mgpu_workloads::Benchmark;

/// Fig. 21: the main result — Private 4×/16×, Cached 4×, Dynamic 4× and
/// Dynamic+Batching 4×, normalized to the unsecure 4-GPU system.
#[must_use]
pub fn fig21(mode: Mode) -> Vec<Table> {
    vec![normalized_table(
        "Fig. 21: execution times with 4 GPUs",
        &SystemConfig::paper_4gpu(),
        &common::fig21_configs(&SystemConfig::paper_4gpu()),
        mode,
        RunReport::normalized_time,
    )]
}

/// Shared scaffolding: one column per configuration, one row per
/// benchmark plus the geomean. Each cell is `metric(run, baseline)`
/// against the unsecure twin of `base` (normalized time or traffic
/// ratio; 1.0 when the baseline is degenerate). All cells run in one
/// [`common::run_many`] call over [`common::table_cells`].
pub(crate) fn normalized_table(
    title: &str,
    base: &SystemConfig,
    cfgs: &[(String, SystemConfig)],
    mode: Mode,
    metric: fn(&RunReport, &RunReport) -> Option<f64>,
) -> Table {
    let reports = common::run_many(&common::table_cells(base, cfgs, mode));
    let columns = metric_columns(&reports, cfgs.len(), metric);
    let mut headers: Vec<&str> = vec!["bench"];
    headers.extend(cfgs.iter().map(|(l, _)| l.as_str()));
    let mut t = Table::new(title, &headers);
    for (i, &bench) in mode.suite().iter().enumerate() {
        let mut row = vec![bench.abbrev().to_string()];
        row.extend(columns.iter().map(|column| ratio(column[i])));
        t.add_row(row);
    }
    let mut row = vec!["geomean".to_string()];
    for col in &columns {
        row.push(ratio(common::geomean(col)));
    }
    t.add_row(row);
    t
}

/// Splits [`common::table_cells`]' reports — per benchmark, the baseline
/// and then `ncfgs` configurations — into one column per configuration
/// holding each benchmark's `metric(run, baseline)` (1.0 when the metric
/// is undefined, e.g. a degenerate baseline).
fn metric_columns(
    reports: &[RunReport],
    ncfgs: usize,
    metric: fn(&RunReport, &RunReport) -> Option<f64>,
) -> Vec<Vec<f64>> {
    let mut columns = vec![Vec::new(); ncfgs];
    for row in reports.chunks(ncfgs + 1) {
        let (baseline, runs) = row.split_first().expect("every row has a baseline");
        for (column, r) in columns.iter_mut().zip(runs) {
            column.push(metric(r, baseline).unwrap_or(1.0));
        }
    }
    columns
}

/// Fig. 22: OTP latency-hiding distribution for Private, Cached and Ours
/// (Dynamic + Batching).
#[must_use]
pub fn fig22(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    vec![otp_distribution_table(
        "Fig. 22: OTP distribution, Private vs Cached vs Ours (4 GPUs)",
        &common::ours_triple(&base),
        mode,
    )]
}

/// Fig. 23: interconnect traffic for Private, Cached and Ours, normalized
/// to the unsecure system.
#[must_use]
pub fn fig23(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    vec![normalized_table(
        "Fig. 23: communication traffic (4 GPUs, OTP 4x)",
        &base,
        &common::ours_triple(&base),
        mode,
        RunReport::traffic_ratio,
    )]
}

/// Figs. 24/25: execution times for 8- and 16-GPU systems
/// (Private / Cached / Ours, normalized to the matching unsecure system).
#[must_use]
pub fn scale(mode: Mode, gpus: u16) -> Vec<Table> {
    let base = match gpus {
        8 => SystemConfig::paper_8gpu(),
        16 => SystemConfig::paper_16gpu(),
        _ => panic!("scaling experiments cover 8 and 16 GPUs"),
    };
    let figure = if gpus == 8 { "Fig. 24" } else { "Fig. 25" };
    vec![normalized_table(
        &format!("{figure}: execution times with {gpus} GPUs"),
        &base,
        &common::ours_triple(&base),
        mode,
        RunReport::normalized_time,
    )]
}

/// Fig. 26: sensitivity to AES-GCM latency (10–40 cycles) for Private,
/// Cached and Ours; suite geomeans.
#[must_use]
pub fn fig26(mode: Mode) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 26: AES-GCM latency sensitivity (4 GPUs)",
        &["aes-latency", "private-4x", "cached-4x", "ours"],
    );
    let latencies = [10u64, 20, 30, 40];
    let sweep: Vec<(String, SystemConfig)> = latencies
        .iter()
        .flat_map(|&cycles| {
            let mut base = SystemConfig::paper_4gpu();
            base.security.aes_latency = Duration::cycles(cycles);
            common::ours_triple(&base)
        })
        .collect();
    // Every latency's configs share the one unsecure baseline.
    let cells = common::table_cells(&SystemConfig::paper_4gpu(), &sweep, mode);
    let columns = metric_columns(
        &common::run_many(&cells),
        sweep.len(),
        RunReport::normalized_time,
    );
    for (cycles, triple) in latencies
        .iter()
        .zip(columns.chunks(sweep.len() / latencies.len()))
    {
        let mut row = vec![format!("{cycles}cy")];
        row.extend(triple.iter().map(|column| ratio(common::geomean(column))));
        t.add_row(row);
    }
    vec![t]
}

/// Compute units per GPU (paper Table III). Printed for completeness:
/// nothing in the model simulates CUs.
const CUS_PER_GPU: u32 = 64;

/// Table III: the simulated system configuration, as actually wired into
/// the model (so config drift from the paper is immediately visible).
#[must_use]
pub fn table3(_mode: Mode) -> Vec<Table> {
    let cfg = SystemConfig::paper_4gpu();
    let mut t = Table::new("Table III: simulated GPU system", &["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("system", format!("{} GPUs + CPU", cfg.gpu_count)),
        ("CUs per GPU", CUS_PER_GPU.to_string()),
        (
            "GPU-GPU link",
            format!("{} B/cycle (NVLink2-class)", cfg.gpu_link_bytes_per_cycle),
        ),
        (
            "CPU-GPU link",
            format!("{} B/cycle (PCIe v4)", cfg.pcie_bytes_per_cycle),
        ),
        ("link latency", cfg.link_latency.to_string()),
        ("HBM latency", cfg.dram_latency.to_string()),
        ("AES-GCM latency", cfg.security.aes_latency.to_string()),
        (
            "OTP multiplier",
            format!(
                "{}x ({} buffers/node)",
                cfg.security.otp_multiplier,
                cfg.total_otp_buffers_per_node()
            ),
        ),
        ("alpha", cfg.security.dynamic.alpha.to_string()),
        ("beta", cfg.security.dynamic.beta.to_string()),
        ("T", cfg.security.dynamic.interval.to_string()),
        ("batch size n", cfg.security.batching.batch_size.to_string()),
        (
            "batch flush timeout",
            cfg.security.batching.flush_timeout.to_string(),
        ),
        (
            "replay (ACK) table",
            format!("{} entries/node", cfg.security.ack_table_entries),
        ),
        ("max outstanding/GPU", cfg.max_outstanding.to_string()),
    ];
    for (k, v) in rows {
        t.add_row(vec![k.to_string(), v]);
    }
    vec![t]
}

/// Table IV: the evaluated workloads with suite, *measured* traffic
/// intensity (requests per kilocycle as the RPKI proxy — see DESIGN.md)
/// and the paper's class.
#[must_use]
pub fn table4(mode: Mode) -> Vec<Table> {
    let mut t = Table::new(
        "Table IV: evaluated benchmarks",
        &["bench", "suite", "class", "req-per-kcy", "migr-frac"],
    );
    let _ = mode;
    for bench in Benchmark::ALL {
        let p = bench.params();
        t.add_row(vec![
            bench.abbrev().to_string(),
            bench.suite().to_string(),
            bench.rpki_class().to_string(),
            format!("{:.1}", p.requests_per_kilocycle()),
            percent(p.migration_fraction),
        ]);
    }
    vec![t]
}

/// Ablation: batching batch-size sweep (extension beyond the paper's
/// fixed n = 16, motivated by its §IV-D mention of 16 vs 64).
#[must_use]
pub fn ablation_batch_size(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    let mut t = Table::new(
        "Ablation: batch size sweep (Dynamic + Batching, 4 GPUs)",
        &[
            "batch-size",
            "normalized-time",
            "traffic-ratio",
            "mean-occupancy",
        ],
    );
    let sizes = [4u32, 8, 16, 32, 64];
    let sweep: Vec<(String, SystemConfig)> = sizes
        .iter()
        .map(|&n| {
            let mut cfg = configs::batching(&base, 4);
            cfg.security.batching.batch_size = n;
            (n.to_string(), cfg)
        })
        .collect();
    let reports = common::run_many(&common::table_cells(&base, &sweep, mode));
    let times = metric_columns(&reports, sweep.len(), RunReport::normalized_time);
    let traffics = metric_columns(&reports, sweep.len(), RunReport::traffic_ratio);
    let occupancies = metric_columns(&reports, sweep.len(), |r, _| Some(r.mean_batch_occupancy));
    for (i, (label, _)) in sweep.iter().enumerate() {
        let occupancy: f64 = occupancies[i].iter().sum();
        t.add_row(vec![
            label.clone(),
            ratio(common::geomean(&times[i])),
            ratio(common::geomean(&traffics[i])),
            format!("{:.1}", occupancy / mode.suite().len() as f64),
        ]);
    }
    vec![t]
}

/// Ablation: dynamic-allocator interval sweep (paper fixes T = 1000).
#[must_use]
pub fn ablation_interval(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    let mut t = Table::new(
        "Ablation: Dynamic re-allocation interval T (4 GPUs)",
        &["interval", "normalized-time"],
    );
    let intervals = [250u64, 500, 1_000, 2_000, 8_000];
    let sweep: Vec<(String, SystemConfig)> = intervals
        .iter()
        .map(|&interval| {
            let mut cfg = configs::dynamic(&base, 4);
            cfg.security.dynamic.interval = Duration::cycles(interval);
            (interval.to_string(), cfg)
        })
        .collect();
    let reports = common::run_many(&common::table_cells(&base, &sweep, mode));
    let times = metric_columns(&reports, sweep.len(), RunReport::normalized_time);
    for ((label, _), column) in sweep.iter().zip(&times) {
        t.add_row(vec![label.clone(), ratio(common::geomean(column))]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geomean_row(t: &Table) -> Vec<f64> {
        t.to_csv()
            .lines()
            .last()
            .unwrap()
            .split(',')
            .skip(1)
            .map(|v| v.parse().unwrap())
            .collect()
    }

    #[test]
    fn fig21_ordering_holds() {
        let t = &fig21(Mode::Quick)[0];
        let g = geomean_row(t);
        let (p4, p16, _cached, dynamic, batching) = (g[0], g[1], g[2], g[3], g[4]);
        assert!(p4 > p16, "private 4x {p4} should exceed 16x {p16}");
        assert!(p4 > dynamic, "private {p4} should exceed dynamic {dynamic}");
        assert!(
            batching <= dynamic + 1e-9,
            "batching {batching} should not exceed dynamic {dynamic}"
        );
        assert!(
            batching < p4,
            "batching {batching} should beat private {p4}"
        );
    }

    #[test]
    fn fig23_batching_cuts_traffic() {
        let t = &fig23(Mode::Quick)[0];
        let g = geomean_row(t);
        let (private, cached, ours) = (g[0], g[1], g[2]);
        assert!(ours < private, "ours {ours} >= private {private}");
        assert!(ours < cached, "ours {ours} >= cached {cached}");
        assert!(private > 1.25, "private traffic {private}");
    }

    #[test]
    fn scale_rejects_other_sizes() {
        let result = std::panic::catch_unwind(|| scale(Mode::Quick, 6));
        assert!(result.is_err());
    }

    #[test]
    fn table3_reflects_the_wired_config() {
        let t = &table3(Mode::Quick)[0];
        let csv = t.to_csv();
        assert!(csv.contains("alpha,0.9"));
        assert!(csv.contains("beta,0.5"));
        assert!(csv.contains("T,1000cy"));
        assert!(csv.contains("AES-GCM latency,40cy"));
    }

    #[test]
    fn table4_lists_all_benchmarks() {
        let t = &table4(Mode::Quick)[0];
        assert_eq!(t.len(), 17);
        assert!(t.to_csv().contains("mt,AMD APP SDK,high"));
    }

    #[test]
    fn ablation_batch_size_traffic_monotone() {
        let t = &ablation_batch_size(Mode::Quick)[0];
        let traffics: Vec<f64> = t
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(2).unwrap().parse().unwrap())
            .collect();
        // Bigger batches amortize more metadata.
        assert!(traffics.first().unwrap() > traffics.last().unwrap());
    }
}
