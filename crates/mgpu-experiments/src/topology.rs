//! Topology scaling: how the fabric shape amplifies security-metadata
//! traffic.
//!
//! The paper evaluates a fully-connected system, where every block and
//! every piece of metadata crosses exactly one link. Real NVLink fabrics
//! are rings and switch hierarchies: a message crosses several hops, and
//! *every byte — payload and metadata — is charged once per hop*. This
//! experiment sweeps system size × fabric shape × security scheme and
//! reports the per-hop amplification, showing that the paper's Batching
//! scheme matters *more* on routed fabrics: the fewer metadata bytes it
//! puts on the wire, the less there is to amplify.

use crate::common::{self, Cell, Mode};
use crate::report::{ratio, Table};
use mgpu_system::runner::configs;
use mgpu_types::{SystemConfig, TopologyKind};
use mgpu_workloads::Benchmark;

/// Fabric shapes swept: the paper's fully-connected reference plus the
/// two routed shapes.
const SHAPES: [TopologyKind; 3] = [
    TopologyKind::FullyConnected,
    TopologyKind::Ring,
    TopologyKind::Switch { radix: 4 },
];

/// System sizes swept (the paper's 4-GPU system plus its scale-out
/// points, Figs. 24–25).
const GPU_COUNTS: [u16; 3] = [4, 8, 16];

/// Scale-out sizes past the paper's sweep. These sweep only
/// [`LARGE_SHAPES`]: the ring's O(gpus) hop count would dominate runtime
/// above 16 GPUs without adding signal, while the switch hierarchy (≤ 3
/// switch hops at any size) is the shape real scale-out fabrics take.
const LARGE_GPU_COUNTS: [u16; 3] = [32, 64, 128];

/// Shapes swept at the [`LARGE_GPU_COUNTS`] scales: the switch hierarchy
/// under test plus the fully-connected amplification reference.
const LARGE_SHAPES: [TopologyKind; 2] = [
    TopologyKind::FullyConnected,
    TopologyKind::Switch { radix: 4 },
];

/// Remote requests per GPU for one sweep cell: the mode's budget at the
/// paper scales, scaled down above 16 GPUs so total injected work per
/// cell stays roughly constant (`gpus × requests ≈ 16 × budget`).
fn requests_for(gpus: u16, mode: Mode) -> usize {
    let budget = mode.requests();
    if gpus <= 16 {
        budget
    } else {
        (budget * 16 / usize::from(gpus)).max(8)
    }
}

/// The paper-parameter base config for `gpus` GPUs.
fn base_for(gpus: u16) -> SystemConfig {
    match gpus {
        4 => SystemConfig::paper_4gpu(),
        8 => SystemConfig::paper_8gpu(),
        16 => SystemConfig::paper_16gpu(),
        _ => {
            let mut cfg = SystemConfig::paper_4gpu();
            cfg.gpu_count = gpus;
            cfg
        }
    }
}

/// A scheme builder from [`configs`]: base config and OTP multiplier in.
type SchemeBuilder = fn(&SystemConfig, u32) -> SystemConfig;

/// The schemes compared, each at OTP 4×: the Private baseline, Dynamic,
/// and the full Dynamic + Batching proposal.
const SCHEMES: [(&str, SchemeBuilder); 3] = [
    ("private", configs::private),
    ("dynamic", configs::dynamic),
    ("batching", configs::batching),
];

/// Benchmarks swept: one transpose-heavy and one sparse pattern (reduced
/// under `Bench`).
fn benches(mode: Mode) -> &'static [Benchmark] {
    match mode {
        Mode::Full | Mode::Quick => &[Benchmark::MatrixTranspose, Benchmark::Spmv],
        Mode::Bench => &[Benchmark::MatrixTranspose],
    }
}

/// One sweep point: a system size on a fabric shape.
type Point = (u16, TopologyKind);

/// One scheme's totals at a sweep point, summed over the mode's
/// benchmarks: `(label, cycles, total bytes, metadata bytes)`.
type SchemeTotals = (String, u64, u64, u64);

/// Every point of the sweep, in table order: the paper scales on all
/// [`SHAPES`], then the scale-out sizes on [`LARGE_SHAPES`]. Both shape
/// lists start with the fully-connected amplification reference.
fn points() -> Vec<Point> {
    let paper = GPU_COUNTS
        .iter()
        .flat_map(|&gpus| SHAPES.iter().map(move |&kind| (gpus, kind)));
    let large = LARGE_GPU_COUNTS
        .iter()
        .flat_map(|&gpus| LARGE_SHAPES.iter().map(move |&kind| (gpus, kind)));
    paper.chain(large).collect()
}

/// The cells of one sweep point, scheme-major: every scheme on every
/// benchmark of the mode.
fn point_cells((gpus, kind): Point, mode: Mode) -> Vec<Cell> {
    let base = base_for(gpus).with_topology(kind);
    let requests = requests_for(gpus, mode);
    SCHEMES
        .iter()
        .flat_map(|(_, scheme)| {
            let cfg = scheme(&base, 4);
            benches(mode).iter().map(move |&bench| Cell {
                requests,
                ..Cell::new(cfg.clone(), bench, mode)
            })
        })
        .collect()
}

/// Runs every point's cells in one [`common::run_many`] call and returns
/// each point's per-scheme totals, in point order.
fn sweep(points: &[Point], mode: Mode) -> Vec<Vec<SchemeTotals>> {
    let cells: Vec<Cell> = points.iter().flat_map(|&p| point_cells(p, mode)).collect();
    let per_scheme = benches(mode).len();
    common::run_many(&cells)
        .chunks(SCHEMES.len() * per_scheme)
        .map(|point| {
            SCHEMES
                .iter()
                .zip(point.chunks(per_scheme))
                .map(|((label, _), runs)| {
                    runs.iter().fold((label.to_string(), 0, 0, 0), |acc, r| {
                        (
                            acc.0,
                            acc.1 + r.total_cycles.as_u64(),
                            acc.2 + r.traffic.total().as_u64(),
                            acc.3 + r.traffic.metadata().as_u64(),
                        )
                    })
                })
                .collect()
        })
        .collect()
}

/// The `topology_scaling` experiment: GPUs × fabric shape × scheme, with
/// metadata bytes and their amplification over the fully-connected
/// reference of the same size and scheme.
#[must_use]
pub fn topology_scaling(mode: Mode) -> Vec<Table> {
    let mut table = Table::new(
        "Topology scaling: per-hop metadata amplification",
        &[
            "gpus",
            "topology",
            "scheme",
            "cycles",
            "total-bytes",
            "metadata-bytes",
            "metadata-amp",
        ],
    );
    let points = points();
    let results = sweep(&points, mode);
    let mut reference: &[SchemeTotals] = &[];
    for (&(gpus, kind), totals) in points.iter().zip(&results) {
        if kind == TopologyKind::FullyConnected {
            reference = totals;
        }
        for ((label, cycles, total, metadata), (_, _, _, ref_metadata)) in
            totals.iter().zip(reference)
        {
            let amp = if *ref_metadata > 0 {
                *metadata as f64 / *ref_metadata as f64
            } else {
                1.0
            };
            table.add_row(vec![
                gpus.to_string(),
                kind.to_string(),
                label.clone(),
                cycles.to_string(),
                total.to_string(),
                metadata.to_string(),
                ratio(amp),
            ]);
        }
    }
    vec![table]
}

/// The `ring8_smoke` experiment: a fast end-to-end scheme comparison on
/// an 8-GPU ring — the CI check that the routed-fabric path stays alive
/// (the fully-connected path is covered by the golden parity test).
#[must_use]
pub fn ring8_smoke(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_8gpu().with_topology(TopologyKind::Ring);
    let bench = Benchmark::MatrixTranspose;
    let cells: Vec<Cell> = std::iter::once(configs::unsecure(&base))
        .chain(SCHEMES.iter().map(|(_, scheme)| scheme(&base, 4)))
        .map(|cfg| Cell::new(cfg, bench, mode))
        .collect();
    let reports = common::run_many(&cells);
    let (baseline, runs) = reports.split_first().expect("the baseline cell is first");
    let mut table = Table::new(
        "8-GPU ring smoke: scheme comparison",
        &["scheme", "norm-time", "traffic-ratio", "metadata-bytes"],
    );
    for ((label, _), report) in SCHEMES.iter().zip(runs) {
        assert!(
            report.traffic.metadata().as_u64() > 0,
            "{label}: secure scheme produced no metadata on the ring"
        );
        table.add_row(vec![
            label.to_string(),
            ratio(report.normalized_time(baseline).unwrap_or(1.0)),
            ratio(report.traffic_ratio(baseline).unwrap_or(1.0)),
            report.traffic.metadata().to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    const FC: TopologyKind = TopologyKind::FullyConnected;
    const RING: TopologyKind = TopologyKind::Ring;
    const SWITCH: TopologyKind = TopologyKind::Switch { radix: 4 };

    /// Metadata bytes per scheme for one sweep point.
    fn metadata_of(totals: &[SchemeTotals], scheme: &str) -> u64 {
        totals
            .iter()
            .find(|(label, ..)| label == scheme)
            .unwrap_or_else(|| panic!("scheme {scheme} in sweep"))
            .3
    }

    #[test]
    fn routed_fabrics_amplify_private_metadata() {
        for gpus in [4, 8] {
            let points = [(gpus, FC), (gpus, RING), (gpus, SWITCH)];
            let totals = sweep(&points, Mode::Bench);
            for (&(_, kind), routed) in points.iter().zip(&totals).skip(1) {
                assert!(
                    metadata_of(routed, "private") > metadata_of(&totals[0], "private"),
                    "{gpus} GPUs / {kind}: routed Private metadata not above fully-connected"
                );
            }
        }
    }

    #[test]
    fn batching_narrows_the_amplification_gap() {
        // The absolute metadata cost a routed fabric adds on top of
        // fully-connected must shrink when batching collapses per-block
        // MACs and ACKs into per-batch ones.
        let points = [(8, FC), (8, RING), (8, SWITCH)];
        let totals = sweep(&points, Mode::Bench);
        let fc = &totals[0];
        for (&(_, kind), routed) in points.iter().zip(&totals).skip(1) {
            let private_gap = metadata_of(routed, "private") - metadata_of(fc, "private");
            let batching_gap = metadata_of(routed, "batching") - metadata_of(fc, "batching");
            assert!(
                batching_gap < private_gap,
                "{kind}: batching gap {batching_gap} not below private gap {private_gap}"
            );
        }
    }

    #[test]
    fn table_covers_the_full_sweep() {
        let (hits_before, misses_before) = common::cache_counters();
        let tables = topology_scaling(Mode::Bench);
        let (hits_after, misses_after) = common::cache_counters();
        // `run_many` counts each sweep cell once, as a hit or a miss;
        // tests share the process-wide counters, so others may add more.
        let cells = points().len() * SCHEMES.len() * benches(Mode::Bench).len();
        let counted = (hits_after - hits_before) + (misses_after - misses_before);
        assert!(
            counted >= cells as u64,
            "{counted} cells counted, sweep has {cells}"
        );
        assert_eq!(tables.len(), 1);
        // Paper scales: 3 GPU counts x 3 shapes x 3 schemes. Scale-out:
        // 3 GPU counts x 2 shapes x 3 schemes.
        assert_eq!(tables[0].len(), 27 + 18);
        let csv = tables[0].to_csv();
        assert!(csv.contains("ring"));
        assert!(csv.contains("switch-r4"));
        assert!(csv.contains("fully-connected"));
        // Every scale-out size reports a switch cell per scheme.
        for gpus in LARGE_GPU_COUNTS {
            for scheme in ["private", "dynamic", "batching"] {
                assert!(
                    csv.contains(&format!("{gpus},switch-r4,{scheme},")),
                    "missing {gpus}-GPU switch row for {scheme}"
                );
            }
        }
    }

    #[test]
    fn scale_out_requests_shrink_with_size() {
        assert_eq!(requests_for(16, Mode::Bench), Mode::Bench.requests());
        assert_eq!(requests_for(32, Mode::Full), 500);
        assert_eq!(requests_for(128, Mode::Full), 125);
        // The floor keeps tiny modes from starving the largest fabrics.
        assert!(requests_for(128, Mode::Bench) >= 8);
        // The scaled count is what the scale-out cells carry.
        for cell in point_cells((128, SWITCH), Mode::Full) {
            assert_eq!(cell.requests, 125);
        }
    }

    #[test]
    fn scale_out_switch_cell_amplifies_metadata() {
        // The 32-GPU switch cell must complete and show the same
        // routed-fabric amplification the paper scales show.
        let totals = sweep(&[(32, FC), (32, SWITCH)], Mode::Bench);
        let (fc, sw) = (&totals[0], &totals[1]);
        assert!(metadata_of(sw, "private") > metadata_of(fc, "private"));
        assert!(metadata_of(sw, "batching") > 0);
    }

    #[test]
    fn ring_smoke_runs_and_reports_all_schemes() {
        let (hits_before, misses_before) = common::cache_counters();
        let tables = ring8_smoke(Mode::Bench);
        let (hits_after, misses_after) = common::cache_counters();
        // Three scheme cells plus the unsecure baseline, each counted
        // once as a hit or a miss (other tests may add more).
        assert!((hits_after - hits_before) + (misses_after - misses_before) >= 4);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 3);
    }
}
