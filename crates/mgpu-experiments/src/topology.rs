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

use crate::common::{self, Mode};
use crate::report::{ratio, Table};
use mgpu_system::runner::{compare_schemes, configs, SchemeResult};
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

/// The schemes compared: the Private baseline, Dynamic, and the full
/// Dynamic + Batching proposal.
fn scheme_set(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    vec![
        ("private".into(), configs::private(base, 4)),
        ("dynamic".into(), configs::dynamic(base, 4)),
        ("batching".into(), configs::batching(base, 4)),
    ]
}

/// Benchmarks swept: one transpose-heavy and one sparse pattern (reduced
/// under `Bench`).
fn benches(mode: Mode) -> &'static [Benchmark] {
    match mode {
        Mode::Full | Mode::Quick => &[Benchmark::MatrixTranspose, Benchmark::Spmv],
        Mode::Bench => &[Benchmark::MatrixTranspose],
    }
}

/// One sweep cell: scheme results for `gpus` GPUs on `kind`, summed over
/// the mode's benchmarks.
fn sweep_cell(gpus: u16, kind: TopologyKind, mode: Mode) -> Vec<(String, u64, u64, u64)> {
    let base = base_for(gpus).with_topology(kind);
    let schemes = scheme_set(&base);
    let mut out: Vec<(String, u64, u64, u64)> = schemes
        .iter()
        .map(|(label, _)| (label.clone(), 0, 0, 0))
        .collect();
    for &bench in benches(mode) {
        let results = compare_schemes(bench, &schemes, requests_for(gpus, mode), common::SEED);
        for (slot, r) in out.iter_mut().zip(&results) {
            slot.1 += r.report.total_cycles.as_u64();
            slot.2 += r.report.traffic.total().as_u64();
            slot.3 += r.report.traffic.metadata().as_u64();
        }
    }
    out
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
    for &gpus in &GPU_COUNTS {
        push_scale(&mut table, gpus, &SHAPES, mode);
    }
    for &gpus in &LARGE_GPU_COUNTS {
        push_scale(&mut table, gpus, &LARGE_SHAPES, mode);
    }
    vec![table]
}

/// Appends one system size's rows to the sweep table: every shape in
/// `shapes`, with metadata amplification computed against the
/// fully-connected reference of the same size and scheme.
fn push_scale(table: &mut Table, gpus: u16, shapes: &[TopologyKind], mode: Mode) {
    // Fully-connected first: the amplification reference.
    let reference = sweep_cell(gpus, TopologyKind::FullyConnected, mode);
    for &kind in shapes {
        let cells = if kind == TopologyKind::FullyConnected {
            reference.clone()
        } else {
            sweep_cell(gpus, kind, mode)
        };
        for ((label, cycles, total, metadata), (_, _, _, ref_metadata)) in
            cells.iter().zip(&reference)
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
}

/// The `ring8_smoke` experiment: a fast end-to-end `compare_schemes` run
/// on an 8-GPU ring — the CI check that the routed-fabric path stays
/// alive (the fully-connected path is covered by the golden parity
/// test).
#[must_use]
pub fn ring8_smoke(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_8gpu().with_topology(TopologyKind::Ring);
    let schemes = scheme_set(&base);
    let results = compare_schemes(
        Benchmark::MatrixTranspose,
        &schemes,
        mode.requests(),
        common::SEED,
    );
    let mut table = Table::new(
        "8-GPU ring smoke: compare_schemes",
        &["scheme", "norm-time", "traffic-ratio", "metadata-bytes"],
    );
    for SchemeResult {
        label,
        normalized_time,
        traffic_ratio,
        report,
        ..
    } in &results
    {
        assert!(
            report.traffic.metadata().as_u64() > 0,
            "{label}: secure scheme produced no metadata on the ring"
        );
        table.add_row(vec![
            label.clone(),
            ratio(*normalized_time),
            ratio(*traffic_ratio),
            report.traffic.metadata().to_string(),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metadata bytes per scheme for one (gpus, kind) point.
    fn metadata_of(cells: &[(String, u64, u64, u64)], scheme: &str) -> u64 {
        cells
            .iter()
            .find(|(label, ..)| label == scheme)
            .unwrap_or_else(|| panic!("scheme {scheme} in sweep"))
            .3
    }

    #[test]
    fn routed_fabrics_amplify_private_metadata() {
        for gpus in [4, 8] {
            let fc = sweep_cell(gpus, TopologyKind::FullyConnected, Mode::Bench);
            for kind in [TopologyKind::Ring, TopologyKind::Switch { radix: 4 }] {
                let routed = sweep_cell(gpus, kind, Mode::Bench);
                assert!(
                    metadata_of(&routed, "private") > metadata_of(&fc, "private"),
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
        for kind in [TopologyKind::Ring, TopologyKind::Switch { radix: 4 }] {
            let fc = sweep_cell(8, TopologyKind::FullyConnected, Mode::Bench);
            let routed = sweep_cell(8, kind, Mode::Bench);
            let private_gap = metadata_of(&routed, "private") - metadata_of(&fc, "private");
            let batching_gap = metadata_of(&routed, "batching") - metadata_of(&fc, "batching");
            assert!(
                batching_gap < private_gap,
                "{kind}: batching gap {batching_gap} not below private gap {private_gap}"
            );
        }
    }

    #[test]
    fn table_covers_the_full_sweep() {
        let tables = topology_scaling(Mode::Bench);
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
    }

    #[test]
    fn scale_out_switch_cell_amplifies_metadata() {
        // The 32-GPU switch cell must complete and show the same
        // routed-fabric amplification the paper scales show.
        let fc = sweep_cell(32, TopologyKind::FullyConnected, Mode::Bench);
        let sw = sweep_cell(32, TopologyKind::Switch { radix: 4 }, Mode::Bench);
        assert!(metadata_of(&sw, "private") > metadata_of(&fc, "private"));
        assert!(metadata_of(&sw, "batching") > 0);
    }

    #[test]
    fn ring_smoke_runs_and_reports_all_schemes() {
        let tables = ring8_smoke(Mode::Bench);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 3);
    }
}
