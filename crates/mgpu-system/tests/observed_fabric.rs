//! Observed fabric samples stay bit for bit: an observed run's timeline
//! reads each egress port's occupancy ledger (`queue_depth`) and
//! serializer backlog (`busy_horizon`) at every interval boundary, and
//! those reads must not move when the ledger's placement changes.
//!
//! Each cell hashes its fabric samples, in timeline order, with FNV-1a
//! over `(cycle, queue_depth, busy_horizon)`, and also pins the sample
//! count and the `queue_depth` sum and maximum. The constants were
//! captured on the tree where every fabric port still kept a ledger; if
//! this test fails, fix the code, do not re-capture them.

use mgpu_system::runner::configs;
use mgpu_system::Simulation;
use mgpu_types::{ObservabilityConfig, SystemConfig, TopologyKind};
use mgpu_workloads::Benchmark;

/// Fabric samples, `queue_depth` sum and maximum, and the digest.
type Pinned = (usize, u64, u64, u64);

fn fnv1a(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs `cfg` observed on MatrixTranspose, seed 42, and reads back its
/// fabric samples as [`Pinned`].
fn observed_fabric(mut cfg: SystemConfig, per_gpu: usize) -> Pinned {
    cfg.observability = ObservabilityConfig::enabled();
    let report = Simulation::new(cfg, Benchmark::MatrixTranspose, 42).run_for_requests(per_gpu);
    let fabric = report
        .timeline
        .expect("observed run attaches a timeline")
        .fabric;
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for s in &fabric {
        for v in [s.cycle.as_u64(), s.queue_depth, s.busy_horizon] {
            digest = fnv1a(digest, v);
        }
    }
    let depths = fabric.iter().map(|s| s.queue_depth);
    (
        fabric.len(),
        depths.clone().sum(),
        depths.max().unwrap_or(0),
        digest,
    )
}

#[test]
fn four_gpu_batching_cell_samples_stay_bit_for_bit() {
    let got = observed_fabric(configs::batching(&SystemConfig::paper_4gpu(), 4), 200);
    assert_eq!(
        got,
        (25, 107, 16, 0x33ba_73a0_597f_6d58),
        "(samples, depth sum, depth max, digest)"
    );
}

#[test]
fn switch_cell_samples_stay_bit_for_bit() {
    let base = SystemConfig::paper_8gpu().with_topology(TopologyKind::Switch { radix: 4 });
    let got = observed_fabric(configs::batching(&base, 4), 150);
    assert_eq!(
        got,
        (60, 429, 54, 0x8e59_3b5b_a162_c5a9),
        "(samples, depth sum, depth max, digest)"
    );
}
