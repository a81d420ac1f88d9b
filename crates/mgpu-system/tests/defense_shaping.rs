//! Traffic-shape defense properties.
//!
//! The constant-rate defense's whole claim is *observational identity*:
//! with the envelope bounding the real control rate and the sampling
//! interval a whole multiple of the shaping period, a co-located
//! observer's per-port control-channel measurements (byte deltas and
//! arbitration-grant deltas at every boundary) must be identical
//! whichever protected scheme is running. The leakage experiment checks
//! this end to end through a classifier; this test checks the raw
//! sequences, per seed, across the scheme pairings the classifier is
//! asked to separate.

use mgpu_system::runner::configs;
use mgpu_system::Simulation;
use mgpu_types::{DefenseConfig, Duration, ObservabilityConfig, SystemConfig};
use mgpu_workloads::Benchmark;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Shaping period == sampling interval: every observation boundary lands
/// on a whole number of periods, the identity precondition.
const PERIOD: u64 = 40;

/// Generous envelope (mirrors the leakage experiment's choice): the
/// identity only holds while the true per-pair control rate stays under
/// the envelope on both arms — bytes and grants.
const ENVELOPE: (u32, u32) = (512, 32);

fn shaped_defense() -> DefenseConfig {
    DefenseConfig {
        shape_bytes: ENVELOPE.0,
        shape_grants: ENVELOPE.1,
        shape_period: Duration::cycles(PERIOD),
        ..DefenseConfig::constant_rate()
    }
}

fn scheme_config(base: &SystemConfig, scheme: u8) -> SystemConfig {
    match scheme {
        0 => configs::private(base, 4),
        1 => configs::dynamic(base, 4),
        _ => configs::batching(base, 4),
    }
}

/// Per-port control-channel observation sequence: at each sampling
/// boundary, the ctrl byte delta and cumulative grant count — exactly
/// what [`mgpu_system::PassiveObserver`] reads.
fn ctrl_observations(
    scheme: u8,
    seed: u64,
    per_gpu: usize,
) -> BTreeMap<String, Vec<(u64, u64, u64)>> {
    let mut base = SystemConfig::paper_4gpu();
    base.observability = ObservabilityConfig::enabled();
    base.security.dynamic.interval = Duration::cycles(PERIOD);
    let mut cfg = scheme_config(&base, scheme);
    cfg.security.defense = shaped_defense();
    let report = Simulation::new(cfg, Benchmark::MatrixTranspose, seed).run_for_requests(per_gpu);
    let timeline = report
        .timeline
        .expect("observability-enabled run attaches a timeline");
    let mut by_port: BTreeMap<String, Vec<(u64, u64, u64)>> = BTreeMap::new();
    for f in &timeline.fabric {
        if f.port.starts_with("gpu") {
            by_port.entry(f.port.clone()).or_default().push((
                f.cycle.as_u64(),
                f.ctrl_bytes_delta,
                f.ctrl_grants,
            ));
        }
    }
    by_port
}

proptest! {
    /// Constant-rate shaping on ⇒ per-port ctrl-VC observations are
    /// identical across Private/Dynamic/Batching for the same seed, over
    /// the window where both runs are still active. (Total run length
    /// itself is not hidden — padding stops when the simulation ends —
    /// so the comparison covers the shared prefix of boundaries.)
    #[test]
    fn constant_rate_equalizes_ctrl_observations(
        seed in 0u64..500,
        per_gpu in 30usize..60,
    ) {
        let runs: Vec<_> = (0u8..3).map(|s| ctrl_observations(s, seed, per_gpu)).collect();
        let reference = &runs[0];
        for (scheme, run) in runs.iter().enumerate().skip(1) {
            for (port, ref_seq) in reference {
                let seq = run
                    .get(port)
                    .unwrap_or_else(|| panic!("scheme {scheme} missing port {port}"));
                let shared = ref_seq.len().min(seq.len());
                prop_assert!(shared > 0, "no shared observation window on {port}");
                prop_assert!(
                    ref_seq[..shared] == seq[..shared],
                    "scheme {} diverges from scheme 0 on {} under shaping: \
                     {:?} vs {:?}",
                    scheme,
                    port,
                    &ref_seq[..shared],
                    &seq[..shared]
                );
            }
        }
    }
}

/// The setting the unbounded-shaping reproducers ran in: Private on the
/// paper's 4-GPU system with a 4-entry ACK table, shaping on.
fn envelope_cell(shape_bytes: u32, shape_period: u64) -> SystemConfig {
    let mut cfg = configs::private(&SystemConfig::paper_4gpu(), 4);
    cfg.security.ack_table_entries = 4;
    cfg.security.defense = DefenseConfig {
        shape_bytes,
        shape_period: Duration::cycles(shape_period),
        ..DefenseConfig::constant_rate()
    };
    cfg
}

/// An envelope the ctrl VC cannot sustain used to validate and then run
/// without bound: chaff outgrew simulated time and every request queued
/// behind it. It must now fail validation, as must an envelope one step
/// past the bound.
#[test]
fn unsustainable_shaping_envelopes_fail_validation() {
    // 20 000 B per 250 cy is 80 B/cy, above the 32 B/cy PCIe ctrl VCs.
    assert!(envelope_cell(20_000, 250).validate().is_err());
    assert!(envelope_cell(8_001, 250).validate().is_err());
}

/// An envelope exactly at the bound validates, and the run finishes
/// within a few times the unshaped run length (the reproducer ran for
/// millions of cycles).
#[test]
fn shaping_envelope_at_the_bound_finishes() {
    // Exactly the 32 B/cy PCIe ctrl bandwidth.
    let cfg = envelope_cell(8_000, 250);
    cfg.validate().expect("an envelope at the bound validates");
    let report = Simulation::new(cfg, Benchmark::Spmv, 1).run_for_requests(100);
    assert_eq!(report.requests, 4 * 100);
    assert!(
        report.total_cycles < Duration::cycles(100_000),
        "{} cycles",
        report.total_cycles
    );
}
