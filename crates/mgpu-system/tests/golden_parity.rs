//! Golden parity: the routed-fabric refactor must reproduce the
//! pre-refactor timings bit for bit under `TopologyKind::FullyConnected`.
//!
//! The constants below were captured from the monolithic (pre-fabric)
//! timing loop: the seeded scheme matrix over the paper's 4-GPU system,
//! 200 requests per GPU, seed 42. The event queue breaks
//! time ties by insertion order, so any change to the call sequence of
//! the fully-connected hot path shows up here as a cycle or byte drift.
//! If this test fails, the refactor changed simulated behaviour — fix
//! the code, do not re-capture the constants.

use mgpu_system::runner::configs;
use mgpu_system::{RunReport, Simulation};
use mgpu_types::{AdversaryConfig, Duration, ObservabilityConfig, SystemConfig, TopologyKind};
use mgpu_workloads::{ArrivalProcess, Benchmark, ServingModel};

/// (scheme label, benchmark, total cycles, total wire bytes).
const GOLDEN: &[(&str, Benchmark, u64, u64)] = &[
    ("private-4x", Benchmark::MatrixTranspose, 5704, 110_030),
    ("private-16x", Benchmark::MatrixTranspose, 3412, 110_030),
    ("shared-4x", Benchmark::MatrixTranspose, 14_504, 110_030),
    ("cached-4x", Benchmark::MatrixTranspose, 5145, 110_030),
    ("dynamic-4x", Benchmark::MatrixTranspose, 5210, 110_030),
    ("batching-4x", Benchmark::MatrixTranspose, 4265, 89_531),
    ("private-4x", Benchmark::Spmv, 3844, 96_800),
    ("private-16x", Benchmark::Spmv, 2440, 96_800),
    ("shared-4x", Benchmark::Spmv, 10_299, 96_800),
    ("cached-4x", Benchmark::Spmv, 3456, 96_800),
    ("dynamic-4x", Benchmark::Spmv, 3582, 96_800),
    ("batching-4x", Benchmark::Spmv, 3676, 79_275),
];

fn scheme_matrix(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    vec![
        ("private-4x".to_string(), configs::private(base, 4)),
        ("private-16x".to_string(), configs::private(base, 16)),
        ("shared-4x".to_string(), configs::shared(base, 4)),
        ("cached-4x".to_string(), configs::cached(base, 4)),
        ("dynamic-4x".to_string(), configs::dynamic(base, 4)),
        ("batching-4x".to_string(), configs::batching(base, 4)),
    ]
}

/// One golden-matrix cell: 200 requests per GPU, seed 42.
fn run_cell(cfg: &SystemConfig, bench: Benchmark) -> RunReport {
    Simulation::new(cfg.clone(), bench, 42).run_for_requests(200)
}

fn assert_matches_golden(base: &SystemConfig, context: &str) {
    let cfgs = scheme_matrix(base);
    for bench in [Benchmark::MatrixTranspose, Benchmark::Spmv] {
        for (label, cfg) in &cfgs {
            let report = run_cell(cfg, bench);
            let (_, _, cycles, bytes) = *GOLDEN
                .iter()
                .find(|(l, b, _, _)| l == label && *b == bench)
                .unwrap_or_else(|| panic!("no golden entry for {label} / {bench:?}"));
            assert_eq!(
                report.total_cycles.as_u64(),
                cycles,
                "{context}: {label} / {bench:?}: cycle drift"
            );
            assert_eq!(
                report.traffic.total().as_u64(),
                bytes,
                "{context}: {label} / {bench:?}: wire-byte drift"
            );
        }
    }
}

#[test]
fn fully_connected_reproduces_pre_fabric_timings_bit_for_bit() {
    let base = SystemConfig::paper_4gpu();
    assert_eq!(base.topology, TopologyKind::FullyConnected);
    assert!(!base.observability.enabled, "golden matrix runs unobserved");
    assert_matches_golden(&base, "observability off");
}

/// Observability must be a pure observer: enabling it replays the exact
/// golden matrix — same cycles, same wire bytes — while actually
/// producing timelines. (`pads_issued` is intentionally excluded: eager
/// boundary sampling may issue pads for trailing boundaries an idle
/// node's lazy path never reaches; see `mgpu_system::timeseries`.)
#[test]
fn observability_enabled_changes_no_timing() {
    let mut base = SystemConfig::paper_4gpu();
    base.observability = ObservabilityConfig::enabled();
    assert_matches_golden(&base, "observability on");

    // And the observed runs really did collect interval series.
    let dynamic = run_cell(&configs::dynamic(&base, 4), Benchmark::MatrixTranspose);
    let timeline = dynamic
        .timeline
        .as_ref()
        .expect("observed run attaches a timeline");
    assert!(
        !timeline.samples.is_empty(),
        "dynamic run spans interval boundaries"
    );
    assert!(
        timeline.samples.iter().any(|s| s.rebalances > 0),
        "dynamic scheme repartitioned during the run"
    );
    assert!(!timeline.fabric.is_empty());
    assert!(timeline.scope_counts.contains_key("BlockDone"));

    // The port and ACK-window counters ride along in the same samples:
    // every port that moved bytes accumulated grants, and the ACK
    // gates handed out credits. Occupancy is a boundary snapshot, so it
    // may legitimately be zero when a boundary lands in an idle gap, and
    // its value is not asserted.
    assert!(
        timeline
            .fabric
            .iter()
            .all(|f| f.bytes_delta == 0 || f.grants > 0),
        "ports that carried bytes must have recorded grants"
    );
    assert!(
        timeline.fabric.iter().any(|f| f.grants > 0),
        "at least one port arbitrated traffic"
    );
    assert!(
        timeline.samples.iter().any(|s| s.ack_window_grants > 0),
        "ACK gates issued credits during the run"
    );
}

/// The PR 7 serving path runs open-loop (absolute arrival times) with
/// per-request deadlines — a different issue cadence from the closed-loop
/// golden matrix, so it gets its own pinned cell: a seeded Poisson
/// serving trace under dynamic+batching with observability on. The
/// constants were captured the same way as the closed-loop matrix; if
/// this test fails, fix the code, do not re-capture them.
#[test]
fn open_loop_serving_cell_stays_bit_for_bit() {
    const SERVING_CYCLES: u64 = 3_087;
    const SERVING_BYTES: u64 = 82_225;

    let mut base = SystemConfig::paper_4gpu();
    base.observability = ObservabilityConfig::enabled();
    let cfg = configs::batching(&base, 4);
    let trace = ServingModel::new(4, 42, ArrivalProcess::poisson(12.0))
        .with_zipf(0.9)
        .with_deadline(Duration::cycles(1_200))
        .generate_all(200);

    let reference = Simulation::new(cfg, Benchmark::MatrixTranspose, 42)
        .with_open_loop()
        .run_trace(trace);
    assert_eq!(
        reference.total_cycles.as_u64(),
        SERVING_CYCLES,
        "open-loop serving cell: cycle drift"
    );
    assert_eq!(
        reference.traffic.total().as_u64(),
        SERVING_BYTES,
        "open-loop serving cell: wire-byte drift"
    );
    assert!(
        reference.latency.with_deadline > 0,
        "serving cell records SLO outcomes"
    );
    assert!(
        reference
            .timeline
            .as_ref()
            .is_some_and(|t| !t.samples.is_empty()),
        "observed serving run attaches interval samples"
    );
}

/// The fully-connected matrix never defers a block at the ACK window, so
/// this cell pins the path that routes a parked block back through the
/// engine: a one-entry replay table with batching off parks nearly every
/// MAC-carrying block until the previous ACK returns (the same cell with
/// a four-entry table finishes in 30,147 cycles). The constants were
/// captured from the engine before fabric ports lost their VC credits;
/// if this test fails, fix the code, do not re-capture them. `EVENTS`
/// is the one count meant to move: it fell from 19,494 when completion
/// polls that cannot issue stopped being scheduled.
#[test]
fn ack_deferral_cell_stays_bit_for_bit() {
    const CYCLES: u64 = 118_919;
    const BYTES: u64 = 422_895;
    const ACKS: u64 = 1_600;
    const EVENTS: u64 = 18_462;

    let mut cfg = configs::private(&SystemConfig::paper_4gpu(), 4);
    cfg.gpu_count = 8;
    cfg.topology = TopologyKind::Ring;
    cfg.security.ack_table_entries = 1;
    assert!(!cfg.security.batching.enabled);
    let r = Simulation::new(cfg, Benchmark::Spmv, 42).run_for_requests(200);
    assert_eq!(r.requests, 8 * 200);
    assert_eq!(r.total_cycles.as_u64(), CYCLES, "cycle drift");
    assert_eq!(r.traffic.total().as_u64(), BYTES, "wire-byte drift");
    assert_eq!(r.acks_sent, ACKS, "ACK count drift");
    assert_eq!(r.events_processed, EVENTS, "event count drift");
}

/// The paper-parameter 8-GPU system on a radix-4 switch fabric under the
/// batching scheme: switch egress contention plus ACK-window deferral.
/// The constants were captured from the tree before ACK-window
/// arbitration became configurable; if this test fails, fix the code,
/// do not re-capture them.
#[test]
fn switch_cell_reproduces_golden_digest() {
    let base = SystemConfig::paper_8gpu().with_topology(TopologyKind::Switch { radix: 4 });
    let report = Simulation::new(configs::batching(&base, 4), Benchmark::MatrixTranspose, 42)
        .run_for_requests(150);
    assert_eq!(report.total_cycles.as_u64(), 4260, "cycle drift");
    assert_eq!(report.traffic.total().as_u64(), 378_029, "wire-byte drift");
    assert_eq!(report.blocks, 1326, "block-count drift");
    assert_eq!(report.acks_sent, 103, "ACK-count drift");
}

/// Suite-wide parity digest, one entry per (system, config): an FNV-1a
/// hash of `(total cycles, wire bytes, ACKs sent)` over all 17
/// benchmarks in `Benchmark::ALL` order, 200 requests per GPU, seed 42,
/// on the paper's 4- and 16-GPU systems: 204 cells. The 12-cell matrix
/// above covers two benchmarks at 4 GPUs; a same-cycle reorder of the
/// event stream can leave those untouched and still move other cells.
/// The digests were captured before the engine stopped scheduling
/// duplicate flush checks and completion polls that cannot issue; if
/// this test fails, fix the code, do not re-capture them.
const SUITE_DIGESTS: &[(u16, &str, u64)] = &[
    (4, "unsecure", 0x4c85_5cfe_0605_2020),
    (4, "private-4x", 0xfa53_7bc7_60ac_7bd2),
    (4, "shared-4x", 0xfccb_ee59_f934_240b),
    (4, "cached-4x", 0x0328_0ecf_a782_f76d),
    (4, "dynamic-4x", 0xd209_2564_ca55_fb5f),
    (4, "batching-4x", 0xedf6_bc2c_b7c4_2cab),
    (16, "unsecure", 0x6d69_ef5b_5be5_aed5),
    (16, "private-4x", 0x4d76_601b_9856_f9b0),
    (16, "shared-4x", 0x5cf7_c6a0_d181_2982),
    (16, "cached-4x", 0xdde3_dc7c_2941_a99e),
    (16, "dynamic-4x", 0x588c_82e9_b05b_ad48),
    (16, "batching-4x", 0xe0b7_5394_3ff5_6c6b),
];

fn fnv1a(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn suite_digest_pins_204_cells_bit_for_bit() {
    let mut drift = Vec::new();
    for base in [SystemConfig::paper_4gpu(), SystemConfig::paper_16gpu()] {
        let cfgs = [
            ("unsecure", configs::unsecure(&base)),
            ("private-4x", configs::private(&base, 4)),
            ("shared-4x", configs::shared(&base, 4)),
            ("cached-4x", configs::cached(&base, 4)),
            ("dynamic-4x", configs::dynamic(&base, 4)),
            ("batching-4x", configs::batching(&base, 4)),
        ];
        for (label, cfg) in &cfgs {
            let mut digest = 0xcbf2_9ce4_8422_2325;
            for bench in Benchmark::ALL {
                let r = run_cell(cfg, bench);
                for v in [
                    r.total_cycles.as_u64(),
                    r.traffic.total().as_u64(),
                    r.acks_sent,
                ] {
                    digest = fnv1a(digest, v);
                }
            }
            let (_, _, expected) = *SUITE_DIGESTS
                .iter()
                .find(|(g, l, _)| *g == base.gpu_count && l == label)
                .unwrap_or_else(|| panic!("no digest for {} GPUs / {label}", base.gpu_count));
            if digest != expected {
                drift.push(format!(
                    "({}, \"{label}\", {digest:#018x}) expected {expected:#018x}",
                    base.gpu_count
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "suite digest drift:\n{}",
        drift.join("\n")
    );
}

/// Crypto-backend parity: the entire 12-cell golden matrix, run under an
/// active adversary so every block also crosses the functional AES-GCM
/// channel, must produce bit-for-bit identical reports (security log
/// included) whether the functional crypto runs on the software
/// T-table/Shoup paths or the hardware AES-NI/PCLMULQDQ paths. The
/// backends are property-tested equal primitive-by-primitive in
/// `mgpu-crypto`; this asserts the end-to-end claim at the system level —
/// every GCM seal, lazy decryption and batch-trailer MAC included. On
/// hosts without the hardware features both halves run soft.
#[test]
fn crypto_backends_reproduce_identical_golden_matrix() {
    use mgpu_crypto::backend::{set_default_backend, Backend};

    let mut base = SystemConfig::paper_4gpu();
    base.adversary = AdversaryConfig::active(100);
    let cfgs = scheme_matrix(&base);
    let auto = if Backend::HwAesClmul.is_available() {
        Backend::HwAesClmul
    } else {
        Backend::Soft
    };
    for bench in [Benchmark::MatrixTranspose, Benchmark::Spmv] {
        for (label, cfg) in &cfgs {
            set_default_backend(Backend::Soft);
            let soft = run_cell(cfg, bench);
            set_default_backend(auto);
            let hw = run_cell(cfg, bench);
            assert!(
                soft.security.total_injected() > 0,
                "{label} / {bench:?}: the adversary never struck"
            );
            assert_eq!(
                format!("{soft:?}"),
                format!("{hw:?}"),
                "{label} / {bench:?}: soft vs {} backend digest drift",
                auto.name(),
            );
        }
    }
    // Leave the process default as detection would have chosen it.
    set_default_backend(auto);
}

/// The traffic-shape defenses ship default-off, and off must mean *off*:
/// a config that spells out the default `DefenseConfig` (rather than
/// omitting it) replays the golden 12-cell matrix bit for bit. Guards
/// against the chaff scheduling or the jittered deadline path leaking
/// into undefended runs.
#[test]
fn defenses_off_reproduce_golden_matrix() {
    use mgpu_types::DefenseConfig;

    let mut base = SystemConfig::paper_4gpu();
    base.security.defense = DefenseConfig::default();
    assert!(!base.security.defense.constant_rate && !base.security.defense.close_jitter);
    assert_matches_golden(&base, "defenses off");
}
