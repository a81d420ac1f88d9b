//! Any configuration that passes `SystemConfig::validate` must run to
//! completion and keep the report's invariants.
//!
//! Each case draws a random system: 2–16 GPUs on every fabric shape,
//! every OTP scheme, batching and deadline close on or off, small ACK
//! tables, constant-rate shaping (with envelopes wide enough to cross
//! the validation bound), batch-close jitter, observability and the
//! wire adversary. Configs that fail validation are skipped; the rest
//! run 20–40 requests per GPU and must finish within a wall-clock budget
//! and a generous simulated-cycle ceiling. An observed run also samples
//! its fabric, so the sampler's occupancy reads (which need a ledger on
//! every egress port) meet every validated fabric shape. A shaping envelope its ctrl VC
//! cannot carry breaks both: its chaff backlog outgrows simulated time.
//! In the debug profile every run also checks at drain that each ACK
//! window is whole again and no block is left parked.

use mgpu_sim::link::TrafficClass;
use mgpu_sim::RoutingTable;
use mgpu_system::{RunReport, Simulation};
use mgpu_types::{
    AdversaryConfig, Direction, Duration, NodeId, ObservabilityConfig, OtpSchemeKind, PairId,
    SystemConfig, TopologyKind,
};
use mgpu_workloads::Benchmark;
use proptest::prelude::*;

/// Reads successive random draws as bounded choices.
struct Draws<'a>(std::slice::Iter<'a, u32>);

impl Draws<'_> {
    /// A value in `0..n`.
    fn below(&mut self, n: u32) -> u32 {
        self.0.next().expect("enough draws") % n
    }

    fn flip(&mut self) -> bool {
        self.below(2) == 1
    }
}

/// Random draws each case consumes.
const DRAWS: usize = 21;

/// Wall-clock budget for one run. Valid draws finish in well under a
/// second even in the test profile.
const RUN_BUDGET: std::time::Duration = std::time::Duration::from_secs(60);

/// Runs `sim` on its own thread; `None` if it panics or outlives
/// [`RUN_BUDGET`]. A run that times out keeps its thread until the test
/// process exits.
fn run_bounded(sim: Simulation, per_gpu: usize) -> Option<RunReport> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(sim.run_for_requests(per_gpu));
    });
    rx.recv_timeout(RUN_BUDGET).ok()
}

fn draw_config(d: &mut Draws) -> SystemConfig {
    let mut cfg = SystemConfig::paper_4gpu();
    cfg.gpu_count = 2 + d.below(15) as u16;
    cfg.topology = match d.below(3) {
        0 => TopologyKind::FullyConnected,
        1 => TopologyKind::Ring,
        _ => TopologyKind::Switch {
            radix: 2 + d.below(7) as u16,
        },
    };
    let sec = &mut cfg.security;
    sec.scheme = [
        OtpSchemeKind::Unsecure,
        OtpSchemeKind::Private,
        OtpSchemeKind::Shared,
        OtpSchemeKind::Cached,
        OtpSchemeKind::Dynamic,
    ][d.below(5) as usize];
    sec.batching.enabled = d.flip();
    sec.batching.deadline_close = d.flip();
    sec.ack_table_entries = 1 + d.below(4);
    let defense = &mut sec.defense;
    defense.constant_rate = d.flip();
    // Log-spread envelope sizes, so both sides of the ctrl VC
    // bandwidth bound come up.
    let magnitude = 1 + d.below(15);
    defense.shape_bytes = 1 + d.below(1 << magnitude);
    defense.shape_grants = 1 + d.below(defense.shape_bytes.min(64));
    defense.shape_period = Duration::cycles(u64::from(20 + d.below(481)));
    defense.close_jitter = d.flip();
    defense.jitter_bound = Duration::cycles(u64::from(1 + d.below(128)));
    if d.flip() {
        cfg.observability = ObservabilityConfig::enabled();
    }
    if d.flip() {
        cfg.adversary = AdversaryConfig::active(1 + d.below(100));
    }
    cfg
}

/// Hops on the longest route of `cfg`'s fabric.
fn longest_route(cfg: &SystemConfig) -> u64 {
    let routes = RoutingTable::new(cfg.topology, cfg.gpu_count);
    NodeId::all(cfg.gpu_count)
        .flat_map(|src| {
            src.peers(cfg.gpu_count)
                .map(move |dst| PairId::new(src, dst))
        })
        .map(|pair| routes.hops(pair) as u64)
        .max()
        .expect("at least two nodes")
}

proptest! {
    #[test]
    fn validated_configs_run_and_keep_invariants(
        draws in proptest::collection::vec(any::<u32>(), DRAWS),
    ) {
        let mut d = Draws(draws.iter());
        let cfg = draw_config(&mut d);
        prop_assume!(cfg.validate().is_ok());
        let benchmark = Benchmark::ALL[d.below(Benchmark::ALL.len() as u32) as usize];
        let per_gpu = 20 + d.below(21) as usize;
        let seed = u64::from(d.below(u32::MAX));
        let secure = cfg.security.scheme != OtpSchemeKind::Unsecure;
        let adversary = cfg.adversary.enabled;
        let observed = cfg.observability.enabled;
        let interval = cfg.security.dynamic.interval.as_u64();
        let gpus = u64::from(cfg.gpu_count);
        // As if every request ran alone, one after another, each taking
        // 16 one-way trips along the longest route. Valid draws peak
        // near half of it.
        let trip = cfg.link_latency.as_u64() * longest_route(&cfg);
        let ceiling = 16 * gpus * per_gpu as u64 * trip;
        let label = format!("{cfg:?} {benchmark:?} seed {seed} x{per_gpu}");

        let report = run_bounded(Simulation::new(cfg, benchmark, seed), per_gpu);
        prop_assert!(report.is_some(), "run panicked or outlived {RUN_BUDGET:?}: {label}");
        let report = report.expect("checked above");

        prop_assert!(report.requests == gpus * per_gpu as u64, "requests: {label}");
        prop_assert!(
            report.total_cycles.as_u64() <= ceiling,
            "{} cycles above the {ceiling}-cycle ceiling: {label}",
            report.total_cycles.as_u64()
        );
        if secure {
            prop_assert!(
                report.otp.total(Direction::Send) == report.blocks
                    && report.otp.total(Direction::Recv) == report.blocks,
                "one send and one receive pad per block: {label}"
            );
        }
        let by_class: u64 = TrafficClass::ALL
            .iter()
            .map(|&c| report.traffic.get(c).as_u64())
            .sum();
        prop_assert!(by_class == report.traffic.total().as_u64(), "traffic classes: {label}");
        // An observed run that outlives one interval samples every
        // egress port's occupancy ledger at least once.
        if secure && observed && report.total_cycles.as_u64() > interval {
            let timeline = report.timeline.as_ref();
            prop_assert!(
                timeline.is_some_and(|t| !t.fabric.is_empty()),
                "observed run sampled no fabric port: {label}"
            );
        }
        if !adversary {
            prop_assert!(report.security.is_clean(), "security events without an adversary: {label}");
        }
    }
}
