//! Engine-throughput benchmarks: the discrete-event core in isolation and
//! full simulation cells.
//!
//! Two layers:
//!
//! * `engine-queue` — the calendar [`EventQueue`] against the
//!   [`HeapEventQueue`] oracle under the simulator's characteristic
//!   event-gap distribution (same-cycle reissues, link latencies, DRAM
//!   access, flush timeouts) at a sustained backlog, isolating the
//!   scheduler from the rest of the engine. A timed pre-run prints the
//!   calendar's pop+schedule pairs per second as the
//!   `engine-queue-churn` line.
//! * `engine` — representative simulation cells (a 4-GPU
//!   Dynamic+Batching run, the configuration of fig21's headline scheme,
//!   a topology-scaling-style 8-GPU ring run, and the 64-GPU switch cell
//!   of the scale-out sweep). Each cell
//!   reports wall-clock per run through criterion and prints an
//!   `engine-blocks-per-sec` line (blocks simulated per host second)
//!   and an `engine-events-per-sec` line derived from the run's
//!   `events_processed` count. CI's bench-smoke gate compares the
//!   blocks line against the checked-in floor in
//!   `crates/bench/engine-floor.txt`: a run that does the same work in
//!   fewer events is faster, not slower, so the gate counts work done.
//! * `otp-layer` — the NIC/OTP-scheme layer alone: one 16-GPU node's
//!   [`SecureNic`] under Private, Cached and Dynamic + Batching, fed a
//!   sparse send/receive pattern that crosses many repartition-interval
//!   boundaries. Each scheme prints an `otp-uses-per-sec` line (pad uses
//!   per host second, best of 5), gated against the same floor file.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_sim::events::{EventQueue, HeapEventQueue};
use mgpu_system::node::SecureNic;
use mgpu_system::runner::configs;
use mgpu_system::Simulation;
use mgpu_types::{Cycle, Duration, NodeId, SystemConfig, TopologyKind};
use mgpu_workloads::Benchmark;
use std::time::Instant;

/// Event gaps matching the simulator's real horizons: same-cycle
/// reissues, NIC/link service, DRAM access, flush timeouts, and the
/// occasional long repartition-interval hop.
const GAPS: [u64; 8] = [0, 2, 7, 40, 100, 161, 200, 1000];

/// Pending events held in flight during the queue churn benchmarks,
/// matching the order of magnitude a busy 8-GPU cell sustains.
const BACKLOG: usize = 512;

/// Pop+schedule pairs per timed pre-run sample of the queue churn.
const CHURN_OPS: u64 = 1_000_000;

/// One timed churn run: [`CHURN_OPS`] pop+schedule pairs on a calendar
/// queue holding [`BACKLOG`] events; returns pairs per second. Kept out
/// of line so the measured loop's code placement does not depend on
/// the bench body around it (inlined there, one binary's readings were
/// bimodal from run to run).
#[inline(never)]
fn queue_churn_rate() -> f64 {
    let mut q = EventQueue::new();
    for i in 0..BACKLOG {
        q.schedule(Cycle::new(GAPS[i % GAPS.len()]), i as u64);
    }
    let started = Instant::now();
    for i in 0..CHURN_OPS as usize {
        let (now, payload) = q.pop().expect("backlog never drains");
        let gap = GAPS[i % GAPS.len()];
        q.schedule(Cycle::new(now.as_u64() + gap), black_box(payload));
    }
    let seconds = started.elapsed().as_secs_f64();
    black_box(q.len());
    CHURN_OPS as f64 / seconds.max(f64::EPSILON)
}

fn bench_event_queue(c: &mut Criterion) {
    // Timed pre-run for the CI floor gate: calendar pop+schedule pairs
    // per second at the sustained backlog, best of five, as for the
    // engine cells below.
    let best = (0..5).map(|_| queue_churn_rate()).fold(0.0f64, f64::max);
    println!(
        "engine-events-per-sec engine-queue-churn {best:.0} ({CHURN_OPS} pop+schedule pairs per run, best of 5)"
    );

    let mut group = c.benchmark_group("engine-queue");
    group.bench_function("calendar-pop-schedule", |b| {
        let mut q = EventQueue::new();
        for i in 0..BACKLOG {
            q.schedule(Cycle::new(GAPS[i % GAPS.len()]), i as u64);
        }
        let mut i = 0usize;
        b.iter(|| {
            let (now, payload) = q.pop().expect("backlog never drains");
            let gap = GAPS[i % GAPS.len()];
            i += 1;
            q.schedule(Cycle::new(now.as_u64() + gap), black_box(payload));
            payload
        });
    });
    group.bench_function("heap-pop-schedule", |b| {
        let mut q = HeapEventQueue::new();
        for i in 0..BACKLOG {
            q.schedule(Cycle::new(GAPS[i % GAPS.len()]), i as u64);
        }
        let mut i = 0usize;
        b.iter(|| {
            let (now, payload) = q.pop().expect("backlog never drains");
            let gap = GAPS[i % GAPS.len()];
            i += 1;
            q.schedule(Cycle::new(now.as_u64() + gap), black_box(payload));
            payload
        });
    });
    group.finish();
}

/// The cells the throughput gate tracks: the paper's 4-GPU system under
/// its headline scheme, and the ring and switch shapes the
/// topology-scaling sweep leans on hardest.
fn cells() -> Vec<(&'static str, SystemConfig)> {
    let base4 = SystemConfig::paper_4gpu();
    let base8 = SystemConfig::paper_8gpu().with_topology(TopologyKind::Ring);
    let mut base64 = SystemConfig::paper_4gpu();
    base64.gpu_count = 64;
    let base64 = base64.with_topology(TopologyKind::Switch { radix: 4 });
    vec![
        ("4gpu-batching", configs::batching(&base4, 4)),
        ("8gpu-ring-batching", configs::batching(&base8, 4)),
        ("64gpu-switch-batching", configs::batching(&base64, 4)),
    ]
}

fn bench_engine_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    for (label, cfg) in cells() {
        // Timed pre-runs derive blocks/sec for the CI floor gate. Best of
        // five: the floor compares against peak engine throughput, which
        // is far more stable than any single ~millisecond sample on a
        // noisy runner. The criterion loop below then tracks wall-clock.
        let (mut best_blocks, mut best_events) = (0.0f64, 0.0f64);
        let (mut blocks, mut events) = (0u64, 0u64);
        for _ in 0..5 {
            let sim = Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, 42);
            let started = Instant::now();
            let report = sim.run_for_requests(200);
            let seconds = started.elapsed().as_secs_f64().max(f64::EPSILON);
            (blocks, events) = (report.blocks, report.events_processed);
            best_blocks = best_blocks.max(blocks as f64 / seconds);
            best_events = best_events.max(events as f64 / seconds);
        }
        println!(
            "engine-blocks-per-sec {label} {best_blocks:.0} ({blocks} blocks per run, best of 5)"
        );
        println!(
            "engine-events-per-sec {label} {best_events:.0} ({events} events per run, best of 5)"
        );
        group.bench_function(format!("cell-mt-200req-{label}"), |b| {
            b.iter(|| {
                Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, 42).run_for_requests(200)
            });
        });
    }
    group.finish();
}

/// Send/receive steps per timed OTP-layer run (two pad uses each).
const OTP_STEPS: u64 = 100_000;

/// Gaps between OTP-layer steps, in cycles: back-to-back bursts, link
/// and DRAM horizons, and idle stretches longer than the 1,000-cycle
/// repartition interval. The mean gap (about 490 cycles) puts an
/// interval boundary every two steps, and some boundaries see no use.
const OTP_GAPS: [u64; 8] = [0, 3, 40, 161, 7, 1200, 2, 2500];

/// The OTP-layer cells: the three schemes fig25 compares at 16 GPUs.
fn otp_cells() -> [(&'static str, SystemConfig); 3] {
    let base = SystemConfig::paper_16gpu();
    [
        ("16gpu-private", configs::private(&base, 4)),
        ("16gpu-cached", configs::cached(&base, 4)),
        ("16gpu-ours", configs::batching(&base, 4)),
    ]
}

/// One timed OTP-layer run on GPU1's NIC under `cfg`: each step sends a
/// block to one peer and receives the next in-order block from another,
/// with peers drawn from a skewed xorshift sequence (half the steps go to
/// two hot peers). Returns pad uses per second.
#[inline(never)]
fn otp_use_rate(cfg: &SystemConfig) -> f64 {
    let me = NodeId::gpu(1);
    let peers: Vec<NodeId> = me.peers(cfg.gpu_count).collect();
    let mut nic = SecureNic::new(me, cfg);
    let mut next_ctr = vec![0u64; peers.len()];
    let mut now = Cycle::ZERO;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let started = Instant::now();
    for i in 0..OTP_STEPS as usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        now += Duration::cycles(OTP_GAPS[i % OTP_GAPS.len()]);
        let spread = if x & 1 == 0 { 2 } else { peers.len() };
        let dst = (x >> 8) as usize % spread;
        let src = (x >> 32) as usize % spread;
        black_box(nic.prepare_send(now, peers[dst]));
        black_box(nic.receive(now, peers[src], next_ctr[src]));
        next_ctr[src] += 1;
    }
    let seconds = started.elapsed().as_secs_f64();
    black_box(nic.pads_issued());
    (2 * OTP_STEPS) as f64 / seconds.max(f64::EPSILON)
}

fn bench_otp_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("otp-layer");
    group.sample_size(10);
    for (label, cfg) in otp_cells() {
        let best = (0..5).map(|_| otp_use_rate(&cfg)).fold(0.0f64, f64::max);
        println!(
            "otp-uses-per-sec {label} {best:.0} ({} pad uses per run, best of 5)",
            2 * OTP_STEPS
        );
        group.bench_function(format!("nic-send-recv-{label}"), |b| {
            b.iter(|| otp_use_rate(&cfg));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_engine_cells,
    bench_otp_layer
);
criterion_main!(benches);
