//! Timed-server flow-substrate benchmarks: the credit-gated service
//! primitive in isolation and a full simulation cell running with finite
//! VC credits.
//!
//! Two layers, mirroring `engine.rs`:
//!
//! * `timed-server` — grant/reject/reclaim churn on a single
//!   [`TimedServer`] under the retry protocol (every `Busy` retried at
//!   its named cycle), isolating the serializer and credit bookkeeping
//!   behind every fabric port and ctrl VC. (The request pacer and the
//!   NIC's ACK window use the `mgpu_system::flow` credit pools instead.)
//! * the credited cell — a 4-GPU batching run with finite data and ctrl
//!   VC credits, exercising the typed-reject path end to end. Both print
//!   `engine-events-per-sec` lines that CI's bench-smoke gate compares
//!   against the floors in `crates/bench/engine-floor.txt`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_sim::link::TrafficClass;
use mgpu_sim::{TimedServer, Vc};
use mgpu_system::runner::configs;
use mgpu_system::Simulation;
use mgpu_types::{ByteSize, Cycle, Duration, SystemConfig};
use mgpu_workloads::Benchmark;
use std::time::Instant;

/// Serve attempts per timed pre-run sample of the churn loop.
const CHURN_OPS: u64 = 1_000_000;

/// One pass of the churn loop: a serve attempt that retries once at the
/// named cycle when rejected — the protocol a blocked fabric hop
/// follows. Returns the completion cycle to keep the loop data-dependent.
fn churn_step(srv: &mut TimedServer, now: Cycle, bytes: u64) -> Cycle {
    let parts = [(ByteSize::new(bytes), TrafficClass::Data)];
    match srv.serve_parts(Vc::Data, now, &parts) {
        Ok(t) => t.done,
        Err(busy) => {
            srv.serve_parts(Vc::Data, busy.retry_at, &parts)
                .expect("retry at the named cycle finds a credit")
                .done
        }
    }
}

fn bench_timed_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("timed-server");

    // Timed pre-run for the CI floor gate: ops/sec over a mixed
    // grant/reject stream on a server that stays at its credit limit, so
    // roughly half the attempts take the reject-and-retry path. Best of
    // five, as in engine.rs.
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut srv = TimedServer::new(50, Duration::cycles(100), Some(4), None);
        let started = Instant::now();
        let mut now = Cycle::ZERO;
        for i in 0..CHURN_OPS {
            now = churn_step(&mut srv, now, 64 + (i % 7) * 8).max(now);
        }
        let seconds = started.elapsed().as_secs_f64();
        black_box(srv.grants(Vc::Data));
        best = best.max(CHURN_OPS as f64 / seconds.max(f64::EPSILON));
    }
    println!("engine-events-per-sec timed-server-churn {best:.0} ({CHURN_OPS} serve attempts per run, best of 5)");

    group.bench_function("grant-reject-churn", |b| {
        let mut srv = TimedServer::new(50, Duration::cycles(100), Some(4), None);
        let mut now = Cycle::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            now = churn_step(&mut srv, now, 64 + (i % 7) * 8).max(now);
            now
        });
    });
    group.finish();
}

/// A paper-shape cell with finite VC credits on every port, so block
/// egress takes the typed-reject retry path instead of the unbounded
/// fast path the golden matrix pins.
fn credited_cell() -> SystemConfig {
    let base = SystemConfig::paper_4gpu();
    let mut cfg = configs::batching(&base, 4);
    cfg.flow.data_vc_credits = Some(8);
    cfg.flow.ctrl_vc_credits = Some(4);
    cfg
}

fn bench_credited_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("timed-server-cell");
    group.sample_size(10);
    let cfg = credited_cell();

    let mut best = 0.0f64;
    let mut events = 0u64;
    for _ in 0..5 {
        let sim = Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, 42);
        let started = Instant::now();
        let report = sim.run_for_requests(200);
        let seconds = started.elapsed().as_secs_f64();
        events = report.events_processed;
        best = best.max(report.events_processed as f64 / seconds.max(f64::EPSILON));
    }
    println!(
        "engine-events-per-sec 4gpu-batching-credited {best:.0} ({events} events per run, best of 5)"
    );

    group.bench_function("cell-mt-200req-4gpu-batching-credited", |b| {
        b.iter(|| {
            Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, 42).run_for_requests(200)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_timed_server, bench_credited_cell);
criterion_main!(benches);
