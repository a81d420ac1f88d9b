//! Timed-server benchmark: the serialized port primitive behind every
//! fabric port and ctrl VC, in isolation from the engine.
//!
//! `timed-server` drives `serve_parts` churn on a single [`TimedServer`]:
//! messages of 64-112 B arrive every 2-4 cycles at a 50 B/cy port with
//! 100 cycles of propagation, so about 35 stay in service at once and
//! every booking also prunes the occupancy ledger. The timed pre-run
//! prints an `engine-events-per-sec` line that CI's bench-smoke gate
//! compares against the floor in `crates/bench/engine-floor.txt`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_sim::link::{TrafficClass, WireParts};
use mgpu_sim::TimedServer;
use mgpu_types::{ByteSize, Cycle, Duration};
use std::time::Instant;

/// Serves per timed pre-run sample of the churn loop.
const CHURN_OPS: u64 = 1_000_000;

/// One pass of the churn loop: the `i`-th message arrives a few cycles
/// after `now` and is served. Returns its arrival cycle.
fn churn_step(srv: &mut TimedServer, now: Cycle, i: u64) -> Cycle {
    let now = now + Duration::cycles(2 + i % 3);
    let parts = WireParts::of(ByteSize::new(64 + (i % 7) * 8), TrafficClass::Data);
    black_box(srv.serve_parts(now, &parts));
    now
}

fn bench_timed_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("timed-server");

    // Timed pre-run for the CI floor gate: serves per second, best of
    // five, as in engine.rs.
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut srv = TimedServer::new(50, Duration::cycles(100));
        let started = Instant::now();
        let mut now = Cycle::ZERO;
        for i in 0..CHURN_OPS {
            now = churn_step(&mut srv, now, i);
        }
        let seconds = started.elapsed().as_secs_f64();
        black_box(srv.grants());
        best = best.max(CHURN_OPS as f64 / seconds.max(f64::EPSILON));
    }
    println!("engine-events-per-sec timed-server-churn {best:.0} ({CHURN_OPS} serves per run, best of 5)");

    group.bench_function("serve-churn", |b| {
        let mut srv = TimedServer::new(50, Duration::cycles(100));
        let mut now = Cycle::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            now = churn_step(&mut srv, now, i);
            now
        });
    });
    group.finish();
}

criterion_group!(benches, bench_timed_server);
criterion_main!(benches);
