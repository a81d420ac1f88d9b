//! Microbenchmarks of the core primitives behind the simulation: the
//! from-scratch crypto, pad windows, the EWMA allocator, batching
//! bookkeeping, and a short end-to-end simulation run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_crypto::engine::AesEngine;
use mgpu_crypto::ghash::{Gf128, Ghash, GhashKey};
use mgpu_crypto::{Aes128, AesGcm};
use mgpu_secure::batching::SenderBatcher;
use mgpu_secure::ewma::EwmaAllocator;
use mgpu_secure::otp::PadWindow;
use mgpu_system::runner::configs;
use mgpu_system::Simulation;
use mgpu_types::{Cycle, Duration, NodeId, SystemConfig};
use mgpu_workloads::Benchmark;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let aes = Aes128::new(&[7u8; 16]);
    group.bench_function("aes128-block", |b| {
        b.iter(|| aes.encrypt_block(black_box([0x5Au8; 16])));
    });
    let gcm = AesGcm::new(&[7u8; 16]);
    let mut cacheline = [0xC3u8; 64];
    group.bench_function("gcm-seal-64B", |b| {
        b.iter(|| gcm.seal_in_place(black_box(&[1u8; 12]), b"hdr", black_box(&mut cacheline)));
    });
    let mut sealed = [0xC3u8; 64];
    let tag = gcm.seal_in_place(&[1u8; 12], b"hdr", &mut sealed);
    group.bench_function("gcm-open-64B", |b| {
        b.iter(|| {
            let mut buf = black_box(sealed);
            gcm.open_in_place(black_box(&[1u8; 12]), b"hdr", &mut buf, &tag)
                .unwrap();
            buf
        });
    });
    // GHASH throughput: table-driven multiply alone, and absorbing 1 KiB
    // through the streaming hasher (64 block multiplies).
    let key = GhashKey::new([0xB8u8; 16]);
    let h = Gf128::from_bytes([0xB8u8; 16]);
    let x = Gf128::from_bytes([0x5Au8; 16]);
    group.bench_function("ghash-table-mul", |b| {
        b.iter(|| key.mul(black_box(x)));
    });
    // The bit-by-bit reference multiply, kept as the correctness oracle —
    // benchmarked here so the table speedup stays visible.
    group.bench_function("ghash-bitwise-mul", |b| {
        b.iter(|| black_box(x).mul(h));
    });
    let kilobyte = [0xE7u8; 1024];
    group.bench_function("ghash-absorb-1KiB", |b| {
        b.iter(|| {
            let mut g = Ghash::with_key(key.clone());
            g.update(black_box(&kilobyte));
            g.finalize(0, 1024)
        });
    });
    group.finish();
}

fn bench_otp(c: &mut Criterion) {
    let mut group = c.benchmark_group("otp");
    group.bench_function("pad-window-use", |b| {
        let mut engine = AesEngine::new(Duration::cycles(40));
        let mut window = PadWindow::new(4, Cycle::ZERO, &mut engine);
        let mut now = Cycle::ZERO;
        b.iter(|| {
            now += Duration::cycles(7);
            window.use_pad(now, &mut engine)
        });
    });
    group.bench_function("ewma-end-interval", |b| {
        let peers: Vec<NodeId> = NodeId::gpu(1).peers(16).collect();
        let mut mon = EwmaAllocator::new(&peers, 0.9, 0.5).with_floor(2);
        let (mut send, mut recv) = (vec![0; peers.len()], vec![0; peers.len()]);
        b.iter(|| {
            // Re-observe the interval's traffic every iteration, so each
            // iteration times a busy close rather than an idle one.
            for (i, &p) in peers.iter().enumerate() {
                for _ in 0..(i * 3) {
                    mon.observe_send(p);
                }
            }
            mon.end_interval(black_box(128), &mut send, &mut recv);
        });
    });
    group.bench_function("batcher-add-block", |b| {
        let mut batcher = SenderBatcher::new(16, Duration::cycles(160));
        let mut now = Cycle::ZERO;
        b.iter(|| {
            now += Duration::cycles(2);
            batcher.add_block(now, NodeId::gpu(2))
        });
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    let base = SystemConfig::paper_4gpu();
    for (label, cfg) in [
        ("unsecure", {
            let mut c = base.clone();
            c.security.scheme = mgpu_types::OtpSchemeKind::Unsecure;
            c
        }),
        ("private-4x", configs::private(&base, 4)),
    ] {
        group.bench_function(format!("mt-200req-{label}"), |b| {
            b.iter(|| {
                Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, 42).run_for_requests(200)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_crypto, bench_otp, bench_simulation);
criterion_main!(benches);
