//! Crypto backend A/B benchmarks: software T-table/Shoup vs hardware
//! AES-NI/PCLMULQDQ, for every primitive the secure channel leans on.
//!
//! Criterion tracks single-block encrypt and a full GCM seal on both
//! backends side by side. [`bench::layer_rate`] times bulk CTR keystream
//! and GHASH on each backend in bytes/sec, and the hw-over-soft speedup
//! ratios print as `layer-rate` lines in unit `x`, which is how the "≥4×
//! on bulk keystream and GHASH" acceptance bar stays pinned. These lines
//! print only when the CPU has the features; the floor file assumes an
//! AES-NI host (every x86_64 CI runner qualifies).

use bench::{layer_line, layer_rate};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_crypto::aes::{Aes128, Block};
use mgpu_crypto::backend::{cpu_features, Backend};
use mgpu_crypto::ctr::CtrKeystream;
use mgpu_crypto::gcm::AesGcm;
use mgpu_crypto::ghash::{Ghash, GhashKey};
use mgpu_crypto::pad::PadSeed;

/// Bulk payload: 4 KiB = 256 AES blocks, a realistic OTP window refill
/// and far past the 8-block pipeline / 4-block fold ramp-up.
const BULK_BYTES: usize = 4096;
const BULK_BLOCKS: usize = BULK_BYTES / 16;

const KEY: [u8; 16] = [0x42; 16];

fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Soft];
    if Backend::HwAesClmul.is_available() {
        v.push(Backend::HwAesClmul);
    }
    v
}

/// Bulk calls per timed run of the keystream and GHASH lines.
const REPS: usize = 2000;

fn keystream_bps(label: &str, backend: Backend) -> f64 {
    let seed = PadSeed::new(1, 2, 99);
    layer_rate(
        label,
        "B",
        (BULK_BYTES * REPS) as u64,
        || {
            let ks = CtrKeystream::with_backend(&KEY, backend);
            (ks, vec![[0u8; 16]; BULK_BLOCKS])
        },
        |(ks, out)| {
            for _ in 0..REPS {
                ks.keystream_blocks(seed, 0, black_box(out.as_mut_slice()));
            }
        },
    )
}

fn ghash_bps(label: &str, backend: Backend) -> f64 {
    layer_rate(
        label,
        "B",
        (BULK_BYTES * REPS) as u64,
        || {
            let key = GhashKey::with_backend([0x77; 16], backend);
            (key, vec![0xA5u8; BULK_BYTES])
        },
        |(key, data)| {
            for _ in 0..REPS {
                let mut g = Ghash::with_key(key.clone());
                g.update(black_box(data));
                black_box(g.finalize(0, data.len() as u64));
            }
        },
    )
}

fn bench_crypto_backends(c: &mut Criterion) {
    for backend in backends() {
        let name = backend.name();
        let aes = Aes128::with_backend(&KEY, backend);
        let gcm = AesGcm::with_backend(&KEY, backend);

        let mut group = c.benchmark_group(format!("crypto-{name}"));
        group.bench_function("block-encrypt", |b| {
            let mut block: Block = [7u8; 16];
            b.iter(|| {
                block = aes.encrypt_block(black_box(block));
                block
            });
        });
        group.bench_function("seal-4k", |b| {
            let pt = vec![0x3Cu8; BULK_BYTES];
            let mut ct = Vec::with_capacity(BULK_BYTES);
            b.iter(|| gcm.seal_detached_into(&[9u8; 12], b"hdr", black_box(&pt), &mut ct));
        });
        group.finish();
    }

    // CI floor-gate lines: hardware throughput and the hw/soft ratios.
    if Backend::HwAesClmul.is_available() {
        let soft_ks = keystream_bps("soft_keystream_Bps", Backend::Soft);
        let hw_ks = keystream_bps("aesni_keystream_Bps", Backend::HwAesClmul);
        let soft_gh = ghash_bps("soft_ghash_Bps", Backend::Soft);
        let hw_gh = ghash_bps("clmul_ghash_Bps", Backend::HwAesClmul);
        for (label, hw, soft) in [
            ("aesni_keystream_speedup", hw_ks, soft_ks),
            ("clmul_ghash_speedup", hw_gh, soft_gh),
        ] {
            println!("{}", layer_line(label, hw / soft, "x"));
        }
        println!("crypto-backend-features {}", cpu_features().join(","));
    } else {
        println!("crypto-backend hw unavailable: skipping aesni_*/clmul_* floor lines");
    }
}

criterion_group!(benches, bench_crypto_backends);
criterion_main!(benches);
