//! Crypto backend A/B benchmarks: software T-table/Shoup vs hardware
//! AES-NI/PCLMULQDQ, for every primitive the secure channel leans on.
//!
//! Criterion tracks single-block encrypt and a full in-place GCM seal on
//! both backends side by side. [`bench::layer_rate`] times the channel's
//! CTR keystream and GHASH on each backend in bytes/sec, and the
//! hw-over-soft speedup ratios print as `layer-rate` lines in unit `x`,
//! which is how the hardware backend's margin over the soft one stays
//! pinned. The keystream lines issue exactly the
//! [`Aes128::encrypt_blocks`] call GCM's CTR makes to seal or open one
//! 64 B wire block: four counter blocks. These lines print only when the
//! CPU has the features; the floor file assumes an AES-NI host (every
//! x86_64 CI runner qualifies).

use bench::{layer_line, layer_rate};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_crypto::aes::{Aes128, Block};
use mgpu_crypto::backend::{cpu_features, Backend};
use mgpu_crypto::gcm::AesGcm;
use mgpu_crypto::ghash::{Ghash, GhashKey};

/// Bulk payload of the GHASH lines and the criterion seal: 4 KiB = 256
/// AES blocks, far past the 4-block fold ramp-up.
const BULK_BYTES: usize = 4096;

/// Counter blocks per CTR call for one 64 B wire block.
const WIRE_CTR_BLOCKS: usize = 64 / 16;

const KEY: [u8; 16] = [0x42; 16];

fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Soft];
    if Backend::HwAesClmul.is_available() {
        v.push(Backend::HwAesClmul);
    }
    v
}

/// Bytes per timed run of the keystream and GHASH lines.
const RUN_BYTES: usize = BULK_BYTES * 2000;

/// Lays out a 64 B wire block's four GCM counter blocks (nonce ‖ 32-bit
/// counter 2..=5) and encrypts them in one [`Aes128::encrypt_blocks`]
/// call, as `AesGcm::seal_in_place` and `open_in_place` do, once per
/// 64 B of `RUN_BYTES`.
fn keystream_bps(label: &str, backend: Backend) -> f64 {
    let nonce = [9u8; 12];
    layer_rate(
        label,
        "B",
        RUN_BYTES as u64,
        || Aes128::with_backend(&KEY, backend),
        |aes| {
            let mut blocks = [[0u8; 16]; WIRE_CTR_BLOCKS];
            for _ in 0..RUN_BYTES / 64 {
                for (ctr, block) in (2u32..).zip(blocks.iter_mut()) {
                    block[..12].copy_from_slice(&nonce);
                    block[12..].copy_from_slice(&ctr.to_be_bytes());
                }
                aes.encrypt_blocks(black_box(&mut blocks));
            }
        },
    )
}

fn ghash_bps(label: &str, backend: Backend) -> f64 {
    layer_rate(
        label,
        "B",
        RUN_BYTES as u64,
        || {
            let key = GhashKey::with_backend([0x77; 16], backend);
            (key, vec![0xA5u8; BULK_BYTES])
        },
        |(key, data)| {
            for _ in 0..RUN_BYTES / BULK_BYTES {
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
            let mut buf = vec![0x3Cu8; BULK_BYTES];
            b.iter(|| gcm.seal_in_place(&[9u8; 12], b"hdr", black_box(&mut buf)));
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
