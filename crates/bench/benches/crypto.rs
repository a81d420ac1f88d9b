//! Crypto backend A/B benchmarks: software T-table/Shoup vs hardware
//! AES-NI/PCLMULQDQ, for every primitive the secure channel leans on.
//!
//! Every line is timed by [`bench::layer_rate`]. Ungated lines, one per
//! available backend, time single-block AES encrypt and an in-place GCM
//! seal and open of one 64 B wire block with an empty AAD, the calls the
//! channel makes per block; two more time the soft Shoup-table GHASH
//! multiply against its bit-by-bit oracle. The gated lines time the
//! channel's CTR keystream and GHASH on each backend in bytes/sec, and
//! the hw-over-soft speedup ratios print as `layer-rate` lines in unit
//! `x`, which is how the hardware backend's margin over the soft one
//! stays pinned. The keystream lines issue exactly the
//! [`Aes128::encrypt_blocks`] call GCM's CTR makes to seal or open one
//! 64 B wire block: four counter blocks. The gated lines print only when
//! the CPU has the features; the floor file assumes an AES-NI host
//! (every x86_64 CI runner qualifies).

use bench::{layer_line, layer_rate};
use mgpu_crypto::aes::{Aes128, Block};
use mgpu_crypto::backend::{cpu_features, Backend};
use mgpu_crypto::gcm::AesGcm;
use mgpu_crypto::ghash::{Gf128, Ghash, GhashKey};
use std::hint::black_box;

/// Payload of the GHASH lines: 4 KiB = 256 AES blocks, far past the
/// 4-block fold ramp-up.
const BULK_BYTES: usize = 4096;

/// Bytes in one wire block, the unit the channel seals and opens.
const WIRE_BYTES: usize = 64;

/// Counter blocks per CTR call for one 64 B wire block.
const WIRE_CTR_BLOCKS: usize = WIRE_BYTES / 16;

/// Calls per timed run of the per-call lines (block encrypt, seal, open
/// and the GHASH multiplies).
const CALLS: usize = 1 << 15;

const KEY: [u8; 16] = [0x42; 16];

const NONCE: [u8; 12] = [9; 12];

fn main() {
    let mut backends = vec![Backend::Soft];
    if Backend::HwAesClmul.is_available() {
        backends.push(Backend::HwAesClmul);
    }
    for backend in backends {
        wire_calls(backend);
    }
    ghash_muls();

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

/// One backend's per-call lines, in bytes/sec: [`CALLS`] single-block
/// encrypts (each block the previous output, so no call can be hoisted),
/// and [`CALLS`] in-place seals and opens of one 64 B block under the
/// channel's empty AAD. Each open verifies the tag of a fresh copy of
/// one sealed block, as a receiver does.
fn wire_calls(backend: Backend) {
    let name = backend.name();
    layer_rate(
        &format!("{name}_aes_block_Bps"),
        "B",
        (CALLS * 16) as u64,
        || Aes128::with_backend(&KEY, backend),
        |aes| {
            let mut block: Block = [7; 16];
            for _ in 0..CALLS {
                block = aes.encrypt_block(black_box(block));
            }
            block
        },
    );
    let gcm = || AesGcm::with_backend(&KEY, backend);
    layer_rate(
        &format!("{name}_gcm_seal_64B_Bps"),
        "B",
        (CALLS * WIRE_BYTES) as u64,
        gcm,
        |gcm| {
            let mut buf = [0x3C; WIRE_BYTES];
            for _ in 0..CALLS {
                black_box(gcm.seal_in_place(&NONCE, &[], black_box(&mut buf)));
            }
        },
    );
    layer_rate(
        &format!("{name}_gcm_open_64B_Bps"),
        "B",
        (CALLS * WIRE_BYTES) as u64,
        || {
            let gcm = gcm();
            let mut sealed = [0x3C; WIRE_BYTES];
            let tag = gcm.seal_in_place(&NONCE, &[], &mut sealed);
            (gcm, sealed, tag)
        },
        |(gcm, sealed, tag)| {
            for _ in 0..CALLS {
                let mut buf = black_box(*sealed);
                gcm.open_in_place(&NONCE, &[], &mut buf, &tag[..8])
                    .expect("authentic");
                black_box(buf);
            }
        },
    );
}

/// [`CALLS`] chained GF(2^128) multiplies by H: the soft backend's
/// Shoup 8-bit table, and the bit-by-bit multiply kept as its
/// correctness oracle, so the table's speedup stays visible.
fn ghash_muls() {
    let h = [0xB8; 16];
    let x = Gf128::from_bytes([0x5A; 16]);
    layer_rate(
        "ghash-table-mul",
        "muls",
        CALLS as u64,
        || GhashKey::with_backend(h, Backend::Soft),
        |key| (0..CALLS).fold(x, |acc, _| key.mul(black_box(acc))),
    );
    layer_rate(
        "ghash-bitwise-mul",
        "muls",
        CALLS as u64,
        || Gf128::from_bytes(h),
        |h| (0..CALLS).fold(x, |acc, _| black_box(acc).mul(*h)),
    );
}

/// Bytes per timed run of the keystream and GHASH lines.
const RUN_BYTES: usize = BULK_BYTES * 2000;

/// Lays out a 64 B wire block's four GCM counter blocks (nonce ‖ 32-bit
/// counter 2..=5) and encrypts them in one [`Aes128::encrypt_blocks`]
/// call, as `AesGcm::seal_in_place` and `open_in_place` do, once per
/// 64 B of `RUN_BYTES`.
fn keystream_bps(label: &str, backend: Backend) -> f64 {
    layer_rate(
        label,
        "B",
        RUN_BYTES as u64,
        || Aes128::with_backend(&KEY, backend),
        |aes| {
            let mut blocks = [[0u8; 16]; WIRE_CTR_BLOCKS];
            for _ in 0..RUN_BYTES / WIRE_BYTES {
                for (ctr, block) in (2u32..).zip(blocks.iter_mut()) {
                    block[..12].copy_from_slice(&NONCE);
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
