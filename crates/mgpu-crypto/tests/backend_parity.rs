//! Cross-backend bit-equality: the hardware AES-NI/PCLMULQDQ paths must
//! produce exactly the bytes of the portable software implementations, for
//! every primitive and at every size class the protocol uses.
//!
//! On hosts without the hardware features the hw side of each comparison
//! is skipped (the software path is then the only implementation and is
//! covered by the unit tests and NIST vectors in-crate).

use mgpu_crypto::aes::Aes128;
use mgpu_crypto::backend::Backend;
use mgpu_crypto::gcm::AesGcm;
use mgpu_crypto::ghash::{Gf128, Ghash, GhashKey};
use proptest::prelude::*;

fn hw() -> Option<Backend> {
    Backend::HwAesClmul
        .is_available()
        .then_some(Backend::HwAesClmul)
}

/// Every backend available on this host — always includes soft.
fn all_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Soft];
    v.extend(hw());
    v
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Seals a copy of `pt`, returning `(ciphertext, tag)`.
fn seal(gcm: &AesGcm, nonce: &[u8; 12], aad: &[u8], pt: &[u8]) -> (Vec<u8>, [u8; 16]) {
    let mut buf = pt.to_vec();
    let tag = gcm.seal_in_place(nonce, aad, &mut buf);
    (buf, tag)
}

/// Opens a copy of `ct` against `tag`, returning the plaintext.
fn open(gcm: &AesGcm, nonce: &[u8; 12], aad: &[u8], ct: &[u8], tag: &[u8]) -> Vec<u8> {
    let mut buf = ct.to_vec();
    gcm.open_in_place(nonce, aad, &mut buf, tag)
        .expect("authentic");
    buf
}

#[test]
fn gcm_matches_at_every_length() {
    // Every message length 0..=600 B: the CTR keystream crosses GCM's
    // 16-block (256 B) chunk twice and the hw AES path's 8-block pipeline
    // boundary many times, ending at every remainder size.
    let Some(hw) = hw() else { return };
    let soft = AesGcm::with_backend(&[0x5Au8; 16], Backend::Soft);
    let fast = AesGcm::with_backend(&[0x5Au8; 16], hw);
    let nonce = [0x3Cu8; 12];
    for len in 0..=600usize {
        let pt: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
        let sealed = seal(&soft, &nonce, b"hdr", &pt);
        assert_eq!(
            sealed,
            seal(&fast, &nonce, b"hdr", &pt),
            "seal diverges at {len} B"
        );
        assert_eq!(
            open(&fast, &nonce, b"hdr", &sealed.0, &sealed.1),
            pt,
            "open at {len} B"
        );
    }
}

#[test]
fn nist_gcm_vectors_pass_on_every_backend() {
    // NIST GCM spec test cases 1–4, run against each available backend.
    struct Case {
        key: &'static str,
        nonce: &'static str,
        aad: &'static str,
        pt: &'static str,
        ct: &'static str,
        tag: &'static str,
    }
    let cases = [
        Case {
            key: "00000000000000000000000000000000",
            nonce: "000000000000000000000000",
            aad: "",
            pt: "",
            ct: "",
            tag: "58e2fccefa7e3061367f1d57a4e7455a",
        },
        Case {
            key: "00000000000000000000000000000000",
            nonce: "000000000000000000000000",
            aad: "",
            pt: "00000000000000000000000000000000",
            ct: "0388dace60b6a392f328c2b971b2fe78",
            tag: "ab6e47d42cec13bdf53a67b21257bddf",
        },
        Case {
            key: "feffe9928665731c6d6a8f9467308308",
            nonce: "cafebabefacedbaddecaf888",
            aad: "",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                  1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            tag: "4d5c2af327cd64a62cf35abd2ba6fab4",
        },
        Case {
            key: "feffe9928665731c6d6a8f9467308308",
            nonce: "cafebabefacedbaddecaf888",
            aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            tag: "5bc94fbc3221a5db94fae95ae7121a47",
        },
    ];
    for backend in all_backends() {
        for (i, case) in cases.iter().enumerate() {
            let key: [u8; 16] = hex(case.key).try_into().unwrap();
            let nonce: [u8; 12] = hex(case.nonce).try_into().unwrap();
            let aad = hex(case.aad);
            let pt = hex(case.pt.replace(char::is_whitespace, "").as_str());
            let gcm = AesGcm::with_backend(&key, backend);
            let (ct, tag) = seal(&gcm, &nonce, &aad, &pt);
            assert_eq!(
                ct,
                hex(case.ct.replace(char::is_whitespace, "").as_str()),
                "case {i} ciphertext on {backend}"
            );
            assert_eq!(tag.to_vec(), hex(case.tag), "case {i} tag on {backend}");
            assert_eq!(
                open(&gcm, &nonce, &aad, &ct, &tag),
                pt,
                "case {i} open on {backend}"
            );
        }
    }
}

proptest! {
    #[test]
    fn single_block_encrypt_matches(key in proptest::array::uniform16(any::<u8>()),
                                    pt in proptest::array::uniform16(any::<u8>())) {
        let Some(hw) = hw() else { return Ok(()) };
        let soft = Aes128::with_backend(&key, Backend::Soft);
        let fast = Aes128::with_backend(&key, hw);
        prop_assert_eq!(soft.encrypt_block(pt), fast.encrypt_block(pt));
    }

    #[test]
    fn bulk_encrypt_matches(key in proptest::array::uniform16(any::<u8>()),
                            blocks in proptest::collection::vec(
                                proptest::array::uniform16(any::<u8>()), 0..48)) {
        let Some(hw) = hw() else { return Ok(()) };
        let soft = Aes128::with_backend(&key, Backend::Soft);
        let fast = Aes128::with_backend(&key, hw);
        let mut a = blocks.clone();
        let mut b = blocks;
        soft.encrypt_blocks(&mut a);
        fast.encrypt_blocks(&mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn ghash_matches(h in proptest::array::uniform16(any::<u8>()),
                     data in proptest::collection::vec(any::<u8>(), 0..256),
                     split in 0usize..256) {
        let Some(hw) = hw() else { return Ok(()) };
        // Split the update to exercise the partial-block buffer on both
        // sides, not just the aligned bulk path.
        let split = split.min(data.len());
        let run = |backend: Backend| {
            let mut g = Ghash::with_key(GhashKey::with_backend(h, backend));
            g.update(&data[..split]);
            g.update(&data[split..]);
            g.finalize(0, data.len() as u64)
        };
        prop_assert_eq!(run(Backend::Soft), run(hw));
    }

    #[test]
    fn ghash_key_mul_matches(h in proptest::array::uniform16(any::<u8>()),
                             x in proptest::array::uniform16(any::<u8>())) {
        let Some(hw) = hw() else { return Ok(()) };
        let soft = GhashKey::with_backend(h, Backend::Soft);
        let fast = GhashKey::with_backend(h, hw);
        let x = Gf128::from_bytes(x);
        prop_assert_eq!(soft.mul(x), fast.mul(x));
    }

    #[test]
    fn gcm_seal_open_matches(key in proptest::array::uniform16(any::<u8>()),
                             nonce in proptest::array::uniform12(any::<u8>()),
                             aad in proptest::collection::vec(any::<u8>(), 0..64),
                             pt in proptest::collection::vec(any::<u8>(), 0..256)) {
        let Some(hw) = hw() else { return Ok(()) };
        let soft = AesGcm::with_backend(&key, Backend::Soft);
        let fast = AesGcm::with_backend(&key, hw);
        let (ct_soft, tag_soft) = seal(&soft, &nonce, &aad, &pt);
        let (ct_fast, tag_fast) = seal(&fast, &nonce, &aad, &pt);
        prop_assert_eq!(&ct_soft, &ct_fast);
        prop_assert_eq!(tag_soft, tag_fast);
        // Cross-open: each backend verifies and decrypts the other's seal.
        prop_assert_eq!(open(&soft, &nonce, &aad, &ct_fast, &tag_fast), pt.clone());
        prop_assert_eq!(open(&fast, &nonce, &aad, &ct_soft, &tag_soft), pt);
    }
}
