//! AES-GCM authenticated encryption (NIST SP 800-38D), composed from the
//! in-repo AES-128 and GHASH primitives. Every operation works in place on
//! the caller's buffer.
//!
//! The secure channel in `mgpu-secure` uses this for end-to-end functional
//! validation: real ciphertexts, real tags, real tamper detection.

use crate::aes::Aes128;
use crate::backend::{self, Backend};
use crate::ghash::{Ghash, GhashKey};

/// Authentication tag length in bytes (full 128-bit tags).
pub const TAG_LEN: usize = 16;

/// AES-GCM authenticated encryption bound to one 128-bit key.
///
/// # Examples
///
/// ```
/// use mgpu_crypto::gcm::AesGcm;
///
/// let gcm = AesGcm::new(&[1u8; 16]);
/// let mut buf = *b"hello";
/// let tag = gcm.seal_in_place(&[2u8; 12], b"aad", &mut buf);
/// assert!(gcm.open_in_place(&[2u8; 12], b"tampered-aad", &mut buf, &tag).is_err());
/// gcm.open_in_place(&[2u8; 12], b"aad", &mut buf, &tag).unwrap();
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug, Clone)]
pub struct AesGcm {
    aes: Aes128,
    /// `H = AES_K(0)` expanded into the backend's key tables (Shoup
    /// product table and `H`-power table), built once per key and shared
    /// by every tag computation.
    h: GhashKey,
}

/// Authentication failure returned by [`AesGcm::open_in_place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagMismatch;

impl core::fmt::Display for TagMismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("GCM authentication tag mismatch")
    }
}

impl std::error::Error for TagMismatch {}

impl AesGcm {
    /// Creates a GCM instance, deriving the hash subkey `H = AES_K(0)`,
    /// using the process-default backend ([`backend::default_backend`]).
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, backend::default_backend())
    }

    /// Creates a GCM instance on an explicitly chosen backend (both the
    /// AES and GHASH halves). Output is bit-identical across backends.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on this CPU.
    #[must_use]
    pub fn with_backend(key: &[u8; 16], backend: Backend) -> Self {
        let aes = Aes128::with_backend(key, backend);
        let h = GhashKey::with_backend(aes.encrypt_block([0u8; 16]), backend);
        AesGcm { aes, h }
    }

    /// The implementation family this instance dispatches to.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.aes.backend()
    }

    /// Builds the initial counter block J0 for a 96-bit nonce
    /// (SP 800-38D §7.1: J0 = IV || 0^31 || 1).
    fn j0(nonce: &[u8; 12]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        j0
    }

    /// Increments the low 32 bits of a counter block (inc32).
    fn inc32(block: &mut [u8; 16]) {
        let ctr = u32::from_be_bytes(block[12..16].try_into().expect("4 bytes"));
        block[12..16].copy_from_slice(&ctr.wrapping_add(1).to_be_bytes());
    }

    /// Counter blocks encrypted per bulk call in [`AesGcm::ctr_xor`];
    /// 16 blocks (256 B) comfortably covers the protocol's 64 B cachelines
    /// in one call while keeping the scratch on the stack.
    const CTR_CHUNK: usize = 16;

    /// CTR-mode encrypt/decrypt of `data` in place, starting from the
    /// counter block after J0. Keystream blocks live in a stack scratch,
    /// so the call performs no heap allocation.
    fn ctr_xor(&self, nonce: &[u8; 12], data: &mut [u8]) {
        let mut cb = Self::j0(nonce);
        Self::inc32(&mut cb);
        let mut chunk = [[0u8; 16]; Self::CTR_CHUNK];
        for piece in data.chunks_mut(16 * Self::CTR_CHUNK) {
            let nblocks = piece.len().div_ceil(16);
            for counter in chunk.iter_mut().take(nblocks) {
                *counter = cb;
                Self::inc32(&mut cb);
            }
            self.aes.encrypt_blocks(&mut chunk[..nblocks]);
            for (d, k) in piece.iter_mut().zip(chunk[..nblocks].iter().flatten()) {
                *d ^= k;
            }
        }
    }

    /// Computes the GCM tag over `aad` and `ciphertext`.
    fn tag(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let mut g = Ghash::with_key(self.h.clone());
        g.update(aad);
        g.pad_to_block();
        g.update(ciphertext);
        let s = g.finalize(aad.len() as u64, ciphertext.len() as u64);
        let ek_j0 = self.aes.encrypt_block(Self::j0(nonce));
        let mut tag = [0u8; 16];
        for i in 0..16 {
            tag[i] = s[i] ^ ek_j0[i];
        }
        tag
    }

    /// Encrypts `buf` in place and returns the 16-byte tag.
    ///
    /// `aad` is authenticated but not encrypted. The secure channel passes
    /// an empty one: its clear header (sender, receiver, counter) is the
    /// nonce, which GCM already binds to the keystream and the tag.
    /// The protocol layer truncates the tag to its 8 B `MsgMAC`; GCM
    /// explicitly supports 64-bit tags (SP 800-38D §5.2.1.2).
    #[must_use]
    pub fn seal_in_place(&self, nonce: &[u8; 12], aad: &[u8], buf: &mut [u8]) -> [u8; 16] {
        self.ctr_xor(nonce, buf);
        self.tag(nonce, aad, buf)
    }

    /// Verifies a detached (possibly truncated) tag over the ciphertext in
    /// `buf`, then decrypts it in place. On failure `buf` still holds the
    /// ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] if `tag` is shorter than 8 bytes, longer
    /// than 16, or does not match the computed tag's prefix (tamper, wrong
    /// nonce, wrong AAD).
    pub fn open_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8],
    ) -> Result<(), TagMismatch> {
        if tag.len() < 8 || tag.len() > TAG_LEN {
            return Err(TagMismatch);
        }
        let expected = self.tag(nonce, aad, buf);
        // Avoid the obvious early-exit comparison.
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(TagMismatch);
        }
        self.ctr_xor(nonce, buf);
        Ok(())
    }

    /// Decrypts `buf` in place *unconditionally* and returns the tag
    /// computed over its ciphertext, without verifying anything.
    ///
    /// This is the primitive behind the paper's *lazy verification*: the
    /// receiver forwards decrypted data immediately and checks the
    /// (batched) MAC when the whole batch has arrived. Callers MUST
    /// eventually compare the returned tag against an authentic one.
    #[must_use]
    pub fn decrypt_and_tag_in_place(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; 16] {
        let tag = self.tag(nonce, aad, buf);
        self.ctr_xor(nonce, buf);
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn open(
        gcm: &AesGcm,
        nonce: &[u8; 12],
        aad: &[u8],
        ct: &[u8],
        tag: &[u8],
    ) -> Result<Vec<u8>, TagMismatch> {
        let mut buf = ct.to_vec();
        gcm.open_in_place(nonce, aad, &mut buf, tag).map(|()| buf)
    }

    /// NIST GCM spec test case 1: empty everything.
    #[test]
    fn nist_case_1() {
        let gcm = AesGcm::new(&[0u8; 16]);
        let (ct, tag) = seal(&gcm, &[0u8; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(tag.to_vec(), hex("58e2fccefa7e3061367f1d57a4e7455a"));
        assert_eq!(open(&gcm, &[0u8; 12], b"", &ct, &tag).unwrap(), b"");
    }

    /// NIST GCM spec test case 2: 16 zero bytes of plaintext.
    #[test]
    fn nist_case_2() {
        let gcm = AesGcm::new(&[0u8; 16]);
        let (ct, tag) = seal(&gcm, &[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(ct, hex("0388dace60b6a392f328c2b971b2fe78"));
        assert_eq!(tag.to_vec(), hex("ab6e47d42cec13bdf53a67b21257bddf"));
        assert_eq!(open(&gcm, &[0u8; 12], b"", &ct, &tag).unwrap(), [0u8; 16]);
    }

    /// NIST GCM spec test case 3: full key/IV/plaintext.
    #[test]
    fn nist_case_3() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let gcm = AesGcm::new(&key);
        let expected_ct = hex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        );
        let expected_tag = hex("4d5c2af327cd64a62cf35abd2ba6fab4");
        let (ct, tag) = seal(&gcm, &nonce, b"", &pt);
        assert_eq!(ct, expected_ct);
        assert_eq!(tag.to_vec(), expected_tag);
        // Decrypt direction from the published ciphertext, with the full tag
        // and with it truncated to the protocol's 8-byte MsgMAC.
        assert_eq!(
            open(&gcm, &nonce, b"", &expected_ct, &expected_tag).unwrap(),
            pt
        );
        assert_eq!(
            open(&gcm, &nonce, b"", &expected_ct, &expected_tag[..8]).unwrap(),
            pt
        );
    }

    /// NIST GCM spec test case 4: with AAD and truncated plaintext.
    #[test]
    fn nist_case_4() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let gcm = AesGcm::new(&key);
        let (ct, tag) = seal(&gcm, &nonce, &aad, &pt);
        assert_eq!(tag.to_vec(), hex("5bc94fbc3221a5db94fae95ae7121a47"));
        assert_eq!(open(&gcm, &nonce, &aad, &ct, &tag).unwrap(), pt);
    }

    #[test]
    fn truncated_tag_verifies_and_detects_tamper() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (ct, tag) = seal(&gcm, &[1u8; 12], b"", b"block");
        assert!(open(&gcm, &[1u8; 12], b"", &ct, &tag[..8]).is_ok());
        let mut bad = ct.clone();
        bad[0] ^= 1;
        assert_eq!(
            open(&gcm, &[1u8; 12], b"", &bad, &tag[..8]),
            Err(TagMismatch)
        );
        // Tags shorter than 64 bits are refused outright.
        assert_eq!(
            open(&gcm, &[1u8; 12], b"", &ct, &tag[..4]),
            Err(TagMismatch)
        );
        // Overlong tags are refused.
        let mut long = tag.to_vec();
        long.push(0);
        assert_eq!(open(&gcm, &[1u8; 12], b"", &ct, &long), Err(TagMismatch));
    }

    #[test]
    fn failed_open_leaves_the_ciphertext() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (mut buf, tag) = seal(&gcm, &[1u8; 12], b"", b"payload");
        buf[0] ^= 1;
        let tampered = buf.clone();
        assert_eq!(
            gcm.open_in_place(&[1u8; 12], b"", &mut buf, &tag),
            Err(TagMismatch)
        );
        assert_eq!(buf, tampered);
    }

    #[test]
    fn decrypt_and_tag_is_lazy() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (ct, tag) = seal(&gcm, &[1u8; 12], b"", b"lazy block");
        // Decryption succeeds even with no tag at hand...
        let mut buf = ct.clone();
        let computed = gcm.decrypt_and_tag_in_place(&[1u8; 12], b"", &mut buf);
        assert_eq!(buf, b"lazy block");
        // ...and the computed tag equals the genuine one for untampered
        // data, but differs once the ciphertext is corrupted.
        assert_eq!(computed, tag);
        let mut bad = ct;
        bad[3] ^= 0x10;
        assert_ne!(gcm.decrypt_and_tag_in_place(&[1u8; 12], b"", &mut bad), tag);
    }

    #[test]
    fn tamper_detection_tag() {
        let gcm = AesGcm::new(&[3u8; 16]);
        let (ct, mut tag) = seal(&gcm, &[1u8; 12], b"hdr", b"payload bytes");
        tag[15] ^= 0x80;
        assert_eq!(open(&gcm, &[1u8; 12], b"hdr", &ct, &tag), Err(TagMismatch));
    }

    #[test]
    fn wrong_nonce_or_aad_rejected() {
        let gcm = AesGcm::new(&[3u8; 16]);
        let (ct, tag) = seal(&gcm, &[1u8; 12], b"hdr", b"data");
        assert_eq!(open(&gcm, &[2u8; 12], b"hdr", &ct, &tag), Err(TagMismatch));
        assert_eq!(open(&gcm, &[1u8; 12], b"hdx", &ct, &tag), Err(TagMismatch));
    }

    #[test]
    fn error_type_displays() {
        assert!(TagMismatch.to_string().contains("tag mismatch"));
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip(key in proptest::array::uniform16(any::<u8>()),
                         nonce in proptest::array::uniform12(any::<u8>()),
                         aad in proptest::collection::vec(any::<u8>(), 0..48),
                         pt in proptest::collection::vec(any::<u8>(), 0..200)) {
                let gcm = AesGcm::new(&key);
                let (ct, tag) = seal(&gcm, &nonce, &aad, &pt);
                prop_assert_eq!(open(&gcm, &nonce, &aad, &ct, &tag).unwrap(), pt);
            }

            #[test]
            fn any_single_bitflip_is_caught(
                key in proptest::array::uniform16(any::<u8>()),
                nonce in proptest::array::uniform12(any::<u8>()),
                pt in proptest::collection::vec(any::<u8>(), 1..64),
                flip_byte in any::<proptest::sample::Index>(),
                flip_bit in 0u8..8) {
                let gcm = AesGcm::new(&key);
                let (mut ct, mut tag) = seal(&gcm, &nonce, b"", &pt);
                // Flip a bit anywhere in ciphertext ‖ tag.
                let idx = flip_byte.index(ct.len() + TAG_LEN);
                match idx.checked_sub(ct.len()) {
                    Some(t) => tag[t] ^= 1 << flip_bit,
                    None => ct[idx] ^= 1 << flip_bit,
                }
                prop_assert_eq!(open(&gcm, &nonce, b"", &ct, &tag), Err(TagMismatch));
            }
        }
    }
}
