//! AES-128 block cipher with runtime backend dispatch.
//!
//! Two implementations sit behind [`Aes128`], selected per instance by the
//! [`crate::backend`] layer:
//!
//! * **Software** — the classic 32-bit T-table formulation: SubBytes,
//!   ShiftRows and MixColumns for one output column collapse into four
//!   table lookups and four XORs. The tables are built at compile time
//!   from the S-box, and the key schedule is expanded once in
//!   [`Aes128::new`] and reused for every block, so the per-block cost is
//!   40 lookups per round batch instead of hundreds of byte operations. A
//!   byte-wise reference implementation is kept in the test module and
//!   checked for equivalence. This path is not constant-time (the lookups
//!   are data-dependent) and is retained as the portable fallback and the
//!   correctness oracle.
//! * **Hardware** — `x86_64` AES-NI ([`crate::aesni`]): `aeskeygenassist`
//!   key schedule and an 8-block interleaved `aesenc` pipeline behind
//!   [`Aes128::encrypt_blocks`]. Bit-for-bit equal to the software path,
//!   constant-time by construction, and ~an order of magnitude faster on
//!   CTR keystream.
//!
//! Either way the point is that the secure-communication protocol in this
//! repository is *functionally* real (pads, MACs and tamper detection all
//! operate on genuine AES output), while the performance model uses the
//! pipelined engine abstraction in [`crate::engine`]. There is no inverse
//! cipher: GCM only ever encrypts counter blocks.

use crate::backend::{self, Backend};

/// The AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// An AES block.
pub type Block = [u8; BLOCK_SIZE];

/// AES S-box (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// T-table for row-0 bytes: `T0[x] = [2·S(x), S(x), S(x), 3·S(x)]` as a
/// big-endian column word. The tables for rows 1–3 are byte rotations of
/// this one (the MixColumns matrix is circulant).
const fn build_t0() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i] as u32;
        let s2 = xtime(SBOX[i]) as u32;
        let s3 = s2 ^ s;
        t[i] = (s2 << 24) | (s << 16) | (s << 8) | s3;
        i += 1;
    }
    t
}

const fn rotate_table(src: &[u32; 256], r: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = src[i].rotate_right(r);
        i += 1;
    }
    t
}

const T0: [u32; 256] = build_t0();
const T1: [u32; 256] = rotate_table(&T0, 8);
const T2: [u32; 256] = rotate_table(&T0, 16);
const T3: [u32; 256] = rotate_table(&T0, 24);

/// An expanded AES-128 key, ready to encrypt blocks.
///
/// # Examples
///
/// ```
/// use mgpu_crypto::aes::Aes128;
///
/// let aes = Aes128::new(&[0u8; 16]);
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_eq!(ct[..4], [0x66, 0xe9, 0x4b, 0xd4]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// The byte-wise schedule the AES-NI path loads (and the test oracle
    /// reads); only the T-table words are used off `x86_64`.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    round_keys: [[u8; 16]; 11],
    /// The same schedule as big-endian column words, the form the T-table
    /// rounds consume directly.
    ek: [[u32; 4]; 11],
    /// Implementation family, snapshotted from the process default at
    /// construction.
    backend: Backend,
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never leak key material through Debug output.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

/// The FIPS-197 §5.2 software key expansion.
fn expand_key_soft(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        w[i].copy_from_slice(chunk);
    }
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            temp.rotate_left(1);
            for t in &mut temp {
                *t = SBOX[*t as usize];
            }
            temp[0] ^= RCON[i / 4 - 1];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    let mut round_keys = [[0u8; 16]; 11];
    for (r, rk) in round_keys.iter_mut().enumerate() {
        for c in 0..4 {
            rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
        }
    }
    round_keys
}

impl Aes128 {
    /// Expands a 128-bit key into the 11 round keys (FIPS-197 §5.2),
    /// using the process-default backend ([`backend::default_backend`]).
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, backend::default_backend())
    }

    /// Expands a key for an explicitly chosen backend. Both backends
    /// produce the identical FIPS-197 schedule and identical ciphertext;
    /// only the instructions differ.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on this CPU.
    #[must_use]
    pub fn with_backend(key: &[u8; 16], backend: Backend) -> Self {
        assert!(
            backend.is_available(),
            "backend {} is not available on this host",
            backend.name()
        );
        let round_keys = match backend {
            Backend::Soft => expand_key_soft(key),
            #[cfg(target_arch = "x86_64")]
            Backend::HwAesClmul => crate::aesni::expand_key(key),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::HwAesClmul => unreachable!("hw backend unavailable off x86_64"),
        };
        let mut ek = [[0u32; 4]; 11];
        for (er, rk) in ek.iter_mut().zip(&round_keys) {
            for (c, word) in er.iter_mut().enumerate() {
                *word = u32::from_be_bytes(rk[c * 4..c * 4 + 4].try_into().expect("4 bytes"));
            }
        }
        Aes128 {
            round_keys,
            ek,
            backend,
        }
    }

    /// The implementation family this instance dispatches to.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Encrypts one 16-byte block.
    #[must_use]
    pub fn encrypt_block(&self, state: Block) -> Block {
        match self.backend {
            Backend::Soft => self.encrypt_block_soft(state),
            #[cfg(target_arch = "x86_64")]
            Backend::HwAesClmul => crate::aesni::encrypt_block(&self.round_keys, state),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::HwAesClmul => unreachable!("hw backend unavailable off x86_64"),
        }
    }

    /// The T-table encryption path (software backend).
    fn encrypt_block_soft(&self, state: Block) -> Block {
        // Load the four columns as big-endian words (row 0 in the MSB; the
        // state is column-major, so column c is bytes 4c..4c+4).
        let mut w = [0u32; 4];
        for c in 0..4 {
            w[c] = u32::from_be_bytes(state[c * 4..c * 4 + 4].try_into().expect("4 bytes"))
                ^ self.ek[0][c];
        }
        for round in 1..10 {
            let rk = &self.ek[round];
            w = [
                round_col(&w, 0, rk[0]),
                round_col(&w, 1, rk[1]),
                round_col(&w, 2, rk[2]),
                round_col(&w, 3, rk[3]),
            ];
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let mut out = [0u8; 16];
        let rk = &self.ek[10];
        for c in 0..4 {
            let word = (u32::from(SBOX[(w[c] >> 24) as usize]) << 24)
                | (u32::from(SBOX[((w[(c + 1) & 3] >> 16) & 0xff) as usize]) << 16)
                | (u32::from(SBOX[((w[(c + 2) & 3] >> 8) & 0xff) as usize]) << 8)
                | u32::from(SBOX[(w[(c + 3) & 3] & 0xff) as usize]);
            out[c * 4..c * 4 + 4].copy_from_slice(&(word ^ rk[c]).to_be_bytes());
        }
        out
    }

    /// Encrypts every block in `blocks` in place.
    ///
    /// This is the bulk entry point behind GCM's CTR keystream: one call
    /// amortizes the per-call overhead across a chunk of counter blocks,
    /// and on the hardware backend runs the 8-block interleaved AES-NI
    /// pipeline (CTR counters are independent, so blocks need no
    /// chaining).
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        match self.backend {
            Backend::Soft => {
                for block in blocks.iter_mut() {
                    *block = self.encrypt_block_soft(*block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Backend::HwAesClmul => crate::aesni::encrypt_blocks(&self.round_keys, blocks),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::HwAesClmul => unreachable!("hw backend unavailable off x86_64"),
        }
    }
}

/// One middle-round output column: ShiftRows selects the source column for
/// each row (`c + r mod 4`), the T-tables apply SubBytes and the MixColumns
/// column for that row, and the round key is folded in.
#[inline]
fn round_col(w: &[u32; 4], c: usize, k: u32) -> u32 {
    T0[(w[c] >> 24) as usize]
        ^ T1[((w[(c + 1) & 3] >> 16) & 0xff) as usize]
        ^ T2[((w[(c + 2) & 3] >> 8) & 0xff) as usize]
        ^ T3[(w[(c + 3) & 3] & 0xff) as usize]
        ^ k
}

#[cfg(test)]
#[inline]
fn add_round_key(state: &mut Block, rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

#[cfg(test)]
#[inline]
fn sub_bytes(state: &mut Block) {
    for s in state.iter_mut() {
        *s = SBOX[*s as usize];
    }
}

/// State layout: column-major, state[c*4 + r] is row r, column c.
#[cfg(test)]
#[inline]
fn shift_rows(state: &mut Block) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[cfg(test)]
#[inline]
fn mix_columns(state: &mut Block) {
    for c in 0..4 {
        let col = [
            state[c * 4],
            state[c * 4 + 1],
            state[c * 4 + 2],
            state[c * 4 + 3],
        ];
        state[c * 4] = xtime(col[0]) ^ xtime(col[1]) ^ col[1] ^ col[2] ^ col[3];
        state[c * 4 + 1] = col[0] ^ xtime(col[1]) ^ xtime(col[2]) ^ col[2] ^ col[3];
        state[c * 4 + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ xtime(col[3]) ^ col[3];
        state[c * 4 + 3] = xtime(col[0]) ^ col[0] ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-wise FIPS-197 encryption (the pre-T-table implementation), kept
    /// as the reference oracle for the table path.
    fn encrypt_block_reference(aes: &Aes128, mut state: Block) -> Block {
        add_round_key(&mut state, &aes.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &aes.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &aes.round_keys[10]);
        state
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> Block {
        hex(s).try_into().unwrap()
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 2b7e151628aed2a6abf7158809cf4f3c,
        // plaintext 3243f6a8885a308d313198a2e0370734.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes128::new(&key);
        let ct = aes.encrypt_block(block("3243f6a8885a308d313198a2e0370734"));
        assert_eq!(ct, block("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...ff.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let aes = Aes128::new(&key);
        let ct = aes.encrypt_block(block("00112233445566778899aabbccddeeff"));
        assert_eq!(ct, block("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn nist_sp800_38a_ecb_vectors() {
        // SP 800-38A F.1.1 ECB-AES128.Encrypt, all four blocks.
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes128::new(&key);
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        for (pt, expected) in cases {
            assert_eq!(aes.encrypt_block(block(pt)), block(expected));
        }
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[0xAA; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains("170")); // 0xAA
        assert!(dbg.contains("Aes128"));
    }

    #[test]
    fn distinct_keys_give_distinct_ciphertexts() {
        let a = Aes128::new(&[0u8; 16]);
        let b = Aes128::new(&[1u8; 16]);
        assert_ne!(a.encrypt_block([0u8; 16]), b.encrypt_block([0u8; 16]));
    }

    #[test]
    fn encrypt_blocks_matches_single_block_calls() {
        let aes = Aes128::new(&[0x42; 16]);
        let mut blocks: Vec<Block> = (0..33u8).map(|i| [i; 16]).collect();
        let expected: Vec<Block> = blocks.iter().map(|&b| aes.encrypt_block(b)).collect();
        aes.encrypt_blocks(&mut blocks);
        assert_eq!(blocks, expected);
    }

    #[test]
    fn hw_key_schedule_matches_soft() {
        // `aeskeygenassist` and the FIPS-197 software expansion must
        // produce byte-identical schedules for the dispatch to be sound.
        if !Backend::HwAesClmul.is_available() {
            return;
        }
        for key in [[0u8; 16], [0xFF; 16], [0x2B; 16], {
            let mut k = [0u8; 16];
            for (i, b) in k.iter_mut().enumerate() {
                *b = i as u8;
            }
            k
        }] {
            let soft = Aes128::with_backend(&key, Backend::Soft);
            let hw = Aes128::with_backend(&key, Backend::HwAesClmul);
            assert_eq!(soft.round_keys, hw.round_keys, "key={key:02x?}");
            assert_eq!(soft.ek, hw.ek);
        }
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn encryption_is_a_permutation(key in proptest::array::uniform16(any::<u8>()),
                                           a in proptest::array::uniform16(any::<u8>()),
                                           b in proptest::array::uniform16(any::<u8>())) {
                prop_assume!(a != b);
                let aes = Aes128::new(&key);
                prop_assert_ne!(aes.encrypt_block(a), aes.encrypt_block(b));
            }

            #[test]
            fn t_table_matches_bytewise_reference(
                key in proptest::array::uniform16(any::<u8>()),
                pt in proptest::array::uniform16(any::<u8>())) {
                let aes = Aes128::new(&key);
                prop_assert_eq!(aes.encrypt_block(pt), encrypt_block_reference(&aes, pt));
            }
        }
    }
}
