//! From-scratch cryptographic primitives and engine timing model for the
//! secure multi-GPU communication stack.
//!
//! The paper protects every CPU–GPU and GPU–GPU message with counter-mode
//! authenticated encryption performed by "fully pipelined AES-GCM engines"
//! with a 40-cycle latency. This crate provides both halves of that model:
//!
//! * **Functional crypto** — a complete software implementation of AES-128
//!   encryption ([`aes`]), GHASH over GF(2^128) ([`ghash`]), and the
//!   in-place AES-GCM authenticated-encryption composition ([`gcm`]), whose
//!   CTR keystream under a [`pad::PadSeed`] nonce *is* the one-time pad of
//!   the paper. This is used by the functional secure channel in
//!   `mgpu-secure` so the protocol is exercised with real bits, not
//!   placeholders.
//! * **Timing model** — [`engine::AesEngine`], a pipelined engine that
//!   tracks *when* a requested pad becomes ready (1 issue/cycle, fixed
//!   latency), which is what the discrete-event simulation consumes.
//!
//! The functional primitives dispatch through a runtime-selected
//! [`backend::Backend`]: portable software (T-table AES, Shoup-table
//! GHASH) everywhere, and on `x86_64` CPUs with the `aes`/`pclmulqdq`
//! features, hardware AES-NI ([`aesni`]) and carry-less-multiply GHASH
//! ([`clmul`]) — bit-for-bit equivalent, several times faster, and
//! constant-time. `MGPU_CRYPTO_BACKEND=soft` forces the software path.
//!
//! # Safety
//!
//! The only `unsafe` in this crate is the `x86_64` intrinsics code in
//! [`aesni`] and [`clmul`], each use fenced behind runtime CPU-feature
//! detection and documented with a `// SAFETY:` contract at the use site
//! (`unsafe_op_in_unsafe_fn` is denied, and CI lints that every unsafe
//! block carries its comment).
//!
//! # Examples
//!
//! ```
//! use mgpu_crypto::gcm::AesGcm;
//!
//! let key = [0x42u8; 16];
//! let gcm = AesGcm::new(&key);
//! let nonce = [7u8; 12];
//! let plaintext = *b"secret cacheline contents";
//!
//! let mut buf = plaintext;
//! let tag = gcm.seal_in_place(&nonce, b"header", &mut buf);
//! assert_ne!(buf, plaintext);
//! gcm.open_in_place(&nonce, b"header", &mut buf, &tag).expect("authentic");
//! assert_eq!(buf, plaintext);
//! ```

// `unsafe` is denied crate-wide and re-allowed only inside the two
// hardware-intrinsics modules, which carry the safety contract.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod aesni;
pub mod backend;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod clmul;
pub mod engine;
pub mod gcm;
pub mod ghash;
pub mod pad;

pub use aes::Aes128;
pub use backend::Backend;
pub use engine::AesEngine;
pub use gcm::AesGcm;
pub use pad::PadSeed;
