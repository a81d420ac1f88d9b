//! Runtime crypto-backend selection: hardware AES-NI/PCLMULQDQ vs the
//! portable software implementations.
//!
//! Every functional primitive in this crate — AES-128 block encryption
//! ([`crate::aes`], including the multi-block calls behind GCM's CTR
//! keystream), GHASH ([`crate::ghash`]) and the AES-GCM composition
//! ([`crate::gcm`]) —
//! dispatches through a [`Backend`] chosen here. The two backends are
//! bit-for-bit equivalent (property-tested against each other and against
//! the NIST vectors), so the choice only changes throughput:
//!
//! * [`Backend::Soft`] — the original T-table AES and Shoup-table GHASH.
//!   Portable, allocation-free, and retained as the correctness oracle for
//!   the hardware path.
//! * [`Backend::HwAesClmul`] — `x86_64` AES-NI (8-block interleaved
//!   pipeline, [`crate::aesni`]) and PCLMULQDQ GHASH (4-block aggregated
//!   reduction, [`crate::clmul`]). Constant-time by construction, unlike
//!   the cache-timing-leaky T-tables.
//!
//! # Selection
//!
//! The process-wide default is resolved once, on first use:
//!
//! 1. `MGPU_CRYPTO_BACKEND=soft` forces the software backend (CI uses this
//!    to A/B the two paths on one host). `auto` — or the variable unset —
//!    picks hardware when the CPU supports it. Anything else warns once to
//!    stderr and falls back to `auto`, matching the `MGPU_WORKERS`
//!    convention.
//! 2. On `x86_64`, hardware is used when the CPU advertises `aes`,
//!    `pclmulqdq` and `ssse3` (the byte-shuffle the GHASH path needs). On
//!    every other architecture the software backend is the only option.
//!
//! Crypto objects snapshot the default at construction
//! ([`crate::Aes128::new`], [`crate::ghash::GhashKey::new`], …), so a
//! long-lived key keeps its backend even if the default is later changed
//! with [`set_default_backend`] (a test/bench hook; production code never
//! calls it).

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Which implementation family executes the functional crypto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable software: T-table AES-128 + Shoup 8-bit-table GHASH.
    Soft,
    /// Hardware `x86_64`: AES-NI block pipeline + PCLMULQDQ GHASH.
    HwAesClmul,
}

impl Backend {
    /// Stable lowercase name, as recorded in `BENCH_repro.json`
    /// (`crypto_backend` field) and printed by benches.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Soft => "soft",
            Backend::HwAesClmul => "aesni_clmul",
        }
    }

    /// Whether this backend can run on the current CPU. [`Backend::Soft`]
    /// is always available; [`Backend::HwAesClmul`] requires runtime
    /// detection of the AES-NI and carry-less-multiply features.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            Backend::Soft => true,
            Backend::HwAesClmul => hw_available(),
        }
    }
}

impl core::fmt::Display for Backend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runtime check for the full hardware-backend feature set.
#[must_use]
fn hw_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The CPU features relevant to crypto dispatch that the host actually
/// advertises, in a stable order (recorded as `cpu_features` in
/// `BENCH_repro.json`). Empty on non-`x86_64` targets.
#[must_use]
pub fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        macro_rules! probe {
            ($($name:tt),*) => {
                $(if std::arch::is_x86_feature_detected!($name) {
                    feats.push($name);
                })*
            };
        }
        probe!(
            "aes",
            "pclmulqdq",
            "ssse3",
            "sse4.1",
            "avx2",
            "vaes",
            "vpclmulqdq",
            "avx512f"
        );
        feats
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Unresolved / resolved states of the process-wide default backend.
const UNRESOLVED: u8 = 0;
const SOFT: u8 = 1;
const HW: u8 = 2;

static DEFAULT: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// Parses `MGPU_CRYPTO_BACKEND`, warning once for unusable values.
///
/// Returns `Some(Backend::Soft)` for `soft`, `None` (= auto-detect) for
/// `auto`, unset, or anything unrecognized.
fn env_override() -> Option<Backend> {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let raw = std::env::var("MGPU_CRYPTO_BACKEND").ok()?;
    match raw.trim() {
        "soft" => Some(Backend::Soft),
        "auto" | "" => None,
        other => {
            if !WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: ignoring MGPU_CRYPTO_BACKEND={other:?}: \
                     expected \"auto\" or \"soft\""
                );
            }
            None
        }
    }
}

/// Resolves the startup default: the env override if forced to soft,
/// otherwise hardware when available.
fn resolve() -> Backend {
    match env_override() {
        Some(b) => b,
        None if hw_available() => Backend::HwAesClmul,
        None => Backend::Soft,
    }
}

/// The process-wide default backend, resolved once on first use from
/// `MGPU_CRYPTO_BACKEND` and CPU-feature detection.
#[must_use]
pub fn default_backend() -> Backend {
    match DEFAULT.load(Ordering::Acquire) {
        SOFT => Backend::Soft,
        HW => Backend::HwAesClmul,
        _ => {
            // Racing first uses both compute the same value, so a plain
            // store is fine; the explicit-set path below also wins cleanly.
            let resolved = resolve();
            let tag = match resolved {
                Backend::Soft => SOFT,
                Backend::HwAesClmul => HW,
            };
            DEFAULT.store(tag, Ordering::Release);
            resolved
        }
    }
}

/// Overrides the process-wide default backend.
///
/// This exists for tests and benches that A/B the two implementations in
/// one process (e.g. the golden-matrix soft/auto parity assert); normal
/// code relies on [`default_backend`]'s one-time resolution. Because the
/// two backends produce bit-identical output, flipping the default
/// mid-process never changes results — only which instructions compute
/// them. Objects constructed before the call keep their snapshot.
///
/// # Panics
///
/// Panics if `backend` is not available on this CPU.
pub fn set_default_backend(backend: Backend) {
    assert!(
        backend.is_available(),
        "backend {} is not available on this host",
        backend.name()
    );
    let tag = match backend {
        Backend::Soft => SOFT,
        Backend::HwAesClmul => HW,
    };
    DEFAULT.store(tag, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_is_always_available() {
        assert!(Backend::Soft.is_available());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Backend::Soft.name(), "soft");
        assert_eq!(Backend::HwAesClmul.name(), "aesni_clmul");
        assert_eq!(Backend::Soft.to_string(), "soft");
    }

    #[test]
    fn default_is_available_and_sticky() {
        let first = default_backend();
        assert!(first.is_available());
        assert_eq!(default_backend(), first);
    }

    #[test]
    fn hw_availability_implies_feature_list() {
        if Backend::HwAesClmul.is_available() {
            let feats = cpu_features();
            assert!(feats.contains(&"aes"));
            assert!(feats.contains(&"pclmulqdq"));
            assert!(feats.contains(&"ssse3"));
        }
    }

    #[test]
    #[cfg(not(target_arch = "x86_64"))]
    fn non_x86_has_no_hw_backend() {
        assert!(!Backend::HwAesClmul.is_available());
        assert!(cpu_features().is_empty());
    }
}
