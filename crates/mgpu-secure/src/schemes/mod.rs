//! OTP buffer management schemes.
//!
//! All four schemes expose the same interface ([`OtpScheme`]) to the
//! system model: classify the pad availability for each outgoing
//! (`on_send`) and incoming (`on_recv`) protected block, and perform any
//! periodic maintenance (`advance` — used by the paper's `Dynamic` scheme
//! for its monitoring/adjustment intervals).
//!
//! | Scheme | Buffering policy | Origin |
//! |---|---|---|
//! | [`PrivateScheme`] | fixed per pair-direction windows | Rogers et al. (prior work) |
//! | [`SharedScheme`]  | one shared send counter per node | Rogers et al. (prior work) |
//! | [`CachedScheme`]  | LRU pool over pair-directions | Rogers et al. (prior work) |
//! | [`DynamicScheme`] | EWMA-repartitioned windows | **this paper** |

mod cached;
mod dynamic;
mod private;
mod shared;

pub use cached::CachedScheme;
pub use dynamic::DynamicScheme;
pub use private::PrivateScheme;
pub use shared::SharedScheme;

use crate::otp::OtpStats;
use mgpu_crypto::engine::{AesEngine, PadTiming};
use mgpu_types::{Cycle, NodeId, OtpSchemeKind, SystemConfig};
use std::collections::BTreeMap;

/// Interval-resolved internals of an adaptive scheme, exposed for
/// observability sampling.
///
/// Only schemes with time-varying allocation state report telemetry; the
/// static schemes return `None` from [`OtpScheme::telemetry`]. Reading
/// telemetry must never mutate scheme state — collectors may sample at any
/// cadence without perturbing timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeTelemetry {
    /// Send-direction EWMA weight `S_i` (Formula 1).
    pub send_weight: f64,
    /// Completed re-allocation phases since construction.
    pub rebalances: u64,
    /// Current per-peer send-window depths (pads).
    pub send_depths: BTreeMap<NodeId, u32>,
    /// Current per-peer recv-window depths (pads).
    pub recv_depths: BTreeMap<NodeId, u32>,
}

/// Result of preparing an outgoing protected block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// Pad availability classification for the encryption + MAC pads.
    pub timing: PadTiming,
    /// The `MsgCTR` value used for this message (travels on the wire and
    /// selects the receiver's pad).
    pub counter: u64,
}

/// Common interface of every OTP buffer management scheme.
///
/// One instance lives in each node's secure NIC. The system model calls
/// `on_send` when the node encrypts a block for `peer`, and `on_recv` when
/// a block from `peer` arrives carrying counter `ctr`.
///
/// `Send` is a supertrait so a NIC, and the boxed scheme inside it, can
/// move between threads. Every scheme is plain owned data, so this costs
/// implementations nothing.
pub trait OtpScheme: Send {
    /// Which scheme this is.
    fn kind(&self) -> OtpSchemeKind;

    /// Classifies pad availability for an outgoing block to `peer` at time
    /// `now`, consuming the pad and returning the message counter used.
    fn on_send(&mut self, now: Cycle, peer: NodeId, engine: &mut AesEngine) -> SendOutcome;

    /// Classifies pad availability for an incoming block from `peer`
    /// carrying message counter `ctr`.
    fn on_recv(&mut self, now: Cycle, peer: NodeId, ctr: u64, engine: &mut AesEngine) -> PadTiming;

    /// Periodic maintenance hook; called by the system model as simulated
    /// time advances. Only `Dynamic` uses it (interval monitoring and
    /// buffer re-allocation).
    fn advance(&mut self, _now: Cycle, _engine: &mut AesEngine) {}

    /// Accumulated hit/partial/miss statistics.
    fn stats(&self) -> &OtpStats;

    /// Interval-resolved internals for observability sampling; `None` for
    /// schemes without adaptive allocation state. Must not mutate state.
    fn telemetry(&self) -> Option<SchemeTelemetry> {
        None
    }
}

/// Builds the scheme configured in `config` for node `me`.
///
/// # Panics
///
/// Panics if `config.security.scheme` is [`OtpSchemeKind::Unsecure`]: an
/// unsecure node has no OTP scheme (the system model bypasses the secure
/// NIC entirely).
///
/// # Examples
///
/// ```
/// use mgpu_secure::schemes::build_scheme;
/// use mgpu_crypto::AesEngine;
/// use mgpu_types::{NodeId, OtpSchemeKind, SystemConfig};
///
/// let mut cfg = SystemConfig::paper_4gpu();
/// cfg.security.scheme = OtpSchemeKind::Cached;
/// let mut engine = AesEngine::new(cfg.security.aes_latency);
/// let scheme = build_scheme(NodeId::gpu(1), &cfg, &mut engine);
/// assert_eq!(scheme.kind(), OtpSchemeKind::Cached);
/// ```
#[must_use]
pub fn build_scheme(
    me: NodeId,
    config: &SystemConfig,
    engine: &mut AesEngine,
) -> Box<dyn OtpScheme> {
    match config.security.scheme {
        OtpSchemeKind::Private => Box::new(PrivateScheme::new(me, config, engine)),
        OtpSchemeKind::Shared => Box::new(SharedScheme::new(me, config, engine)),
        OtpSchemeKind::Cached => Box::new(CachedScheme::new(me, config, engine)),
        OtpSchemeKind::Dynamic => Box::new(DynamicScheme::new(me, config, engine)),
        OtpSchemeKind::Unsecure => {
            panic!("unsecure systems have no OTP scheme; bypass the secure NIC")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_every_secure_scheme() {
        for kind in [
            OtpSchemeKind::Private,
            OtpSchemeKind::Shared,
            OtpSchemeKind::Cached,
            OtpSchemeKind::Dynamic,
        ] {
            let mut cfg = SystemConfig::paper_4gpu();
            cfg.security.scheme = kind;
            let mut engine = AesEngine::new(cfg.security.aes_latency);
            let scheme = build_scheme(NodeId::gpu(1), &cfg, &mut engine);
            assert_eq!(scheme.kind(), kind);
        }
    }

    #[test]
    #[should_panic(expected = "unsecure")]
    fn unsecure_panics() {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.scheme = OtpSchemeKind::Unsecure;
        let mut engine = AesEngine::new(cfg.security.aes_latency);
        let _ = build_scheme(NodeId::gpu(1), &cfg, &mut engine);
    }

    /// Cross-scheme contract: a message sent by one node's scheme must be
    /// receivable by the peer's scheme with the carried counter, and both
    /// sides' counters must advance in lockstep.
    #[test]
    fn counters_stay_in_sync_across_paired_schemes() {
        for kind in [OtpSchemeKind::Private, OtpSchemeKind::Dynamic] {
            let mut cfg = SystemConfig::paper_4gpu();
            cfg.security.scheme = kind;
            let a = NodeId::gpu(1);
            let b = NodeId::gpu(2);
            let mut engine_a = AesEngine::new(cfg.security.aes_latency);
            let mut engine_b = AesEngine::new(cfg.security.aes_latency);
            let mut sa = build_scheme(a, &cfg, &mut engine_a);
            let mut sb = build_scheme(b, &cfg, &mut engine_b);
            for i in 0..50u64 {
                let now = Cycle::new(1_000 + i * 97);
                let out = sa.on_send(now, b, &mut engine_a);
                assert_eq!(out.counter, i, "{kind}: sender counter");
                // Receiver accepts the carried counter without a resync
                // miss after warmup (spaced requests -> hits).
                let timing = sb.on_recv(now, a, out.counter, &mut engine_b);
                if i > 0 {
                    assert!(timing.latency_hidden(), "{kind}: recv at i={i}");
                }
            }
        }
    }
}
