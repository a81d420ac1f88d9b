//! Secure inter-processor communication for multi-GPU systems — the core
//! contribution of the reproduced paper.
//!
//! GPUs in a unified-memory multi-GPU system exchange cacheline-granularity
//! data over physically attackable interconnects. Every message is protected
//! by counter-mode authenticated encryption whose one-time pads (OTPs) can
//! be *pre-generated* if the communicating pair's message counter is
//! predictable. This crate implements:
//!
//! * the **wire protocol**'s message and metadata sizes ([`protocol`]),
//! * the **OTP buffer machinery** — pad windows, hit/partial/miss
//!   classification and statistics ([`otp`]),
//! * the three **prior schemes** revisited from CPU multiprocessors —
//!   [`schemes::PrivateScheme`], [`schemes::SharedScheme`],
//!   [`schemes::CachedScheme`] — and the paper's proposed
//!   [`schemes::DynamicScheme`] driven by EWMA traffic monitoring
//!   ([`ewma`]),
//! * **security-metadata batching** with lazy, out-of-order-tolerant
//!   verification ([`batching`]),
//! * **replay protection** ([`replay`]), and
//! * a fully **functional secure channel** ([`channel`]) that runs the
//!   whole protocol over real AES-GCM bits, used to validate correctness
//!   independent of the timing simulation.
//!
//! # Examples
//!
//! Classify pad availability under the `Private` scheme:
//!
//! ```
//! use mgpu_secure::schemes::{OtpScheme, PrivateScheme};
//! use mgpu_crypto::AesEngine;
//! use mgpu_types::{Cycle, Duration, NodeId, SystemConfig};
//!
//! let cfg = SystemConfig::paper_4gpu();
//! let mut engine = AesEngine::new(cfg.security.aes_latency);
//! let me = NodeId::gpu(1);
//! let mut scheme = PrivateScheme::new(me, &cfg, &mut engine);
//!
//! // Long after boot, pads are ready: the first send is a hit.
//! let out = scheme.on_send(Cycle::new(10_000), NodeId::gpu(2), &mut engine);
//! assert!(out.timing.latency_hidden());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod batching;
pub mod channel;
pub mod ewma;
pub mod key_exchange;
pub mod otp;
pub mod protocol;
pub mod replay;
pub mod schemes;

pub use otp::{OtpStats, PadClass};
pub use protocol::WireFormat;
pub use schemes::{build_scheme, OtpScheme, SchemeTelemetry, SendOutcome};
