//! Shared identifiers, units, and configuration types for the secure
//! multi-GPU simulation workspace.
//!
//! This crate is the dependency root of the workspace: every other crate
//! (crypto, simulator, workloads, secure-communication core, system
//! composition, experiments) builds on the newtypes and configuration
//! structures defined here.
//!
//! # Examples
//!
//! ```
//! use mgpu_types::{NodeId, SystemConfig};
//!
//! let cfg = SystemConfig::paper_4gpu();
//! assert_eq!(cfg.gpu_count, 4);
//! assert_eq!(cfg.node_count(), 5); // CPU + 4 GPUs
//! assert!(NodeId::CPU.is_cpu());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dense;
pub mod error;
pub mod ids;
pub mod units;

pub use config::{
    AdversaryConfig, BatchingConfig, DefenseConfig, DynamicConfig, ObservabilityConfig,
    OtpSchemeKind, SecurityConfig, SystemConfig, TopologyKind,
};
pub use dense::{DenseNodeMap, PairTable};
pub use error::{ConfigError, MgpuError};
pub use ids::{Direction, NodeId, PairId};
pub use units::{ByteSize, Cycle, Duration};
