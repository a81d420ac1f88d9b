//! Full-system composition: the secure multi-GPU timing simulation.
//!
//! This crate wires the substrates together into the system the paper
//! evaluates: workload-generated remote requests flow through interconnect
//! links ([`mgpu_sim`]), are serviced from HBM at the owning node, pass
//! through each node's **secure NIC** — the AES-GCM engine, the configured
//! OTP buffer scheme and (optionally) the metadata batcher
//! ([`mgpu_secure`]) — and produce the execution-time, traffic and OTP
//! hit-rate metrics that the experiments crate turns into the paper's
//! tables and figures.
//!
//! # Examples
//!
//! ```
//! use mgpu_system::Simulation;
//! use mgpu_types::{OtpSchemeKind, SystemConfig};
//! use mgpu_workloads::Benchmark;
//!
//! let mut cfg = SystemConfig::paper_4gpu();
//! cfg.security.scheme = OtpSchemeKind::Unsecure;
//! let baseline = Simulation::new(cfg.clone(), Benchmark::Atax, 1).run_for_requests(500);
//!
//! cfg.security.scheme = OtpSchemeKind::Private;
//! let secure = Simulation::new(cfg, Benchmark::Atax, 1).run_for_requests(500);
//! assert!(secure.total_cycles >= baseline.total_cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod harness;
pub mod metrics;
pub mod nic_pool;
pub mod node;
pub mod observer;
pub mod pacing;
pub mod runner;
pub mod simulation;
pub mod timeseries;

pub use flow::{CreditGate, CreditPool, Reject, WakeupLadder};
pub use harness::WireHarness;
pub use metrics::{LatencyReport, RunReport};
pub use observer::{
    circular_error, close_phase, FeatureSet, FeatureVector, NearestCentroid, PassiveObserver,
    PhaseEstimate,
};
pub use simulation::Simulation;
pub use timeseries::{
    FabricSample, IntervalSample, TimeSeriesCollector, Timeline, TimelineSummary, TraceEvent,
    TraceRecord,
};
