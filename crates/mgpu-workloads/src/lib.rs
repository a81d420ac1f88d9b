//! Synthetic communication-pattern models of the paper's 17 GPU
//! benchmarks (Table IV).
//!
//! The paper traces real OpenCL binaries through MGPUSim; this
//! reproduction cannot, so each benchmark is modeled as a *stochastic
//! remote-request process* calibrated to the communication statistics the
//! paper reports: request intensity (the RPKI classes of Table IV),
//! burstiness (Figs. 15/16: most 16-block groups accumulate within 160
//! cycles), time-varying send/receive mix and destination locality
//! (Figs. 13/14), and the page-migration vs. direct-block-access split
//! (§II-A).
//!
//! Two generators are provided:
//!
//! * [`model::TrafficModel`] — the primary batch generator: emits each
//!   GPU's remote-request arrival process directly.
//! * [`arrivals::ServingModel`] — open-loop serving traffic: seeded
//!   Poisson/MMPP arrivals, Zipf-skewed destination mixes, and
//!   per-request SLO deadlines for tail-latency studies.
//!
//! # Examples
//!
//! ```
//! use mgpu_workloads::{Benchmark, TrafficModel};
//! use mgpu_types::NodeId;
//!
//! let model = TrafficModel::new(Benchmark::MatrixMultiplication, 4, 42);
//! let requests = model.generate_for(NodeId::gpu(1), 500);
//! assert_eq!(requests.len(), 500);
//! // Requests arrive in nondecreasing time order.
//! assert!(requests.windows(2).all(|w| w[0].available_at <= w[1].available_at));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod bench_params;
pub mod model;
pub mod request;
pub mod trace;

pub use arrivals::{ArrivalProcess, ServingModel};
pub use bench_params::{Benchmark, RpkiClass, WorkloadParams};
pub use model::TrafficModel;
pub use request::{AccessKind, Request};
pub use trace::Trace;
