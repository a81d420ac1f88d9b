//! Discrete-event multi-GPU simulator substrate.
//!
//! The paper evaluates on MGPUSim, a cycle-level multi-GPU simulator. This
//! crate provides the equivalent substrate for this reproduction: a
//! deterministic discrete-event engine ([`events`]) plus the structural
//! components the communication study needs — traffic classes and wire
//! parts ([`link`]), the port model: a bandwidth-serialized
//! [`TimedServer`] ([`timeq`]), static route computation over configurable
//! fabric shapes ([`routing`]), the CPU-hub + routed-GPU-fabric
//! [`Topology`] that moves blocks hop by hop ([`topology`]), set-associative
//! write-back caches ([`cache`]), a fixed-latency HBM model ([`dram`]), an
//! access-counter page-migration policy ([`page`]) and percentile helpers
//! ([`stats`]).
//!
//! The detailed shader pipelines of a real GPU are intentionally abstracted
//! away: what the paper measures — OTP buffer behaviour and security-
//! metadata bandwidth — depends on the *request arrival process* at the
//! communication layer, which `mgpu-workloads` models directly.
//!
//! # Examples
//!
//! ```
//! use mgpu_sim::events::EventQueue;
//! use mgpu_types::Cycle;
//!
//! let mut q = EventQueue::new();
//! q.schedule(Cycle::new(10), "b");
//! q.schedule(Cycle::new(5), "a");
//! assert_eq!(q.pop(), Some((Cycle::new(5), "a")));
//! assert_eq!(q.pop(), Some((Cycle::new(10), "b")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod events;
pub mod link;
pub mod page;
pub mod routing;
pub mod stats;
pub mod timeq;
pub mod topology;

pub use cache::{Cache, CacheConfig};
pub use events::EventQueue;
pub use routing::{RoutingTable, Waypoint};
pub use timeq::TimedServer;
pub use topology::Topology;
