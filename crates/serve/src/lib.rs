//! **tempus-serve**: an async streaming ingestion service over the
//! Tempus Core runtime, with a content-addressed result cache and
//! per-class latency SLOs.
//!
//! The batched engine (`tempus-runtime`) accepts whole batches and
//! blocks until every job drains. Production edge-DLA serving looks
//! nothing like that: requests arrive continuously and bursty, the
//! same weights (and often inputs) recur request after request — the
//! tubGEMM/tuGEMM workload shape — and a slow cycle-accurate
//! simulation must never starve the fast path. This crate supplies
//! that serving layer:
//!
//! * [`queue`] — the **bounded ingestion queue**: blocking
//!   ([`StreamingService::submit`]) or refusing
//!   ([`StreamingService::try_submit`]) under load, never unbounded;
//! * [`class`] — job classification: fidelity (fast-functional vs
//!   cycle-accurate) × payload kind (conv / GEMM / network);
//! * [`service`] — the dispatcher: micro-batches queued requests onto
//!   the runtime's resident [`tempus_runtime::WorkerPool`], with
//!   **admission control** capping in-flight cycle-accurate jobs (the
//!   overflow defers into a bounded side queue, then rejects);
//! * [`cache`] — the **content-addressed result cache**: a bounded
//!   LRU keyed on `(Job::content_key(), backend)` — a word-wise hash
//!   of inputs, weights and parameters (output digests stay FNV-1a) —
//!   replaying repeated computations bit-identically without touching
//!   a core;
//! * [`stats`] — per-class p50/p95/p99 latency percentiles, SLO
//!   compliance, queue-depth and cache counters in one
//!   [`ServeStats`] snapshot.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use tempus_serve::{Request, ServeConfig, StreamingService};
//! use tempus_models::traffic::{generate, TraceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = StreamingService::start(ServeConfig::new().with_workers(2))?;
//! let trace = generate(&TraceConfig::new(42).with_requests(20));
//! for t in &trace {
//!     service.submit(Request::from_trace(t))?;   // blocks when saturated
//! }
//! let mut done = 0;
//! while done < trace.len() {
//!     if let Some(r) = service.recv_response(Duration::from_secs(10)) {
//!         assert!(r.result().is_some() || !matches!(r.outcome,
//!             tempus_serve::ResponseOutcome::Done(_)));
//!         done += 1;
//!     }
//! }
//! let (stats, _) = service.shutdown();
//! assert_eq!(stats.completed + stats.rejected + stats.failed, 20);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod class;
pub mod queue;
pub mod request;
pub mod service;
pub mod stats;

pub use cache::{CacheEntry, ResultCache, ResultCacheStats};
pub use class::{Fidelity, JobClass, PayloadKind};
pub use queue::{BoundedQueue, PopResult, PushError};
pub use request::{
    CacheOutcome, RejectReason, Request, Response, ResponseOutcome, ServedResult, SubmitError,
};
pub use service::{ServeConfig, StreamingService};
pub use stats::{percentile, ArrayUse, ClassStats, ServeStats, SloPolicy};
pub use tempus_chaos::{FaultKind, FaultPlan};
pub use tempus_fleet::{ElasticPolicy, FleetSummary};
pub use tempus_runtime::GovernorPolicy;
