//! `smat-service` — tuning-as-a-service for the SMAT reproduction.
//!
//! SMAT (PLDI'13) frames auto-tuning as an online, input-adaptive
//! decision per matrix; this crate puts that decision behind a
//! long-lived daemon speaking line-delimited JSON over TCP or a
//! Unix-domain socket. The serving layer adds what a shared tuner
//! needs and the engine alone cannot provide:
//!
//! - **Admission control**: a gate that lets `workers` requests tune
//!   at once and `queue_capacity` wait in arrival order, shedding the
//!   rest with an explicit retry-after instead of buffering without
//!   bound, and per-tenant token-bucket budgets over a bounded map.
//! - **One thread per request**: the connection thread that read a
//!   frame parses, admits, tunes, multiplies and answers it; nothing
//!   is handed to a pool and no reply waits on another thread.
//! - **Deadlines**: per-request deadlines propagated into the
//!   engine's own cooperative measurement deadlines via
//!   [`smat::Smat::prepare_with_deadline`], so a hurried request can
//!   never be held hostage by tuning.
//! - **Coalescing**: identical structural fingerprints from different
//!   clients collapse onto one tuning run through the engine's
//!   single-flight `prepare`.
//! - **Degradation**: when the line at the gate is long, requests are
//!   answered immediately through the reference serial CSR path and
//!   counted as degraded — correct now beats tuned late. A quarantined
//!   kernel is the engine's to route around, not a reason to degrade.
//! - **Warm handles**: a successful tune/spmv response carries a
//!   `handle` (structural fingerprint + server generation); follow-up
//!   requests that send the handle instead of triplets skip parsing,
//!   conversion, and prepare entirely and replay the server-resident
//!   prepared matrix from per-connection preallocated buffers.
//!   Unknown or evicted handles answer `handle_miss` so clients fall
//!   back to the triplet path deterministically.
//! - **One engine**: every request is served by the caller's
//!   [`smat::Smat`] and one handle registry, so a quarantine reaches
//!   the engine's install artifact, a faulting variant is benched for
//!   every matrix at once, and `cache_capacity`, `handle_capacity` and
//!   `handle_budget_bytes` bound the daemon, not a fraction of it.
//! - **Graceful drain**: shutdown refuses new connections, answers
//!   in-flight work, persists the tuning-cache snapshot, and exits
//!   cleanly.
//!
//! The wire protocol lives in [`proto`]; the serving loop in
//! [`server`]; the policies in [`admission`] and [`config`]; the
//! counters in [`metrics`].

#![warn(missing_docs)]

pub mod admission;
pub mod config;
pub mod metrics;
pub mod proto;
pub mod server;

pub use config::{ServeConfig, READ_TIMEOUT, SHED_RETRY_AFTER};
pub use metrics::ServiceMetrics;
pub use proto::{MatrixSource, Request, Response, Status, WireHandle, WorkOp, WorkRequest};
pub use server::{DrainSummary, Server, ServerHandle};
