//! Crash-recoverable simulation-as-a-service machinery.
//!
//! TrioSim's sweeps are long-running batch jobs; this crate turns them
//! into a *service* without surrendering any of the workspace's
//! determinism guarantees. It is deliberately simulator-agnostic — the
//! execution engine arrives through the [`JobRunner`] trait (the
//! `triosim` crate implements it over its sweep runner; tests implement
//! it with stubs) — so the crate's whole subject matter is robustness:
//!
//! * **Durable jobs** ([`job`]): content-addressed job directories whose
//!   file layout *is* the state machine, written with the atomic
//!   tmp + fsync + rename protocol. A SIGKILL at any instant leaves a
//!   store the next start recovers byte-exactly.
//! * **Admission control** ([`queue`]): a bounded queue that sheds load
//!   with `429 Retry-After` instead of queueing unboundedly.
//! * **Deterministic retries** ([`retry`]): exponential backoff with
//!   *seeded* jitter — the same seed and job always yield the same
//!   schedule — and a dead-letter record when the budget is exhausted.
//! * **A defensive HTTP/1.1 layer** ([`http`]): hand-rolled because the
//!   workspace is vendored-only; hard caps on head and body size,
//!   deadline-based slow-loris ejection, and a parser that returns
//!   typed errors on arbitrary garbage (fuzzed in `tests/hardening.rs`).
//! * **The daemon** ([`server`]): accept loop, router, workers, health
//!   (`/healthz`) and readiness (`/readyz`) surfaces, Prometheus
//!   counters at `/metrics`, and SIGTERM-friendly graceful drain via
//!   [`Server::drain`].
//!
//! See `DESIGN.md` §15 for the full service contract.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// This crate faces the network and other people's bytes: production
// code degrades through typed errors, never unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod client;
pub mod http;
pub mod job;
pub mod queue;
pub mod retry;
pub mod server;

pub use client::{parse_response, request, HttpResponse};
pub use http::{parse_head, read_request, HttpError, Request, Response};
pub use job::{job_id, JobPaths, JobRunner, JobState, JobStore, RunError};
pub use queue::{Admission, JobQueue};
pub use retry::RetryPolicy;
pub use server::{Counters, Server, ServerConfig, MAX_WAIT_MS};
