//! # gcln-serve — the HTTP batch inference service
//!
//! A hand-rolled HTTP/1.1 front end (no async runtime exists in the
//! offline vendor set) over the `gcln-sched` stage-graph scheduler:
//! admitted submissions are decomposed into stage tasks and interleaved
//! across one shared worker pool (training one job while checking
//! another), and results — learned invariants plus the full structured
//! [`gcln_engine::Event`] stream — are served back as JSON and
//! journaled to disk for restart replay.
//!
//! ## API
//!
//! | Route | Semantics |
//! |---|---|
//! | `POST /jobs` | Submit a `.loop` source (`{"source": …}` plus optional `name`, `fast`, `deadline_secs`, `step_budget`, `max_degree`). `202` with a job id, `503` + `Retry-After` when the queue is full, `429` + `Retry-After` past the per-client rate limit. |
//! | `GET /jobs/{id}` | Status, learned invariants, and the accumulated event stream. |
//! | `DELETE /jobs/{id}` | Trip the job's [`gcln_engine::CancelToken`]; the partial outcome (events intact) stays queryable. |
//! | `GET /healthz` | Liveness. |
//! | `GET /stats` | Queue depth, scheduler utilization, spec/trace cache hit rates, journal state. |
//! | `GET /metrics` | Prometheus text: stage latency histograms, queue wait, worker utilization, cache hit ratios. |
//! | `POST /shutdown` | Graceful stop: running jobs are cancelled, journaled, and every thread joins. |
//!
//! Full request/response schemas are documented in the repository
//! README ("The HTTP service").
//!
//! ## Layers
//!
//! - [`json`] — strict RFC 8259 value parser/renderer (request bodies,
//!   journal replay — which also reads each member's source text, to
//!   serve a replayed record byte for byte — and the test oracle for
//!   the engine's hand-rolled event serializer).
//! - [`http`] — incremental request reader and response writer; every
//!   malformed input maps to a 4xx/5xx error value, never a panic.
//! - [`cache`] — the spec cache: content-hashed memoization of
//!   [`gcln_engine::ProblemSpec::from_source_str`]. (The Trace-stage
//!   cache lives engine-side in [`gcln_engine::cache`]; the server
//!   wires one into its shared engine.)
//! - [`journal`] — crash-safe persistence: length+CRC framed records
//!   (admissions and completions), recovery that truncates corrupt
//!   tails, and size-triggered compaction for long-lived servers.
//! - [`limiter`] — the per-client token-bucket rate limiter; remaining
//!   allowance doubles as scheduler priority.
//! - [`metrics`] — Prometheus text rendering of the scheduler snapshot.
//! - [`server`] — admission, scheduler wiring, routing, replay. One
//!   job record: a submission is parsed by one parser, whether it
//!   arrives as a `POST /jobs` body or as a journaled admit record, and
//!   an outcome's result members are rendered once, by
//!   [`gcln_engine::events::result_members`], and kept as that text.
//! - [`client`] — a minimal blocking client for tests and scripts.
//!
//! ## Determinism
//!
//! The engine's guarantee (outcomes are bit-identical at any worker or
//! thread count) extends through the service: submitting the same
//! source twice — concurrently, across cache hits, or across a server
//! restart — yields identical invariants and identical event streams
//! modulo the wall-clock `ms` timing fields.
//!
//! ## Failure model
//!
//! Admission is durable: when a journal is configured, `POST /jobs`
//! appends an `{"type":"admitted"}` record — the submitted members plus
//! `type`, `id` and `priority` — *before* answering `202` (a failed
//! append rolls the admission back as a `503`). A restarted server
//! replays completed results and **resubmits** every admitted job that
//! never journaled a completion — inference is deterministic, so the
//! recomputed result is the one the client would have read. An admit
//! record that `POST /jobs` would reject is skipped, not resubmitted. A
//! panicking stage task fails only its own job (`stopped:
//! "task_panicked"` after bounded retries), repeated panics on the same
//! spec hash trip a circuit breaker (`stopped: "quarantined"`), and
//! fixed 10 s socket timeouts bound how long a slowloris peer can hold
//! a connection (`408`). The whole surface is exercised by deterministic
//! fault injection ([`Faults`]) — see `scripts/chaos_smoke.sh`.

pub mod cache;
pub mod client;
pub mod http;
pub mod journal;
pub mod json;
pub mod limiter;
pub mod metrics;
pub mod server;

pub use cache::SpecCache;
pub use gcln_faults::Faults;
pub use http::{HttpError, Limits, Request, Response};
pub use journal::{FsyncPolicy, Journal};
pub use json::{Json, JsonError};
pub use limiter::{RateLimit, RateLimiter};
pub use server::{start, ServeConfig, ServerHandle};
