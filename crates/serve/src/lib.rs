//! `oftec-serve` — a batching, caching cooling-control service.
//!
//! The deployment story of the paper's controller: expose the OFTEC
//! pipeline (steady solves, Algorithm 1 optimization, sweeps) as a
//! long-running std-only TCP service speaking newline-delimited JSON,
//! with the properties a control plane actually needs:
//!
//! - **Typed protocol** ([`protocol`]): every malformed line, unknown
//!   benchmark, or pipeline failure is a machine-readable error response
//!   on the same connection — never a dropped socket, never a panic.
//! - **Micro-batching** ([`queue`], [`engine`]): solve requests already
//!   queued when the dispatcher wakes are dispatched as one batch (up to
//!   [`queue::BATCH_MAX`]) on the `oftec-parallel` scoped-thread
//!   executor, with per-request panic isolation.
//! - **Quantized result cache** ([`cache`]): operating points rounded to
//!   a configurable grid, exact LRU eviction, hit/miss/eviction counters
//!   on the telemetry registry. Hits replay byte-identical payloads on
//!   the connection thread, bypassing the queue entirely.
//! - **Admission control** ([`server`], [`queue`]): a bounded queue with
//!   explicit `overloaded` rejections, deadline-aware admission (jobs
//!   predicted to miss are shed up front, expired jobs are purged from
//!   the queue instead of occupying capacity), per-request deadlines
//!   enforced at dequeue and at solver-iteration granularity, and
//!   graceful drain on shutdown (stop accepting, answer in-flight, flush
//!   telemetry JSON).
//! - **Sharded connection plane** ([`server`]): a bounded pool of shard
//!   workers multiplexes all connections over nonblocking sockets with
//!   reusable per-connection buffers — thread count is fixed by
//!   configuration, not by client count.
//!
//! The companion binary `oftec-cli` lives in this crate; its `serve`
//! subcommand runs the service. Load is measured by the standalone
//! `perfbench` package (its `serve` workload), not from this crate.

pub mod cache;
pub mod engine;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod trace;

pub use cache::{CacheConfig, CacheKey, QuantizedCache};
pub use engine::{reference_payload, Engine, FaultPlan};
pub use protocol::{error_cause, ErrBody, Request, SolveKind, SolveSpec};
pub use server::{ServeConfig, Server, ServerHandle};
pub use trace::{TraceContext, OUTCOME_NAMES, STAGE_NAMES};
