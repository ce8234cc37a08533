//! # rpf-serve — concurrent request-batching serving for RankNet
//!
//! A multi-threaded serving front-end over
//! [`ranknet_core::engine::ForecastEngine`] (DESIGN.md §11). Many small
//! `(race, origin)` forecast queries arrive concurrently; this layer turns
//! them into few large engine calls without changing a single output bit:
//!
//! * **Bounded admission** — a full submission queue rejects with a typed
//!   [`SubmitError::QueueFull`] instead of blocking or growing without
//!   bound.
//! * **Dynamic micro-batching** — workers coalesce up to
//!   [`ServeConfig::max_batch`] queued requests, holding an under-full
//!   batch open at most [`ServeConfig::max_delay`]; identical requests in
//!   a batch share one model run (the engine's coalescing batch-entry
//!   API).
//! * **Deadlines** — a request whose deadline has passed when its batch
//!   forms degrades to the CurRank persistence fallback, flagged, instead
//!   of blocking its caller.
//! * **Determinism** — every response is bit-identical to a direct
//!   `try_forecast_keyed` call, regardless of batch placement, worker
//!   count, or arrival order; the engine keys its RNG streams on request
//!   identity, and the scheduler never re-keys anything.
//! * **One scheduler core** — admission, the batching decision, batch
//!   formation and the deadline split live in one single-threaded type
//!   that takes every instant as an argument; each shard's threads hold
//!   it behind their mailbox lock on the wall clock.
//! * **Verification harness** — deterministic load generation
//!   ([`loadgen`]), a virtual-clock [`replay`] that drives the same
//!   scheduler core for golden metrics, and (behind `fault-inject`)
//!   planned scheduler faults ([`fault`]).
//! * **One region, race-sharded** — every entry point runs the same
//!   region (DESIGN.md §15): a set of shards, each an actor with its own
//!   engine, model slot and encoder cache behind a bounded mailbox and a
//!   supervisor, fronted by a router ([`shard_of`]) that hashes
//!   `(race, origin)` keys to shards. Shard 0 serves on the caller's
//!   engine and the others on forks; [`serve`] is the one-shard case of
//!   [`serve_sharded`]. For any layout every response stays bit-identical
//!   to a direct call; a failed shard degrades to flagged CurRank
//!   fallbacks and restarts while the others serve untouched.
//!
//! ```no_run
//! use rpf_serve::{serve, ServeConfig, ServeRequest};
//! # fn demo(engine: &ranknet_core::ForecastEngine,
//! #         ctx: &ranknet_core::RaceContext) {
//! let cfg = ServeConfig::default();
//! let (_, metrics) = serve(engine, &[ctx], &cfg, |client| {
//!     let resp = client.forecast(ServeRequest::new(0, 90, 2, 100));
//!     // ... fan client out to as many threads as you like ...
//! });
//! println!("{}", metrics.render());
//! # }
//! ```

pub mod config;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod lifecycle;
pub mod loadgen;
pub(crate) mod mailbox;
pub mod metrics;
pub mod replay;
pub mod router;
pub(crate) mod scheduler;
pub mod server;
pub(crate) mod shard;
pub(crate) mod supervisor;

pub use config::{ServeConfig, ShardTopology};
pub use lifecycle::{CandidateDecision, LifecycleConfig, LifecycleController};
pub use loadgen::{MultiRaceMix, Submitter};
pub use mailbox::Pending;
pub use metrics::{
    MetricsSnapshot, ShardedSnapshot, BATCH_EDGES, DIVERGENCE_EDGES_MILLI, LATENCY_EDGES_NS,
};
pub use replay::{
    replay, replay_sharded, replay_with_events, ReplayEvent, ServiceModel, ShardedReplay,
};
pub use router::{serve_sharded, shard_of, ServeClient};
pub use server::{
    serve, serve_with_lifecycle, FallbackReason, ServeError, ServeRequest, ServeResponse,
    ServeResult, SubmitError,
};
