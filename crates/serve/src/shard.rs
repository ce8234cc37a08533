//! One race shard: an actor serving on one engine — the caller's for
//! shard 0, a fork for every other shard — with that engine's model slot
//! and encoder cache, behind a bounded [`Mailbox`].
//!
//! A shard *is* the scheduler scoped to a subset of the key space: its
//! workers run `worker_loop` (`server.rs`) over its mailbox, and its
//! supervisor watches them for deaths (`supervisor.rs`). No two shards share an engine, a cache, a metrics
//! registry or a queue, so a shard can die, be drained and be restarted
//! without the others noticing. The flat `serve()` region is a single
//! shard.

use crate::config::ServeConfig;
use crate::lifecycle::LifecycleController;
use crate::mailbox::Mailbox;
use crate::metrics::ServeMetrics;
use crate::server::{deliver_fallback, FallbackReason};
use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::RaceContext;

/// One shard's state, shared by its workers, its supervisor and the
/// router.
pub(crate) struct Shard<'a> {
    pub(crate) engine: &'a ForecastEngine,
    pub(crate) contexts: &'a [&'a RaceContext],
    pub(crate) cfg: ServeConfig,
    pub(crate) mailbox: Mailbox,
    pub(crate) metrics: ServeMetrics,
    /// Shadow-evaluation / hot-swap controller, when serving under
    /// [`crate::serve_with_lifecycle`] (attached to shard 0 only).
    pub(crate) lifecycle: Option<&'a LifecycleController>,
    /// Shard index. Used only for fault targeting — never for scheduling
    /// decisions, which is what keeps placement invisible in the output
    /// bits.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    pub(crate) id: usize,
}

impl<'a> Shard<'a> {
    /// Build shard `id` over `engine`: the caller's engine for shard 0, a
    /// fork for the rest. A fork carries the live seed, thread count and
    /// cache capacity, so every shard's answers are bit-identical to a
    /// direct call (the determinism contract: draws key on request
    /// identity, never on placement).
    pub(crate) fn new(
        id: usize,
        engine: &'a ForecastEngine,
        contexts: &'a [&'a RaceContext],
        cfg: ServeConfig,
        lifecycle: Option<&'a LifecycleController>,
    ) -> Shard<'a> {
        Shard {
            engine,
            contexts,
            cfg,
            mailbox: Mailbox::new(cfg),
            metrics: ServeMetrics::new(),
            lifecycle,
            id,
        }
    }

    /// Containment drain after a worker death: take every queued entry
    /// at once and answer it with the CurRank fallback, flagged
    /// [`FallbackReason::ShardFailure`]. Accepted always implies answered,
    /// even across a shard crash.
    pub(crate) fn fallback_drain(&self) {
        let backlog = self.mailbox.lock().drain_all();
        for e in backlog {
            deliver_fallback(self, e, FallbackReason::ShardFailure, 1);
        }
    }
}
