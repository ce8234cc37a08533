//! One race shard: an actor serving on one engine — the caller's for
//! shard 0, a fork for every other shard — with that engine's model slot
//! and encoder cache, behind a bounded [`Mailbox`](crate::mailbox::Mailbox).
//!
//! A shard *is* the scheduler scoped to a subset of the key space: its
//! [`Shared`] state runs `worker_loop`, and its admission is the
//! all-or-nothing mailbox. No two shards share an engine, a cache, a
//! metrics registry or a queue, so a shard can die, be drained and be
//! restarted without the others noticing. The supervisor watches the
//! shard's [`Monitor`](crate::supervisor::Monitor) for worker deaths. The
//! flat `serve()` region is a single shard.

use crate::config::ServeConfig;
use crate::lifecycle::LifecycleController;
use crate::mailbox::Entry;
use crate::server::{deliver_fallback, FallbackReason, Shared};
use crate::supervisor::Monitor;
use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::RaceContext;

/// One shard's state: the serving region plus its supervisor's monitor.
/// The shard's index lives in `shared.shard`.
pub(crate) struct Shard<'a> {
    pub(crate) shared: Shared<'a>,
    pub(crate) monitor: Monitor,
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
            shared: Shared::new(engine, contexts, cfg, lifecycle, id),
            monitor: Monitor::new(),
        }
    }

    /// Containment drain after a worker death: answer every queued entry
    /// with the CurRank fallback, flagged [`FallbackReason::ShardFailure`].
    /// Accepted always implies answered, even across a shard crash.
    pub(crate) fn fallback_drain(&self) {
        let backlog: Vec<Entry> = self.shared.mailbox.drain_all();
        for e in backlog {
            deliver_fallback(&self.shared, e, FallbackReason::ShardFailure, 1);
        }
    }
}
