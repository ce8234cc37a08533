//! One race shard: an actor owning a forked engine, its model slot and
//! encoder cache, behind a bounded [`Mailbox`](crate::mailbox::Mailbox).
//!
//! A shard *is* the flat scheduler scoped to a subset of the key space:
//! its [`Shared`] region is the same struct `serve` builds, its workers
//! run the same `worker_loop`, and its admission is the same all-or-
//! nothing mailbox. What sharding adds is ownership — no two shards share
//! an engine, a cache, a metrics registry or a queue, so a shard can die,
//! be drained and be restarted without the others noticing — plus a
//! [`Monitor`](crate::supervisor::Monitor) the supervisor watches for
//! worker deaths.

use crate::config::ServeConfig;
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
    /// Build shard `id` over its own forked `engine`. The fork carries the
    /// live seed, thread count and cache capacity, so the shard's
    /// answers are bit-identical to the flat region's (the determinism
    /// contract: draws key on request identity, never on placement).
    pub(crate) fn new(
        id: usize,
        engine: &'a ForecastEngine,
        contexts: &'a [&'a RaceContext],
        cfg: ServeConfig,
    ) -> Shard<'a> {
        Shard {
            shared: Shared::new(engine, contexts, cfg, None, Some(id)),
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
