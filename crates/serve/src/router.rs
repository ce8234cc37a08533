//! The front router and the serving region: hash `(race, origin)` keys to
//! race shards, and run the one region every entry point
//! ([`crate::serve`], [`crate::serve_with_lifecycle`], [`serve_sharded`])
//! goes through. The flat `serve()` region is the one-shard layout.
//!
//! # Determinism contract for a fixed layout
//!
//! For a fixed `(shard_count, layout)` every response is bit-identical to
//! a direct engine call: [`shard_of`] is a pure FNV-1a hash of the request
//! key, shard 0 serves on the caller's engine and every other shard on a
//! [`ForecastEngine::fork`] carrying the live seed/thread/cache sizing,
//! and the engine keys every draw on `(seed, race, origin)` — so *where*
//! a request is served is invisible in *what* it answers. Changing the
//! shard count re-partitions the key space (and re-numbers per-shard
//! admission ids) but still cannot change forecast bits.
//!
//! # Backpressure and failure
//!
//! Each shard's mailbox is bounded at `cfg.queue_capacity`; overflow on
//! the target shard surfaces as [`SubmitError::QueueFull`] — a hot shard
//! rejects while cold shards keep admitting. A shard whose worker dies is
//! contained by its supervisor (backlog answered as flagged CurRank
//! fallbacks, worker respawned) while every other shard serves
//! bit-identically (`supervisor.rs`).

use crate::config::{ServeConfig, ShardTopology};
use crate::lifecycle::LifecycleController;
use crate::loadgen::Submitter;
use crate::mailbox::Pending;
use crate::metrics::ShardedSnapshot;
use crate::server::{ServeRequest, ServeResult, SubmitError};
use crate::shard::Shard;
use crate::supervisor::supervise;
use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::RaceContext;
use ranknet_core::lifecycle::ModelSlot;
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Route a `(race, origin)` key to a shard: FNV-1a over the key's bytes,
/// reduced mod `shards`. Pure and stable — the layout for a fixed shard
/// count never changes across runs or machines.
pub fn shard_of(race: usize, origin: usize, shards: usize) -> usize {
    let shards = shards.max(1);
    let mut h = FNV_OFFSET;
    for b in (race as u64)
        .to_le_bytes()
        .into_iter()
        .chain((origin as u64).to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % shards as u64) as usize
}

/// Submission handle passed to a serving region's body; `Copy`, so it can
/// be handed to any number of client threads inside the scope. Every
/// submission is routed to its shard's mailbox by [`shard_of`].
#[derive(Clone, Copy)]
pub struct ServeClient<'s, 'a> {
    shards: &'s [Shard<'a>],
}

impl<'s, 'a> ServeClient<'s, 'a> {
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard [`ServeClient::submit`] would route `req` to.
    pub fn shard_of(&self, req: &ServeRequest) -> usize {
        shard_of(req.race, req.origin, self.shards.len())
    }

    /// Submit without blocking on the forecast. Admission is all-or-nothing,
    /// per shard: `Ok` means the request is queued on its shard and will be
    /// answered; `QueueFull` means *that shard* is at capacity.
    pub fn submit(&self, req: ServeRequest) -> Result<Pending, SubmitError> {
        let shard = &self.shards[self.shard_of(&req)];
        shard.mailbox.submit(req, &shard.metrics)
    }

    /// Submit and block until the response arrives.
    pub fn forecast(&self, req: ServeRequest) -> Result<ServeResult, SubmitError> {
        self.submit(req).map(Pending::wait)
    }

    /// Every shard's model slot, in shard order — the handles a rolling
    /// hot-swap walks (`LifecycleController::rolling_swap`). Shard 0's slot
    /// is the caller's engine's slot.
    pub fn slots(&self) -> Vec<Arc<ModelSlot>> {
        self.shards
            .iter()
            .map(|s| Arc::clone(s.engine.slot()))
            .collect()
    }
}

impl Submitter for ServeClient<'_, '_> {
    type Pending = Pending;

    fn submit(&self, req: ServeRequest) -> Result<Pending, SubmitError> {
        ServeClient::submit(self, req)
    }

    fn wait(pending: Pending) -> Result<ServeResult, SubmitError> {
        Ok(pending.wait())
    }
}

/// Run a race-sharded serving region: shard 0 serves on `engine`, every
/// other shard on its own fork. Spawns each shard's supervisor (which
/// spawns and watches the shard's workers), hands the body a routing
/// [`ServeClient`], and on return closes every mailbox, drains, joins,
/// and reports per-shard metrics. Responses are bit-identical to
/// [`crate::serve`] for any shard count.
pub fn serve_sharded<R>(
    engine: &ForecastEngine,
    contexts: &[&RaceContext],
    cfg: &ServeConfig,
    topo: ShardTopology,
    body: impl FnOnce(ServeClient<'_, '_>) -> R,
) -> (R, ShardedSnapshot) {
    region(engine, contexts, cfg, topo, None, body)
}

/// The serving region behind every entry point. `lifecycle`, when given,
/// is attached to shard 0 — the shard serving on the caller's `engine`,
/// whose slot its promotions swap. A panicking body closes admission too,
/// so the panic reaches the caller once the workers have drained.
pub(crate) fn region<R>(
    engine: &ForecastEngine,
    contexts: &[&RaceContext],
    cfg: &ServeConfig,
    topo: ShardTopology,
    lifecycle: Option<&LifecycleController>,
    body: impl FnOnce(ServeClient<'_, '_>) -> R,
) -> (R, ShardedSnapshot) {
    let cfg = cfg.normalized();
    let topo = topo.normalized();
    let forks: Vec<ForecastEngine> = (1..topo.shards).map(|_| engine.fork()).collect();
    let shards: Vec<Shard<'_>> = std::iter::once(engine)
        .chain(&forks)
        .enumerate()
        .map(|(i, eng)| Shard::new(i, eng, contexts, cfg, lifecycle.filter(|_| i == 0)))
        .collect();

    let out = std::thread::scope(|s| {
        for shard in &shards {
            s.spawn(|| supervise(s, shard));
        }
        let closers: Vec<_> = shards
            .iter()
            .map(|shard| shard.mailbox.close_on_drop())
            .collect();
        let out = body(ServeClient { shards: &shards });
        drop(closers);
        out
    });
    for shard in &shards {
        match shard.lifecycle {
            Some(lc) => lc.flush_into(&shard.metrics, shard.engine),
            None => shard
                .metrics
                .set_model_version(shard.engine.model_version()),
        }
    }
    (
        out,
        ShardedSnapshot {
            per_shard: shards.iter().map(|s| s.metrics.snapshot()).collect(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for race in 0..4 {
                for origin in 0..64 {
                    let s = shard_of(race, origin, shards);
                    assert!(s < shards);
                    assert_eq!(s, shard_of(race, origin, shards), "pure function");
                }
            }
        }
        // One shard degenerates to the flat layout.
        assert_eq!(shard_of(3, 99, 1), 0);
        assert_eq!(shard_of(3, 99, 0), 0, "zero shards clamps to one");
    }

    #[test]
    fn shard_of_spreads_a_multi_race_mix() {
        // 4 races × 64 origins over 4 shards: no shard may be empty —
        // the scaling bench depends on the hash actually spreading load.
        let mut counts = [0usize; 4];
        for race in 0..4 {
            for origin in 0..64 {
                counts[shard_of(race, origin, 4)] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c > 0), "empty shard: {counts:?}");
    }
}
