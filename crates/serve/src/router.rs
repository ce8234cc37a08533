//! The front router: hash `(race, origin)` keys to race shards and run a
//! sharded serving region.
//!
//! # Determinism contract for a fixed layout
//!
//! For a fixed `(shard_count, layout)` every response is bit-identical to
//! the unsharded path: [`shard_of`] is a pure FNV-1a hash of the request
//! key, each shard serves a [`ForecastEngine::fork`] carrying the live
//! seed/thread/cache sizing, and the engine keys every draw on
//! `(seed, race, origin)` — so *where* a request is served is invisible
//! in *what* it answers. Changing the shard count re-partitions the key
//! space (and re-numbers per-shard admission ids) but still cannot change
//! forecast bits.
//!
//! # Backpressure and failure
//!
//! Each shard's mailbox is bounded at `cfg.queue_capacity`; overflow on
//! the target shard surfaces as the same [`SubmitError::QueueFull`] the
//! flat scheduler returns — a hot shard rejects while cold shards keep
//! admitting. A shard whose worker dies is contained by its supervisor
//! (backlog answered as flagged CurRank fallbacks, worker respawned)
//! while every other shard serves bit-identically (`supervisor.rs`).

use crate::config::{ServeConfig, ShardTopology};
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

/// Submission handle over a sharded region; `Copy`, like
/// [`ServeClient`](crate::ServeClient).
#[derive(Clone, Copy)]
pub struct ShardedClient<'s, 'a> {
    shards: &'s [Shard<'a>],
}

impl<'s, 'a> ShardedClient<'s, 'a> {
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard [`ShardedClient::submit`] would route `req` to.
    pub fn shard_of(&self, req: &ServeRequest) -> usize {
        shard_of(req.race, req.origin, self.shards.len())
    }

    /// Route to the target shard's mailbox. All-or-nothing, per shard:
    /// `QueueFull` means *that shard* is at capacity.
    pub fn submit(&self, req: ServeRequest) -> Result<Pending, SubmitError> {
        let shard = &self.shards[self.shard_of(&req)];
        shard.shared.mailbox.submit(req, &shard.shared.metrics)
    }

    /// Submit and block until the response arrives.
    pub fn forecast(&self, req: ServeRequest) -> Result<ServeResult, SubmitError> {
        self.submit(req).map(Pending::wait)
    }

    /// Live per-shard counter snapshots.
    pub fn metrics(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            per_shard: self
                .shards
                .iter()
                .map(|s| s.shared.metrics.snapshot())
                .collect(),
        }
    }

    /// Current submission-queue depth of shard `i`.
    pub fn shard_queue_depth(&self, i: usize) -> usize {
        self.shards[i].shared.mailbox.depth()
    }

    /// Every shard's model slot, in shard order — the handles a rolling
    /// hot-swap walks (`LifecycleController::rolling_swap`).
    pub fn slots(&self) -> Vec<Arc<ModelSlot>> {
        self.shards
            .iter()
            .map(|s| Arc::clone(s.shared.engine.slot()))
            .collect()
    }
}

impl Submitter for ShardedClient<'_, '_> {
    type Pending = Pending;

    fn submit(&self, req: ServeRequest) -> Result<Pending, SubmitError> {
        ShardedClient::submit(self, req)
    }

    fn wait(pending: Pending) -> Result<ServeResult, SubmitError> {
        Ok(pending.wait())
    }
}

/// Run a race-sharded serving region: fork `engine` once per shard, spawn
/// each shard's supervisor (which spawns and watches the shard's
/// workers), hand the body a routing [`ShardedClient`], and on return
/// close every mailbox, drain, join, and report per-shard metrics.
///
/// `topo.shards == 1` is the flat scheduler with one level of supervision
/// added; responses are bit-identical to [`crate::serve`] either way.
pub fn serve_sharded<R>(
    engine: &ForecastEngine,
    contexts: &[&RaceContext],
    cfg: &ServeConfig,
    topo: ShardTopology,
    body: impl FnOnce(ShardedClient<'_, '_>) -> R,
) -> (R, ShardedSnapshot) {
    let cfg = cfg.normalized();
    let topo = topo.normalized();
    let engines: Vec<ForecastEngine> = (0..topo.shards).map(|_| engine.fork()).collect();
    let shards: Vec<Shard<'_>> = engines
        .iter()
        .enumerate()
        .map(|(i, eng)| Shard::new(i, eng, contexts, cfg))
        .collect();

    let out = std::thread::scope(|s| {
        for shard in &shards {
            s.spawn(|| supervise(s, shard));
        }
        let closers: Vec<_> = shards
            .iter()
            .map(|shard| shard.shared.mailbox.close_on_drop())
            .collect();
        let out = body(ShardedClient { shards: &shards });
        drop(closers);
        out
    });
    for shard in &shards {
        shard
            .shared
            .metrics
            .set_model_version(shard.shared.engine.model_version());
    }
    (
        out,
        ShardedSnapshot {
            per_shard: shards.iter().map(|s| s.shared.metrics.snapshot()).collect(),
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
