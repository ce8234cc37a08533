//! Per-shard supervision: watch the shard's workers, contain a death,
//! restart.
//!
//! Every shard worker runs under `catch_unwind` at the top of its thread
//! and reports its exit — clean or panicked — on the supervisor's exit
//! channel. The supervisor blocks on that channel rather than joining
//! handles, so one death is observed immediately even while sibling
//! workers are still serving. On a panicked exit it:
//!
//! 1. counts a `serve_shard_restarts`,
//! 2. fallback-drains the shard's backlog (every queued request answered
//!    with the CurRank fallback, flagged `ShardFailure` — accepted always
//!    implies answered),
//! 3. clears the shard's encoder cache (the dying worker may have been
//!    mid-insert; the cache is a pure memoization, so clearing is always
//!    safe and costs only recomputation),
//! 4. respawns one worker.
//!
//! Restart cannot change bits: the respawned worker runs the same
//! `worker_loop` over the same engine (never a replacement — shard 0's
//! stays the caller's), and the engine's draws key
//! on request identity alone. Only the requests queued at the instant of
//! death degrade (to flagged fallbacks); everything after the restart is
//! served normally, and other shards never notice.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::thread::Scope;

use crate::server::worker_loop;
use crate::shard::Shard;

/// Spawn one supervised worker for `shard` inside `s`; it reports its
/// exit on `exits`, `true` when it panicked.
fn spawn_worker<'scope>(
    s: &'scope Scope<'scope, '_>,
    shard: &'scope Shard<'_>,
    exits: Sender<bool>,
) {
    s.spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(shard)));
        // The supervisor outlives its workers, so the send cannot fail.
        let _ = exits.send(outcome.is_err());
    });
}

/// Run shard `shard` to completion inside scope `s`: spawn its workers,
/// then loop containing worker deaths (drain + restart) until every
/// worker has exited cleanly through the shutdown drain.
pub(crate) fn supervise<'scope>(s: &'scope Scope<'scope, '_>, shard: &'scope Shard<'_>) {
    let (exits, exited) = channel();
    let workers = shard.cfg.workers;
    for _ in 0..workers {
        spawn_worker(s, shard, exits.clone());
    }
    let mut alive = workers;
    // `exits` is held here, so `recv` blocks until a worker exits.
    while let Ok(panicked) = exited.recv() {
        if panicked {
            shard.metrics.record_shard_restart();
            shard.fallback_drain();
            shard.engine.clear_cache();
            spawn_worker(s, shard, exits.clone());
        } else {
            alive -= 1;
            if alive == 0 {
                return;
            }
        }
    }
}
