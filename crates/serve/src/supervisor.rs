//! Per-shard supervision: watch the shard's workers, contain a death,
//! restart.
//!
//! Every shard worker runs under `catch_unwind` at the top of its thread
//! and reports its exit — clean or panicked — to the shard's [`Monitor`].
//! The supervisor blocks on that exit queue rather than joining handles,
//! so one death is observed immediately even while sibling workers are
//! still serving. On a panicked exit it:
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

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread::Scope;

use crate::server::worker_loop;
use crate::shard::Shard;

/// Worker-exit event queue: workers push, the supervisor pops.
pub(crate) struct Monitor {
    /// Exit events, `true` = the worker panicked.
    exits: Mutex<VecDeque<bool>>,
    arrived: Condvar,
}

impl Monitor {
    pub(crate) fn new() -> Monitor {
        Monitor {
            exits: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
        }
    }

    fn notify_exit(&self, panicked: bool) {
        self.exits
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_back(panicked);
        self.arrived.notify_one();
    }

    /// Block until some worker exits; returns whether it panicked.
    fn wait_exit(&self) -> bool {
        let mut q = self.exits.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(panicked) = q.pop_front() {
                return panicked;
            }
            q = self.arrived.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Spawn one supervised worker for `shard` inside `s`.
fn spawn_worker<'scope>(s: &'scope Scope<'scope, '_>, shard: &'scope Shard<'_>) {
    s.spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(&shard.shared)));
        shard.monitor.notify_exit(outcome.is_err());
    });
}

/// Run shard `shard` to completion inside scope `s`: spawn its workers,
/// then loop containing worker deaths (drain + restart) until every
/// worker has exited cleanly through the shutdown drain.
pub(crate) fn supervise<'scope>(s: &'scope Scope<'scope, '_>, shard: &'scope Shard<'_>) {
    let workers = shard.shared.cfg.workers;
    for _ in 0..workers {
        spawn_worker(s, shard);
    }
    let mut alive = workers;
    loop {
        let panicked = shard.monitor.wait_exit();
        if panicked {
            shard.shared.metrics.record_shard_restart();
            shard.fallback_drain();
            shard.shared.engine.clear_cache();
            spawn_worker(s, shard);
        } else {
            alive -= 1;
            if alive == 0 {
                return;
            }
        }
    }
}
