//! Deterministic fault injection for the serving scheduler (behind the
//! `fault-inject` feature), mirroring `rpf_nn::fault`: tests *plan* faults
//! at exact request ids, and the production scheduler paths hit them for
//! real — a worker panic mid-batch, a queue mutex poisoned while held, a
//! shard worker killed. Faults that target a place name a shard index;
//! the flat `serve()` region is shard 0.
//! Plans are keyed by the admission id (assigned in submission order),
//! never by wall clock, so a fault fires at the same request on every run.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// A reproducible set of scheduler faults.
#[derive(Clone, Default)]
pub struct ServeFaultPlan {
    panic_requests: BTreeSet<u64>,
    /// `(admission id, hook)` — fire the hook once, from the worker thread,
    /// while the batch containing that admission sits between formation
    /// and its engine call.
    swap_hook: Option<(u64, Arc<dyn Fn() + Send + Sync>)>,
    /// `(shard, admission id)` — kill the worker on that shard when it is
    /// about to drain a batch containing that admission id (the entries
    /// stay queued; the supervisor fallback-drains them).
    kill_worker: Option<(usize, u64)>,
    /// Poison the mailbox mutex of this shard, once.
    poison_shard: Option<usize>,
    /// Panic the slot-swap at this shard index during a rolling hot-swap.
    rolling_panic_shard: Option<usize>,
}

impl std::fmt::Debug for ServeFaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeFaultPlan")
            .field("panic_requests", &self.panic_requests)
            .field("swap_at", &self.swap_hook.as_ref().map(|(id, _)| *id))
            .field("kill_worker", &self.kill_worker)
            .field("poison_shard", &self.poison_shard)
            .field("rolling_panic_shard", &self.rolling_panic_shard)
            .finish()
    }
}

impl ServeFaultPlan {
    pub fn new() -> ServeFaultPlan {
        ServeFaultPlan::default()
    }

    /// Panic the worker while it is forecasting admission id `id` — both
    /// in the batched attempt and in the one-at-a-time retry, so the
    /// request degrades to the flagged fallback.
    pub fn panic_on_request(mut self, id: u64) -> ServeFaultPlan {
        self.panic_requests.insert(id);
        self
    }

    /// Run `hook` from the worker thread serving admission id `id`, while
    /// that batch is mid-flight (formed, engine not yet called). The hook
    /// typically performs a model hot-swap — pair it with
    /// `ranknet_core::lifecycle::fault::arm_panic_next_swap` for the
    /// "panic mid-swap under traffic" matrix entries. Fires once. The hook
    /// runs *outside* the scheduler's panic containment: it must catch its
    /// own panics (`LifecycleController::rolling_swap` does).
    pub fn swap_on_request(
        mut self,
        id: u64,
        hook: impl Fn() + Send + Sync + 'static,
    ) -> ServeFaultPlan {
        self.swap_hook = Some((id, Arc::new(hook)));
        self
    }

    /// Kill the worker on `shard` (0 for the flat `serve()` region) as it
    /// is about to drain a batch holding admission id `id`: the worker dies
    /// with the entries still queued, so the shard's supervisor must
    /// fallback-drain the backlog and respawn. Fires once.
    pub fn kill_shard_worker(mut self, shard: usize, id: u64) -> ServeFaultPlan {
        self.kill_worker = Some((shard, id));
        self
    }

    /// Panic the next worker on `shard` (0 for the flat `serve()` region)
    /// that takes the mailbox lock, while it holds the guard — poisoning
    /// the mutex for everyone after it. Fires once.
    pub fn poison_shard_mailbox(mut self, shard: usize) -> ServeFaultPlan {
        self.poison_shard = Some(shard);
        self
    }

    /// Panic the per-shard slot swap at shard index `shard` during a
    /// rolling hot-swap (`LifecycleController::rolling_swap`), forcing the
    /// reverse-order unwind of the shards already swapped. Fires once.
    pub fn panic_on_rolling_shard(mut self, shard: usize) -> ServeFaultPlan {
        self.rolling_panic_shard = Some(shard);
        self
    }
}

static PLAN: Mutex<Option<ServeFaultPlan>> = Mutex::new(None);

fn plan_lock() -> std::sync::MutexGuard<'static, Option<ServeFaultPlan>> {
    // A test that panicked holding the lock must not poison every later
    // test: the plan is plain data, recover it.
    PLAN.lock().unwrap_or_else(|p| p.into_inner())
}

/// Install `plan` process-wide. Tests sharing a binary must serialize
/// around this global.
pub fn install(plan: ServeFaultPlan) {
    *plan_lock() = Some(plan);
}

/// Remove any installed plan; subsequent hooks are no-ops.
pub fn clear() {
    *plan_lock() = None;
}

/// Worker hook: panics if the plan targets admission id `id`. Called
/// inside the scheduler's `catch_unwind` region.
pub fn maybe_panic_request(id: u64) {
    let planned = plan_lock()
        .as_ref()
        .is_some_and(|p| p.panic_requests.contains(&id));
    if planned {
        panic!("injected fault: worker panic on request {id}");
    }
}

/// Batch hook: consumes and fires the planned swap hook if it targets
/// admission id `id`. Called per live batch entry, after batch formation
/// and before the engine attempt.
pub fn maybe_fire_swap(id: u64) {
    let hook = {
        let mut guard = plan_lock();
        match guard.as_mut() {
            Some(p) if p.swap_hook.as_ref().is_some_and(|(at, _)| *at == id) => {
                p.swap_hook.take().map(|(_, h)| h)
            }
            _ => None,
        }
    };
    if let Some(h) = hook {
        h();
    }
}

/// Queue hook: panics while the caller holds its mailbox guard, leaving
/// the mutex poisoned behind it, when the plan targets this worker's
/// shard. Consumes the fault.
pub fn maybe_poison_queue_lock(shard: usize) {
    let fire = {
        let mut guard = plan_lock();
        match guard.as_mut() {
            Some(p) if p.poison_shard == Some(shard) => {
                p.poison_shard = None;
                true
            }
            _ => false,
        }
    };
    if fire {
        panic!("injected fault: poisoning the queue mutex");
    }
}

/// Batch hook: does the plan kill the worker on `shard` for a batch that
/// would drain these admission ids? Consumes the fault on a match. Called
/// *before* the drain, so the targeted entries stay queued for the
/// supervisor's fallback drain.
pub fn should_kill_worker(shard: usize, ids: &[u64]) -> bool {
    let mut guard = plan_lock();
    match guard.as_mut() {
        Some(p)
            if p.kill_worker
                .is_some_and(|(s, id)| s == shard && ids.contains(&id)) =>
        {
            p.kill_worker = None;
            true
        }
        _ => false,
    }
}

/// Rolling-swap hook: panics if the plan targets shard index `shard` of a
/// rolling hot-swap. Consumes the fault. Called inside
/// `LifecycleController::rolling_swap`'s per-shard panic guard.
pub fn maybe_panic_rolling_shard(shard: usize) {
    let fire = {
        let mut guard = plan_lock();
        match guard.as_mut() {
            Some(p) if p.rolling_panic_shard == Some(shard) => {
                p.rolling_panic_shard = None;
                true
            }
            _ => false,
        }
    };
    if fire {
        panic!("injected fault: rolling swap panic at shard {shard}");
    }
}
