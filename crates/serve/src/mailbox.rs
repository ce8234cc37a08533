//! The bounded mailbox: a shard's scheduler core behind a mutex and a
//! condvar on the wall clock, plus the one-shot response slots.
//!
//! Every race shard owns one: a shard actor is a [`Mailbox`] plus worker
//! threads plus a supervisor, and the flat `serve()` region is the
//! one-shard case. Admission, batching and deadlines are the
//! [`Scheduler`]'s, the same code the virtual-clock replay runs.
//! Admission is all-or-nothing — a submission either enters the queue
//! (and will be answered, because workers drain on shutdown and
//! supervisors fallback-drain on failure) or is refused with a typed
//! [`SubmitError`] before any state changes.
//!
//! Queue state is plain data with no invariants a panicking holder could
//! break mid-update, so every lock here recovers a poisoned guard
//! (`into_inner`) instead of propagating — one crashed worker must not
//! wedge admission for the region.

use crate::config::ServeConfig;
use crate::metrics::ServeMetrics;
use crate::scheduler::{Entry, Scheduler};
use crate::server::{ServeRequest, ServeResult, SubmitError};
use rpf_obs::{Clock, WallClock};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// One-shot response slot a worker fills and a caller waits on.
pub(crate) struct Slot {
    state: Mutex<Option<ServeResult>>,
    ready: Condvar,
}

impl Slot {
    pub(crate) fn deliver(&self, result: ServeResult) {
        let mut guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
        *guard = Some(result);
        self.ready.notify_all();
    }
}

/// Handle to a submitted request; [`Pending::wait`] blocks until the
/// scheduler answers (workers drain the queue on shutdown and supervisors
/// fallback-drain on shard failure, so an accepted request is always
/// answered).
pub struct Pending {
    id: u64,
    slot: Arc<Slot>,
}

impl Pending {
    /// Admission id — unique within its shard, assigned in submission
    /// order.
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn wait(self) -> ServeResult {
        let mut guard = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self
                .slot
                .ready
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// A queued admission on the threaded path: its answer goes to a slot.
pub(crate) type Queued = Entry<Arc<Slot>>;

/// Bounded MPSC admission queue for one race shard, with the clock every
/// admission, dispatch and response is stamped on. Capacity overflow maps
/// to [`SubmitError::QueueFull`] — the shard-level backpressure signal.
pub(crate) struct Mailbox {
    core: Mutex<Scheduler<Arc<Slot>>>,
    pub(crate) wakeup: Condvar,
    pub(crate) clock: WallClock,
}

/// Closes its mailbox on drop; see [`Mailbox::close_on_drop`].
pub(crate) struct CloseOnDrop<'a>(&'a Mailbox);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Mailbox {
    pub(crate) fn new(cfg: ServeConfig) -> Mailbox {
        Mailbox {
            core: Mutex::new(Scheduler::new(cfg)),
            wakeup: Condvar::new(),
            clock: WallClock::new(),
        }
    }

    /// Queue state is plain data; recover a poisoned guard instead of
    /// propagating — one crashed lock-holder must not wedge the region.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Scheduler<Arc<Slot>>> {
        self.core.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admit `req` through the core (stamped under the lock, so queue
    /// order is stamp order) and wake one worker. All-or-nothing — `Err`
    /// means the request never entered the queue.
    pub(crate) fn submit(
        &self,
        req: ServeRequest,
        metrics: &ServeMetrics,
    ) -> Result<Pending, SubmitError> {
        let slot = Arc::new(Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        });
        let id = self
            .lock()
            .admit(req, Arc::clone(&slot), self.clock.now_ns(), metrics)?;
        self.wakeup.notify_one();
        Ok(Pending { id, slot })
    }

    /// Close admission and wake every worker for the shutdown drain.
    pub(crate) fn close(&self) {
        self.lock().close();
        self.wakeup.notify_all();
    }

    /// A guard that closes this mailbox when dropped — on the normal and
    /// the unwinding exit path out of a serving region's body. Without it,
    /// a panicking body would skip the close and the region's
    /// `thread::scope` would join workers still waiting for work, turning
    /// the panic into a deadlock.
    pub(crate) fn close_on_drop(&self) -> CloseOnDrop<'_> {
        CloseOnDrop(self)
    }
}
