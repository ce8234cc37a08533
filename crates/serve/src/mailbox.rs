//! The bounded mailbox: admission queue + one-shot response slots.
//!
//! Extracted from the flat scheduler so the unsharded serving region and
//! every race shard run the *same* admission code: a shard actor is a
//! [`Mailbox`] plus worker threads plus a supervisor, and the flat region
//! is the one-mailbox special case. Admission is all-or-nothing — a
//! submission either enters the queue (and will be answered, because
//! workers drain on shutdown and supervisors fallback-drain on failure)
//! or is refused with a typed [`SubmitError`] before any state changes.
//!
//! Queue state is plain data with no invariants a panicking holder could
//! break mid-update, so every lock here recovers a poisoned guard
//! (`into_inner`) instead of propagating — one crashed worker must not
//! wedge admission for the region.

use crate::metrics::ServeMetrics;
use crate::server::{ServeRequest, ServeResult, SubmitError};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

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
    /// Admission id — unique within its region (per shard, under sharded
    /// serving), assigned in submission order.
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

/// A queued admission.
pub(crate) struct Entry {
    pub(crate) id: u64,
    pub(crate) req: ServeRequest,
    pub(crate) enqueued: Instant,
    pub(crate) slot: Arc<Slot>,
}

pub(crate) struct MailboxState {
    pub(crate) entries: VecDeque<Entry>,
    pub(crate) shutdown: bool,
    next_id: u64,
}

/// Bounded MPSC admission queue for one serving region (the flat region
/// or one race shard). Capacity overflow maps to
/// [`SubmitError::QueueFull`] — the shard-level backpressure signal.
pub(crate) struct Mailbox {
    state: Mutex<MailboxState>,
    pub(crate) wakeup: Condvar,
    capacity: usize,
}

/// Closes its mailbox on drop; see [`Mailbox::close_on_drop`].
pub(crate) struct CloseOnDrop<'a>(&'a Mailbox);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Mailbox {
    pub(crate) fn new(capacity: usize) -> Mailbox {
        Mailbox {
            state: Mutex::new(MailboxState {
                entries: VecDeque::new(),
                shutdown: false,
                next_id: 0,
            }),
            wakeup: Condvar::new(),
            capacity,
        }
    }

    /// Queue state is plain data; recover a poisoned guard instead of
    /// propagating — one crashed lock-holder must not wedge the region.
    pub(crate) fn lock(&self) -> MutexGuard<'_, MailboxState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Full admission: record the attempt, enforce shutdown and capacity,
    /// enqueue, wake one worker. All-or-nothing — `Err` means the request
    /// never entered the queue.
    pub(crate) fn submit(
        &self,
        req: ServeRequest,
        metrics: &ServeMetrics,
    ) -> Result<Pending, SubmitError> {
        metrics.record_submitted();
        let mut q = self.lock();
        if q.shutdown {
            metrics.record_rejected_shutdown();
            return Err(SubmitError::ShuttingDown);
        }
        if q.entries.len() >= self.capacity {
            metrics.record_rejected_full();
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        q.next_id += 1;
        let id = q.next_id;
        let slot = Arc::new(Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        });
        q.entries.push_back(Entry {
            id,
            req,
            enqueued: Instant::now(),
            slot: Arc::clone(&slot),
        });
        metrics.record_accepted(q.entries.len() as u64);
        drop(q);
        self.wakeup.notify_one();
        Ok(Pending { id, slot })
    }

    /// Close admission and wake every worker for the shutdown drain.
    pub(crate) fn close(&self) {
        self.lock().shutdown = true;
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

    /// Requests admitted and not yet picked up by a worker.
    pub(crate) fn depth(&self) -> usize {
        self.lock().entries.len()
    }

    /// Take every queued entry at once — the supervisor's containment
    /// drain when a shard worker dies with a backlog behind it.
    pub(crate) fn drain_all(&self) -> Vec<Entry> {
        self.lock().entries.drain(..).collect()
    }
}
