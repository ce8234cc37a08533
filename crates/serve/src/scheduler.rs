//! The scheduler core: one single-threaded state machine that owns a
//! shard's FIFO and admission ids, admission (shutdown and capacity
//! checks, the submitted / accepted / rejected tallies), the dispatch
//! decision, batch formation (the batch tally and the split into expired
//! and live entries at the instant the batch forms), the shutdown close
//! and the supervisor's drain. Response delivery, the engine call, the
//! CurRank fallbacks and the fault-inject hooks stay outside it.
//!
//! The core never reads a clock: it takes `now_ns`, entries carry the
//! `enqueued_ns` they were admitted at, and every wait or latency is
//! `now_ns − enqueued_ns` ([`Entry::waited_ns`]). The threaded shard
//! (`mailbox.rs`) holds it behind the mailbox mutex on the wall clock; the
//! replay (`replay.rs`) drives the same type on virtual instants, so the
//! replay golden pins the code that serves.

use crate::config::ServeConfig;
use crate::metrics::ServeMetrics;
use crate::server::{ServeRequest, SubmitError};
use std::collections::VecDeque;
use std::time::Duration;

/// What a worker should do next with the queue it sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Nothing queued and admission open: sleep until a submission.
    Idle,
    /// Nothing queued and admission closed: the drain is complete.
    Shutdown,
    /// Form a batch of this many of the oldest entries now.
    Dispatch(usize),
    /// Hold the under-full batch open this much longer for company.
    Wait(Duration),
}

/// An admitted request. `payload` is where its answer goes: an
/// `Arc<Slot>` on the threaded path, `()` in the replay.
pub(crate) struct Entry<T> {
    /// Admission id: unique within its shard, assigned in admission order.
    pub(crate) id: u64,
    pub(crate) req: ServeRequest,
    pub(crate) enqueued_ns: u64,
    pub(crate) payload: T,
}

impl<T> Entry<T> {
    /// Time since admission at `now_ns`.
    pub(crate) fn waited_ns(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.enqueued_ns)
    }
}

/// A batch as it formed. `expired` entries had outlived their deadline at
/// the dispatch instant and answer with the fallback; `live` entries go to
/// the engine. Both keep admission order.
pub(crate) struct Batch<T> {
    pub(crate) expired: Vec<Entry<T>>,
    pub(crate) live: Vec<Entry<T>>,
}

/// One shard's queue and scheduling policy, generic over where an
/// entry's answer goes; see the module docs.
pub(crate) struct Scheduler<T> {
    cfg: ServeConfig,
    entries: VecDeque<Entry<T>>,
    closed: bool,
    next_id: u64,
}

impl<T> Scheduler<T> {
    /// An open, empty core under `cfg` (already normalized).
    pub(crate) fn new(cfg: ServeConfig) -> Scheduler<T> {
        Scheduler {
            cfg,
            entries: VecDeque::new(),
            closed: false,
            next_id: 0,
        }
    }

    /// Admit `req` at `now_ns`, all-or-nothing: count the attempt, refuse
    /// it once admission has closed or the queue is at capacity, otherwise
    /// enqueue it and return its admission id. `Err` means the request
    /// never entered the queue.
    pub(crate) fn admit(
        &mut self,
        req: ServeRequest,
        payload: T,
        now_ns: u64,
        metrics: &ServeMetrics,
    ) -> Result<u64, SubmitError> {
        metrics.record_submitted();
        if self.closed {
            metrics.record_rejected_shutdown();
            return Err(SubmitError::ShuttingDown);
        }
        let capacity = self.cfg.queue_capacity;
        if self.entries.len() >= capacity {
            metrics.record_rejected_full();
            return Err(SubmitError::QueueFull { capacity });
        }
        self.next_id += 1;
        self.entries.push_back(Entry {
            id: self.next_id,
            req,
            enqueued_ns: now_ns,
            payload,
        });
        metrics.record_accepted(self.entries.len() as u64);
        Ok(self.next_id)
    }

    /// Decide the next step at `now_ns`. Dispatch `min(queued, max_batch)`
    /// once the batch is full, once admission has closed (the shutdown
    /// drain never holds), or once the oldest entry has waited
    /// `max_delay`; otherwise wait out the rest of `max_delay`.
    pub(crate) fn next_step(&self, now_ns: u64) -> Step {
        let Some(oldest) = self.entries.front() else {
            return if self.closed {
                Step::Shutdown
            } else {
                Step::Idle
            };
        };
        let (queued, max_batch) = (self.entries.len(), self.cfg.max_batch);
        let waited = Duration::from_nanos(oldest.waited_ns(now_ns));
        if queued >= max_batch || self.closed || waited >= self.cfg.max_delay {
            Step::Dispatch(queued.min(max_batch))
        } else {
            Step::Wait(self.cfg.max_delay - waited)
        }
    }

    /// Form a batch of the `n` oldest entries at `now_ns`: count it, and
    /// split it into the entries whose deadline has passed by this instant
    /// and the live rest.
    pub(crate) fn form_batch(&mut self, n: usize, now_ns: u64, metrics: &ServeMetrics) -> Batch<T> {
        let n = n.min(self.entries.len());
        metrics.record_batch(n as u64);
        let mut batch = Batch {
            expired: Vec::new(),
            live: Vec::with_capacity(n),
        };
        for e in self.entries.drain(..n) {
            let waited = Duration::from_nanos(e.waited_ns(now_ns));
            if deadline_expired(waited, e.req.deadline) {
                batch.expired.push(e);
            } else {
                batch.live.push(e);
            }
        }
        batch
    }

    /// Close admission: later [`Scheduler::admit`] calls are refused, and
    /// [`Scheduler::next_step`] dispatches what is queued without holding.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// Take every queued entry at once: the supervisor's containment
    /// drain when a shard worker dies with a backlog behind it.
    pub(crate) fn drain_all(&mut self) -> Vec<Entry<T>> {
        self.entries.drain(..).collect()
    }

    /// The queued entries, oldest first.
    #[cfg(any(test, feature = "fault-inject"))]
    pub(crate) fn queued(&self) -> impl Iterator<Item = &Entry<T>> {
        self.entries.iter()
    }
}

/// Has a request outlived its `deadline` after waiting `waited`?
fn deadline_expired(waited: Duration, deadline: Option<Duration>) -> bool {
    deadline.is_some_and(|d| waited >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServeConfig {
        ServeConfig {
            workers: 1,
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            queue_capacity: 16,
        }
    }

    fn req() -> ServeRequest {
        ServeRequest::new(0, 50, 2, 4)
    }

    /// A core holding `queued` entries admitted at instant 0, closed or not.
    fn core(cfg: ServeConfig, queued: usize, closed: bool) -> Scheduler<()> {
        let metrics = ServeMetrics::new();
        let mut core = Scheduler::new(cfg);
        for _ in 0..queued {
            core.admit(req(), (), 0, &metrics).expect("under capacity");
        }
        if closed {
            core.close();
        }
        core
    }

    fn ids(core: &Scheduler<()>) -> Vec<u64> {
        core.queued().map(|e| e.id).collect()
    }

    #[test]
    fn decision_table() {
        let us = |n: u64| n * 1_000;
        let wait_us = Duration::from_micros;
        let cases = [
            // (queued, oldest_waited, closed) -> step
            ((0, us(0), false), Step::Idle),
            ((0, us(900), false), Step::Idle),
            ((0, us(0), true), Step::Shutdown),
            // Full: dispatch at once, capped at max_batch.
            ((4, us(0), false), Step::Dispatch(4)),
            ((9, us(0), false), Step::Dispatch(4)),
            ((9, us(0), true), Step::Dispatch(4)),
            // Closed and under-full: the drain does not hold.
            ((2, us(0), true), Step::Dispatch(2)),
            // Aged: the oldest has waited max_delay (or longer).
            ((1, us(500), false), Step::Dispatch(1)),
            ((3, us(800), false), Step::Dispatch(3)),
            // Young and under-full: wait out the rest of max_delay.
            ((1, us(0), false), Step::Wait(wait_us(500))),
            ((3, us(120), false), Step::Wait(wait_us(380))),
            ((3, us(499), false), Step::Wait(wait_us(1))),
        ];
        for ((queued, now_ns, closed), want) in cases {
            assert_eq!(
                core(cfg(), queued, closed).next_step(now_ns),
                want,
                "queued {queued}, waited {now_ns} ns, closed {closed}"
            );
        }
    }

    #[test]
    fn zero_delay_never_waits() {
        let cfg = ServeConfig {
            max_delay: Duration::ZERO,
            ..cfg()
        };
        assert_eq!(core(cfg, 1, false).next_step(0), Step::Dispatch(1));
    }

    #[test]
    fn admission_table() {
        let capacity = cfg().queue_capacity;
        let cases = [
            // (queued, closed) -> outcome
            ((0, false), Ok(1)),
            // One seat left: admitted. No seat left: full.
            ((capacity - 1, false), Ok(capacity as u64)),
            ((capacity, false), Err(SubmitError::QueueFull { capacity })),
            // Closed admission refuses before the capacity check.
            ((0, true), Err(SubmitError::ShuttingDown)),
            ((capacity, true), Err(SubmitError::ShuttingDown)),
        ];
        for ((queued, closed), want) in cases {
            let mut core = core(cfg(), queued, closed);
            let before = ids(&core);
            let metrics = ServeMetrics::new();
            let got = core.admit(req(), (), 7, &metrics);
            assert_eq!(got, want, "queued {queued}, closed {closed}");
            let m = metrics.snapshot();
            assert_eq!(m.submitted, 1);
            assert_eq!(m.accepted, u64::from(got.is_ok()));
            let full = matches!(want, Err(SubmitError::QueueFull { .. }));
            assert_eq!(m.rejected_queue_full, u64::from(full));
            let shut = want == Err(SubmitError::ShuttingDown);
            assert_eq!(m.rejected_shutdown, u64::from(shut));
            if got.is_err() {
                assert_eq!(ids(&core), before, "a refusal leaves the queue unchanged");
            }
        }
    }

    #[test]
    fn deadline_boundary_table() {
        let deadline = Duration::from_nanos(1_000);
        let cases = [
            // (dispatch instant, expired?) for an entry admitted at 0.
            (999, false),
            (1_000, true),
            (1_001, true),
        ];
        for (now_ns, expired) in cases {
            let metrics = ServeMetrics::new();
            let mut core = Scheduler::new(cfg());
            core.admit(req().with_deadline(deadline), (), 0, &metrics)
                .expect("admitted");
            core.admit(req(), (), 0, &metrics).expect("admitted");
            let batch = core.form_batch(2, now_ns, &metrics);
            assert_eq!(batch.expired.len() + batch.live.len(), 2);
            assert_eq!(batch.expired.len(), usize::from(expired), "at {now_ns} ns");
            // A request without a deadline never expires.
            assert_eq!(batch.live.last().map(|e| e.id), Some(2));
        }
    }

    #[test]
    fn dispatch_takes_the_oldest_in_fifo_order_as_one_batch() {
        let metrics = ServeMetrics::new();
        let mut core = Scheduler::new(cfg());
        for t in 0..6 {
            core.admit(req(), (), t * 10, &metrics).expect("admitted");
        }
        let batch = core.form_batch(4, 100, &metrics);
        let taken: Vec<u64> = batch.live.iter().map(|e| e.id).collect();
        assert_eq!(taken, [1, 2, 3, 4]);
        assert_eq!(ids(&core), [5, 6]);
        let m = metrics.snapshot();
        assert_eq!((m.batches, m.batched_requests), (1, 4));
        // The remaining oldest entry (admitted at 40) decides the hold.
        assert_eq!(
            core.next_step(100),
            Step::Wait(Duration::from_nanos(499_940))
        );
    }
}
