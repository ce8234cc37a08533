//! The scheduling policy: the one place that decides when a queued batch
//! leaves for the engine, how large it is, and which of its requests have
//! outlived their deadline.
//!
//! [`next_step`] and [`deadline_expired`] are pure functions of the queue
//! and the clock reading, so the threaded scheduler (`server.rs`, on the
//! wall clock, under the mailbox lock) and the virtual-clock replay
//! (`replay.rs`) call the same code. Replay fidelity therefore holds by
//! construction instead of by a hand-kept mirror.

use crate::config::ServeConfig;
use std::time::Duration;

/// What a worker should do next with the queue it sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Nothing queued and admission open: sleep until a submission.
    Idle,
    /// Nothing queued and admission closed: the drain is complete.
    Shutdown,
    /// Drain this many of the oldest entries as one batch now.
    Dispatch(usize),
    /// Hold the under-full batch open this much longer for company.
    Wait(Duration),
}

/// Decide the next step for a queue holding `queued` entries whose oldest
/// has waited `oldest_waited`, with admission `closed` or not.
///
/// Dispatch `min(queued, max_batch)` once the batch is full, once
/// admission has closed (the shutdown drain never holds), or once the
/// oldest entry has waited `max_delay`; otherwise wait out the rest of
/// `max_delay`.
pub(crate) fn next_step(
    cfg: &ServeConfig,
    queued: usize,
    oldest_waited: Duration,
    closed: bool,
) -> Step {
    if queued == 0 {
        return if closed { Step::Shutdown } else { Step::Idle };
    }
    if queued >= cfg.max_batch || closed || oldest_waited >= cfg.max_delay {
        Step::Dispatch(queued.min(cfg.max_batch))
    } else {
        Step::Wait(cfg.max_delay - oldest_waited)
    }
}

/// Has a request outlived its `deadline` after waiting `waited`?
pub(crate) fn deadline_expired(waited: Duration, deadline: Option<Duration>) -> bool {
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

    #[test]
    fn decision_table() {
        let us = Duration::from_micros;
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
            ((1, us(0), false), Step::Wait(us(500))),
            ((3, us(120), false), Step::Wait(us(380))),
            ((3, us(499), false), Step::Wait(us(1))),
        ];
        for ((queued, waited, closed), want) in cases {
            assert_eq!(
                next_step(&cfg(), queued, waited, closed),
                want,
                "queued {queued}, waited {waited:?}, closed {closed}"
            );
        }
    }

    #[test]
    fn zero_delay_never_waits() {
        let cfg = ServeConfig {
            max_delay: Duration::ZERO,
            ..cfg()
        };
        assert_eq!(next_step(&cfg, 1, Duration::ZERO, false), Step::Dispatch(1));
    }
}
