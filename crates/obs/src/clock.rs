//! Time sources for spans and latency measurement.
//!
//! Everything in this crate that reads time does so through the [`Clock`]
//! trait, for one reason: wall-clock output can never be golden-tested. A
//! [`VirtualClock`] advanced by the test itself makes span durations and
//! latency buckets an exact function of the script. The serving layer's
//! scheduler core works the same way: it takes every instant as an
//! argument, a [`WallClock`] reading when serving and a virtual instant
//! in its golden-tested replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (but fixed per instance) origin.
    fn now_ns(&self) -> u64;
}

/// The production clock: monotonic nanoseconds since construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn new() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A clock the caller advances by hand. Deterministic by construction:
/// `now_ns` returns exactly what the last `set`/`advance` left behind, so
/// any span or latency derived from it is reproducible bit-for-bit.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    pub fn starting_at(ns: u64) -> VirtualClock {
        VirtualClock {
            now: AtomicU64::new(ns),
        }
    }

    /// Move time forward by `ns` nanoseconds; returns the new now.
    pub fn advance(&self, ns: u64) -> u64 {
        self.now.fetch_add(ns, Ordering::Relaxed) + ns
    }

    /// Jump to an absolute instant (must not move backwards for spans to
    /// stay well-formed; this is not enforced).
    pub fn set(&self, ns: u64) {
        self.now.store(ns, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_moves_only_when_told() {
        let c = VirtualClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.advance(150), 150);
        assert_eq!(c.now_ns(), 150);
        c.set(42);
        assert_eq!(c.now_ns(), 42);
        let s = VirtualClock::starting_at(1_000);
        assert_eq!(s.now_ns(), 1_000);
    }
}
