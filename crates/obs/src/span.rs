//! Structured span tracing: start/stop intervals with interned names,
//! recorded into one mutex-guarded ring buffer.
//!
//! A span is two clock reads and one push under the tracer's lock — cheap
//! enough to wrap engine phases (encode / covariates / decode), a few per
//! engine call, but not kernels;
//! per-kernel attribution is the [`crate::ops`] layer's job. Names are
//! interned once into a global `&'static str` table so the hot path moves
//! a `u16`, never a string.
//!
//! All time flows through the injected [`Clock`], so a tracer driven by a
//! [`crate::clock::VirtualClock`] produces bit-for-bit reproducible spans
//! under test — the same determinism trick as `serve::replay`.

use crate::clock::{Clock, WallClock};
use crate::snapshot::SpanSample;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Ring capacity. Old spans are overwritten; `recent()` is a
/// flight-recorder view, `totals()` the loss-free aggregate.
const RING_CAPACITY: usize = 256;

/// An interned span name: an index into the global name table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanName(u16);

static NAME_TABLE: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Intern `name`, returning a copyable id. Idempotent; the table only
/// ever grows (names are `'static`, typically literals).
pub fn span_name(name: &'static str) -> SpanName {
    let mut table = NAME_TABLE.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(i) = table.iter().position(|&n| n == name) {
        return SpanName(i as u16);
    }
    let id = table.len().min(u16::MAX as usize) as u16;
    if (id as usize) == table.len() {
        table.push(name);
    }
    SpanName(id)
}

fn resolve(name: SpanName) -> &'static str {
    let table = NAME_TABLE.lock().unwrap_or_else(|p| p.into_inner());
    table.get(name.0 as usize).copied().unwrap_or("<unknown>")
}

/// A finished span: interned name plus `[start, end)` in clock time.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct SpanLog {
    /// Fixed-capacity ring; `next` is the overwrite cursor.
    ring: Vec<SpanRecord>,
    next: usize,
    /// Loss-free (count, total_ns) per interned name id.
    totals: Vec<(u64, u64)>,
}

impl SpanLog {
    fn push(&mut self, rec: SpanRecord) {
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(rec);
        } else {
            self.ring[self.next] = rec;
        }
        self.next = (self.next + 1) % RING_CAPACITY;
        let id = rec.name.0 as usize;
        if self.totals.len() <= id {
            self.totals.resize(id + 1, (0, 0));
        }
        self.totals[id].0 += 1;
        self.totals[id].1 += rec.duration_ns();
    }
}

/// The span collector. Disabled by default: a disabled tracer's
/// [`Tracer::span`] is one relaxed load and returns an inert guard.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    enabled: AtomicBool,
    log: Mutex<SpanLog>,
}

impl Tracer {
    /// A wall-clock tracer, disabled until [`Tracer::set_enabled`].
    pub fn new() -> Tracer {
        Tracer::with_clock(Arc::new(WallClock::new()))
    }

    /// A tracer on an explicit clock (a `VirtualClock` for tests).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Tracer {
        Tracer {
            clock,
            enabled: AtomicBool::new(false),
            log: Mutex::default(),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Start a span; it records itself when the guard drops. Inert (no
    /// clock read, nothing recorded) while the tracer is disabled.
    pub fn span<'t>(&'t self, name: SpanName) -> SpanGuard<'t> {
        if !self.enabled() {
            return SpanGuard {
                tracer: self,
                name,
                start_ns: 0,
                live: false,
            };
        }
        SpanGuard {
            tracer: self,
            name,
            start_ns: self.clock.now_ns(),
            live: true,
        }
    }

    /// The log is plain data that every push leaves valid, so a poisoned
    /// lock is recovered rather than propagated.
    fn log(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        self.log.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn record(&self, name: SpanName, start_ns: u64, end_ns: u64) {
        self.log().push(SpanRecord {
            name,
            start_ns,
            end_ns,
        });
    }

    /// Flight-recorder view: the retained spans, sorted by start time. At
    /// most `RING_CAPACITY` entries.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let mut all = self.log().ring.clone();
        all.sort_by_key(|r| (r.start_ns, r.end_ns));
        all
    }

    /// Loss-free per-name aggregates (count, total ns), in interning
    /// order — the golden-testable summary.
    pub fn totals(&self) -> Vec<SpanSample> {
        let totals = self.log().totals.clone();
        totals
            .into_iter()
            .enumerate()
            .filter(|&(_, (c, _))| c > 0)
            .map(|(i, (count, total_ns))| SpanSample {
                name: resolve(SpanName(i as u16)),
                count,
                total_ns,
            })
            .collect()
    }

    /// Drop all retained spans and aggregates.
    pub fn reset(&self) {
        *self.log() = SpanLog::default();
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// RAII guard returned by [`Tracer::span`]; records on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    name: SpanName,
    start_ns: u64,
    live: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.live {
            let end = self.tracer.clock.now_ns();
            self.tracer.record(self.name, self.start_ns, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn interning_is_idempotent() {
        let a = span_name("obs_test_span_a");
        let b = span_name("obs_test_span_a");
        assert_eq!(a, b);
        assert_eq!(resolve(a), "obs_test_span_a");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        {
            let _g = t.span(span_name("obs_test_noop"));
        }
        assert!(t.recent().is_empty());
        assert!(t.totals().is_empty());
    }

    #[test]
    fn virtual_clock_spans_are_deterministic() {
        let clock = Arc::new(VirtualClock::new());
        let t = Tracer::with_clock(clock.clone());
        t.set_enabled(true);
        let name = span_name("obs_test_decode");
        {
            let _g = t.span(name);
            clock.advance(1_500);
        }
        {
            let _g = t.span(name);
            clock.advance(500);
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].duration_ns(), 1_500);
        assert_eq!(recent[1].duration_ns(), 500);
        let totals = t.totals();
        let s = totals
            .iter()
            .find(|s| s.name == "obs_test_decode")
            .map(|s| (s.count, s.total_ns));
        assert_eq!(s, Some((2, 2_000)));
        t.reset();
        assert!(t.recent().is_empty());
    }

    #[test]
    fn ring_overwrites_but_totals_do_not_lose() {
        let clock = Arc::new(VirtualClock::new());
        let t = Tracer::with_clock(clock.clone());
        t.set_enabled(true);
        let name = span_name("obs_test_flood");
        let n = (RING_CAPACITY * 2) as u64;
        for _ in 0..n {
            let _g = t.span(name);
            clock.advance(10);
        }
        assert!(t.recent().len() <= RING_CAPACITY);
        let totals = t.totals();
        let s = totals.iter().find(|s| s.name == "obs_test_flood");
        assert_eq!(s.map(|s| (s.count, s.total_ns)), Some((n, n * 10)));
    }
}
