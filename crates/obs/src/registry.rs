//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms behind sharded atomics, with mergeable per-thread handles.
//!
//! Design constraints, in order:
//!
//! 1. **Lock-cheap recording.** A counter increment is one relaxed
//!    `fetch_add` on a cache-line-padded shard picked by thread, so worker
//!    threads hammering the same counter do not bounce a cache line between
//!    cores. No lock is ever taken on the hot path.
//! 2. **Mergeable per-thread handles.** A [`LocalCounter`] /
//!    [`LocalHistogram`] batches increments in plain (non-atomic) fields
//!    and folds them into the shared shards on `flush` (or drop). The
//!    merge invariant — concurrent recording through any interleaving of
//!    local handles and direct calls totals exactly the same as sequential
//!    recording — is pinned by the proptests in `tests/registry_props.rs`.
//! 3. **Deterministic snapshots.** Metrics render in registration order,
//!    and histogram bucket boundaries are fixed at registration, so a
//!    snapshot of a deterministic workload is golden-testable.
//!
//! Registration takes a lock (cold path, once per metric name); recording
//! never does.

use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shards per counter. More shards cost memory (one cache line each);
/// fewer cost contention. Eight covers the worker counts this workspace
/// actually runs (serve defaults to 2–4 workers).
const COUNTER_SHARDS: usize = 8;

/// One cache line per shard so two threads' increments never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread gets a stable slot at first use; `slot % SHARDS` picks
    /// its shard. Round-robin assignment spreads concurrent recorders
    /// evenly without any per-record coordination.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// This thread's shard among `n` — shared with the span tracer so both
/// layers spread threads the same way.
#[inline]
pub(crate) fn thread_shard(n: usize) -> usize {
    THREAD_SLOT.with(|s| *s) % n.max(1)
}

#[inline]
fn shard_index() -> usize {
    thread_shard(COUNTER_SHARDS)
}

/// A monotone counter. Cloning shares the underlying cells.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[PaddedU64; COUNTER_SHARDS]>,
}

impl Counter {
    pub fn new() -> Counter {
        Counter {
            shards: Arc::new(Default::default()),
        }
    }

    #[inline]
    pub fn add(&self, v: u64) {
        self.shards[shard_index()].0.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zero every shard (between profiled runs; not linearizable against
    /// concurrent adds, like any multi-cell reset).
    pub fn reset(&self) {
        for s in self.shards.iter() {
            s.0.store(0, Ordering::Relaxed);
        }
    }

    /// A per-thread batching handle; increments accumulate in a plain
    /// field and merge into the shared shards on [`LocalCounter::flush`]
    /// or drop.
    pub fn local(&self) -> LocalCounter {
        LocalCounter {
            counter: self.clone(),
            pending: 0,
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// Mergeable per-thread counter handle (see [`Counter::local`]).
pub struct LocalCounter {
    counter: Counter,
    pending: u64,
}

impl LocalCounter {
    #[inline]
    pub fn add(&mut self, v: u64) {
        self.pending += v;
    }

    #[inline]
    pub fn inc(&mut self) {
        self.pending += 1;
    }

    /// Fold the pending total into the shared counter.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.counter.add(self.pending);
            self.pending = 0;
        }
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A last-value / high-water-mark cell. Single atomic: gauges are written
/// rarely (queue depth on admission, not per element).
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.set(0);
    }
}

struct HistogramCells {
    /// Fixed upper edges; bucket `i` counts `value <= edges[i]` that
    /// missed every earlier bucket, and a final bucket catches overflow.
    edges: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: PaddedU64,
    sum: PaddedU64,
}

/// Which bucket a value lands in: the first edge that is `>= value`, or
/// the trailing overflow bucket. `value == edge` belongs to that edge's
/// bucket — the boundary rule the golden test pins.
#[inline]
pub fn bucket_index(edges: &[u64], value: u64) -> usize {
    edges
        .iter()
        .position(|&e| value <= e)
        .unwrap_or(edges.len())
}

/// A fixed-bucket histogram. Edges are set at construction and never
/// change, so snapshots are comparable across runs and machines.
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    pub fn new(edges: &[u64]) -> Histogram {
        Histogram {
            cells: Arc::new(HistogramCells {
                edges: edges.to_vec(),
                buckets: (0..edges.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                count: PaddedU64::default(),
                sum: PaddedU64::default(),
            }),
        }
    }

    #[inline]
    pub fn observe(&self, value: u64) {
        let c = &self.cells;
        c.buckets[bucket_index(&c.edges, value)].fetch_add(1, Ordering::Relaxed);
        c.count.0.fetch_add(1, Ordering::Relaxed);
        c.sum.0.fetch_add(value, Ordering::Relaxed);
    }

    pub fn edges(&self) -> &[u64] {
        &self.cells.edges
    }

    /// Per-bucket counts (non-cumulative), overflow bucket last.
    pub fn buckets(&self) -> Vec<u64> {
        self.cells
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    pub fn count(&self) -> u64 {
        self.cells.count.0.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.cells.sum.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        for b in &self.cells.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.cells.count.0.store(0, Ordering::Relaxed);
        self.cells.sum.0.store(0, Ordering::Relaxed);
    }

    /// A per-thread batching handle mirroring [`Counter::local`].
    pub fn local(&self) -> LocalHistogram {
        LocalHistogram {
            histogram: self.clone(),
            buckets: vec![0; self.cells.buckets.len()],
            count: 0,
            sum: 0,
        }
    }
}

/// Mergeable per-thread histogram handle (see [`Histogram::local`]).
pub struct LocalHistogram {
    histogram: Histogram,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl LocalHistogram {
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_index(&self.histogram.cells.edges, value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    pub fn flush(&mut self) {
        if self.count == 0 {
            return;
        }
        let c = &self.histogram.cells;
        for (shared, local) in c.buckets.iter().zip(self.buckets.iter_mut()) {
            if *local > 0 {
                shared.fetch_add(*local, Ordering::Relaxed);
                *local = 0;
            }
        }
        c.count.0.fetch_add(self.count, Ordering::Relaxed);
        c.sum.0.fetch_add(self.sum, Ordering::Relaxed);
        self.count = 0;
        self.sum = 0;
    }
}

impl Drop for LocalHistogram {
    fn drop(&mut self) {
        self.flush();
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: &'static str,
    handle: Handle,
}

/// A named collection of metrics. Cloning shares the underlying metrics;
/// registration is idempotent (the same name always returns a handle to
/// the same cells, so two subsystems can safely ask for one counter).
#[derive(Clone, Default)]
pub struct Registry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Entries are plain data; recover a poisoned lock instead of
    /// propagating — a panicking registrant must not take metrics down.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register (or look up) a counter under `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name {
                if let Handle::Counter(c) = &e.handle {
                    return c.clone();
                }
            }
        }
        let c = Counter::new();
        entries.push(Entry {
            name,
            handle: Handle::Counter(c.clone()),
        });
        c
    }

    /// Register (or look up) a gauge under `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name {
                if let Handle::Gauge(g) = &e.handle {
                    return g.clone();
                }
            }
        }
        let g = Gauge::new();
        entries.push(Entry {
            name,
            handle: Handle::Gauge(g.clone()),
        });
        g
    }

    /// Register (or look up) a fixed-bucket histogram under `name`. The
    /// edges of an existing histogram win; callers must agree on them.
    pub fn histogram(&self, name: &'static str, edges: &[u64]) -> Histogram {
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name {
                if let Handle::Histogram(h) = &e.handle {
                    return h.clone();
                }
            }
        }
        let h = Histogram::new(edges);
        entries.push(Entry {
            name,
            handle: Handle::Histogram(h.clone()),
        });
        h
    }

    /// Zero every registered metric (between profiled runs).
    pub fn reset(&self) {
        for e in self.lock().iter() {
            match &e.handle {
                Handle::Counter(c) => c.reset(),
                Handle::Gauge(g) => g.reset(),
                Handle::Histogram(h) => h.reset(),
            }
        }
    }

    /// A plain copy of every metric, in registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for e in self.lock().iter() {
            match &e.handle {
                Handle::Counter(c) => snap.counters.push(CounterSample {
                    name: e.name.to_string(),
                    value: c.value(),
                }),
                Handle::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: e.name.to_string(),
                    value: g.value(),
                }),
                Handle::Histogram(h) => snap.histograms.push(HistogramSample {
                    name: e.name.to_string(),
                    edges: h.edges().to_vec(),
                    buckets: h.buckets(),
                    count: h.count(),
                    sum: h.sum(),
                }),
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_across_shards_and_locals() {
        let c = Counter::new();
        c.add(5);
        c.inc();
        let mut l = c.local();
        l.add(10);
        assert_eq!(c.value(), 6, "local not flushed yet");
        l.flush();
        assert_eq!(c.value(), 16);
        {
            let mut l2 = c.local();
            l2.add(4);
        } // drop flushes
        assert_eq!(c.value(), 20);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let g = Gauge::new();
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.value(), 5);
        g.set(1);
        assert_eq!(g.value(), 1);
    }

    #[test]
    fn histogram_boundary_rule_value_equal_edge_lands_in_bucket() {
        let h = Histogram::new(&[10, 100, 1000]);
        h.observe(10); // == first edge -> bucket 0
        h.observe(11); // -> bucket 1
        h.observe(1000); // == last edge -> bucket 2
        h.observe(1001); // -> overflow
        assert_eq!(h.buckets(), vec![1, 1, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10 + 11 + 1000 + 1001);
    }

    #[test]
    fn local_histogram_merges_exactly() {
        let h = Histogram::new(&[10, 100]);
        let mut l = h.local();
        l.observe(5);
        l.observe(50);
        l.observe(500);
        assert_eq!(h.count(), 0);
        l.flush();
        assert_eq!(h.buckets(), vec![1, 1, 1]);
        h.observe(5);
        assert_eq!(h.buckets(), vec![2, 1, 1]);
    }

    #[test]
    fn snapshot_preserves_registration_order() {
        let r = Registry::new();
        r.counter("b_second");
        r.counter("a_first_registered_wins_order");
        r.gauge("depth");
        r.histogram("lat", &[1, 2]);
        let s = r.snapshot();
        assert_eq!(s.counters[0].name, "b_second");
        assert_eq!(s.counters[1].name, "a_first_registered_wins_order");
        assert_eq!(s.gauges[0].name, "depth");
        assert_eq!(s.histograms[0].edges, vec![1, 2]);
    }
}
