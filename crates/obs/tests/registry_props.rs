//! Property suite for the metrics registry's one load-bearing invariant:
//! recording is *order- and thread-oblivious*. Any interleaving of the
//! same multiset of events, recorded through cloned handles from any
//! number of threads, must produce exactly the totals of a
//! single-threaded sequential replay. This is what lets engine, serving
//! and gateway threads share one relaxed atomic per metric.

use proptest::prelude::*;
use rpf_obs::{Registry, LATENCY_EDGES_NS};
use std::sync::Arc;

/// One recorded event: a counter bump and a histogram observation.
#[derive(Clone, Copy, Debug)]
struct Event {
    add: u64,
    observe_ns: u64,
}

fn apply_sequential(events: &[Event]) -> rpf_obs::MetricsSnapshot {
    let registry = Registry::new();
    let counter = registry.counter("requests");
    let hist = registry.histogram("latency_ns", &LATENCY_EDGES_NS);
    for e in events {
        counter.add(e.add);
        hist.observe(e.observe_ns);
    }
    registry.snapshot()
}

/// Split the events round-robin across `threads` workers, each recording
/// through its own clones of the shared handles.
fn apply_concurrent(events: &[Event], threads: usize) -> rpf_obs::MetricsSnapshot {
    let registry = Registry::new();
    let counter = registry.counter("requests");
    let hist = registry.histogram("latency_ns", &LATENCY_EDGES_NS);
    let chunks: Vec<Vec<Event>> = (0..threads)
        .map(|t| {
            events
                .iter()
                .copied()
                .skip(t)
                .step_by(threads)
                .collect::<Vec<_>>()
        })
        .collect();
    let shared: Arc<Vec<Vec<Event>>> = Arc::new(chunks);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let counter = counter.clone();
            let hist = hist.clone();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for e in &shared[t] {
                    counter.add(e.add);
                    hist.observe(e.observe_ns);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("recorder thread panicked");
    }
    registry.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn concurrent_recording_merges_to_sequential_totals(
        raw in prop::collection::vec((0u64..10_000, 0u64..2_000_000_000), 1..200),
        threads in 1usize..8,
    ) {
        let events: Vec<Event> = raw
            .iter()
            .map(|&(add, observe_ns)| Event { add, observe_ns })
            .collect();

        let seq = apply_sequential(&events);
        let conc = apply_concurrent(&events, threads);

        // Counters: same total regardless of thread count and interleaving.
        prop_assert_eq!(seq.counters.len(), 1);
        prop_assert_eq!(conc.counters.len(), 1);
        prop_assert_eq!(seq.counters[0].value, conc.counters[0].value);
        let expected: u64 = events.iter().map(|e| e.add).sum();
        prop_assert_eq!(seq.counters[0].value, expected);

        // Histograms: same count, same sum, same per-bucket tallies.
        prop_assert_eq!(seq.histograms.len(), 1);
        prop_assert_eq!(conc.histograms.len(), 1);
        let (sh, ch) = (&seq.histograms[0], &conc.histograms[0]);
        prop_assert_eq!(sh.count, ch.count);
        prop_assert_eq!(sh.sum, ch.sum);
        prop_assert_eq!(&sh.edges, &ch.edges);
        prop_assert_eq!(&sh.buckets, &ch.buckets);
        prop_assert_eq!(sh.count, events.len() as u64);
    }

    /// Merging per-thread snapshots of disjoint registries is equivalent
    /// to recording everything into one registry: `merge` is the offline
    /// counterpart of recording into shared cells.
    #[test]
    fn snapshot_merge_equals_single_registry(
        raw in prop::collection::vec((0u64..10_000, 0u64..2_000_000_000), 1..100),
        split in 1usize..100,
    ) {
        let events: Vec<Event> = raw
            .iter()
            .map(|&(add, observe_ns)| Event { add, observe_ns })
            .collect();
        let cut = split.min(events.len());

        let combined = apply_sequential(&events);
        let mut merged = apply_sequential(&events[..cut]);
        merged.merge(&apply_sequential(&events[cut..]));

        prop_assert_eq!(combined.counters[0].value, merged.counters[0].value);
        let (a, b) = (&combined.histograms[0], &merged.histograms[0]);
        prop_assert_eq!(a.count, b.count);
        prop_assert_eq!(a.sum, b.sum);
        prop_assert_eq!(&a.buckets, &b.buckets);
    }
}
