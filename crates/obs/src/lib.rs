//! `rpf-obs` — unified observability for the rank-position-forecasting
//! stack: one registry, one snapshot type, three concerns.
//!
//! * [`registry`] — named counters / gauges / fixed-bucket histograms,
//!   each a plain relaxed atomic: every call site records per request,
//!   per batch or per epoch, a rate one shared cell carries without
//!   contention. Engine, serving and training each own a [`Registry`];
//!   snapshots [`merge`](MetricsSnapshot::merge) into one view.
//! * [`span`] — start/stop span tracing with interned names and one
//!   mutex-guarded ring buffer, on an injectable [`Clock`] so test
//!   output is deterministic (a virtual clock, as the serving scheduler's
//!   replay feeds it virtual instants).
//! * [`ops`] — operator-level kernel profiling (calls / FLOPs / bytes /
//!   nanos per kernel class), off by default with a provably-near-zero
//!   disabled path, reproducing the paper's operator-breakdown table.
//! * [`snapshot`] — the plain-data [`MetricsSnapshot`] plus exporters:
//!   stable plain text, Prometheus text exposition, and JSONL.
//!
//! The crate is dependency-free and never panics on poisoned locks; it is
//! covered by the workspace's no-unwrap gate.

pub mod clock;
pub mod ops;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use clock::{Clock, VirtualClock, WallClock};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use snapshot::{
    write_json_str, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot, OpSample,
    SpanSample,
};
pub use span::{span_name, SpanGuard, SpanName, Tracer};

/// Latency histogram edges shared across the stack (powers-of-ten ladder,
/// 10 µs … 1 s, overflow beyond). Identical to the serving layer's ladder
/// so serve and engine latency histograms merge.
pub const LATENCY_EDGES_NS: [u64; 11] = [
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
];

/// Batch-size histogram edges (powers of two, overflow beyond).
pub const BATCH_EDGES: [u64; 6] = [1, 2, 4, 8, 16, 32];

/// Epoch/phase duration edges in nanoseconds (1 ms … 100 s ladder), for
/// the training loop's epoch histogram.
pub const DURATION_EDGES_NS: [u64; 6] = [
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
];

/// Shadow-evaluation rank-divergence edges in milli-rank units
/// (`1000 × mean |live − candidate|` over a forecast pair; see
/// `ranknet_core::lifecycle::rank_divergence_milli`). The ladder spans
/// "bit-close" (≤1 = a rounding wiggle) through "moves cars whole
/// positions" (≥4000), with overflow beyond.
pub const DIVERGENCE_EDGES_MILLI: [u64; 8] = [1, 10, 50, 100, 250, 500, 1_000, 4_000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_edges_match_the_serving_ladder_shape() {
        assert!(LATENCY_EDGES_NS.windows(2).all(|w| w[0] < w[1]));
        assert!(BATCH_EDGES.windows(2).all(|w| w[0] < w[1]));
        assert!(DURATION_EDGES_NS.windows(2).all(|w| w[0] < w[1]));
        assert!(DIVERGENCE_EDGES_MILLI.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn end_to_end_registry_to_prometheus() {
        let r = Registry::new();
        let c = r.counter("demo_requests");
        let h = r.histogram("demo_latency_ns", &LATENCY_EDGES_NS);
        c.add(3);
        h.observe(20_000);
        let snap = r.snapshot();
        let text = snap.render_prometheus();
        assert!(text.contains("rpf_demo_requests_total 3"));
        assert!(text.contains("rpf_demo_latency_ns_bucket{le=\"50000\"} 1"));
        assert!(text.contains("rpf_demo_latency_ns_bucket{le=\"+Inf\"} 1"));
    }
}
