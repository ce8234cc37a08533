//! Serving metrics on the shared observability registry: the scheduler
//! records through `rpf-obs` counter/histogram handles, snapshotted into
//! a plain struct for reporting and golden tests.
//!
//! Histograms use *fixed* bucket edges (powers-of-ten latency ladder,
//! powers-of-two batch sizes — the workspace-wide ladders re-exported
//! from [`rpf_obs`]) so a snapshot is comparable across runs and
//! machines, and so the deterministic replay harness
//! ([`crate::replay`]) can pin exact bucket counts in a checked-in file.
//! [`MetricsSnapshot::render`] is byte-stable: migrating the backing
//! store onto the registry changed no output line.

use rpf_obs::{Counter, Gauge, Histogram, Registry};

/// Latency bucket upper edges in nanoseconds; a final overflow bucket
/// catches everything slower. Bucket `i` counts responses with
/// `latency <= LATENCY_EDGES_NS[i]` that missed every earlier bucket.
pub const LATENCY_EDGES_NS: [u64; 11] = rpf_obs::LATENCY_EDGES_NS;

/// Batch-size bucket upper edges; final overflow bucket beyond.
pub const BATCH_EDGES: [u64; 6] = rpf_obs::BATCH_EDGES;

/// Shadow-evaluation divergence edges (milli-rank units); final overflow
/// bucket beyond.
pub const DIVERGENCE_EDGES_MILLI: [u64; 8] = rpf_obs::DIVERGENCE_EDGES_MILLI;

const LAT_BUCKETS: usize = LATENCY_EDGES_NS.len() + 1;
const BATCH_BUCKETS: usize = BATCH_EDGES.len() + 1;
const DIV_BUCKETS: usize = DIVERGENCE_EDGES_MILLI.len() + 1;

/// Shared scheduler counters, backed by an owned [`Registry`] so the
/// serving layer reports through the same snapshot type as the engine
/// and the training loop. Every mutation is a relaxed atomic on a
/// thread-sharded cell: the counters are monotone tallies, not
/// synchronization.
pub struct ServeMetrics {
    registry: Registry,
    submitted: Counter,
    accepted: Counter,
    rejected_queue_full: Counter,
    rejected_shutdown: Counter,
    completed: Counter,
    ok_responses: Counter,
    invalid: Counter,
    fallback_deadline: Counter,
    fallback_panic: Counter,
    fallback_shard: Counter,
    worker_panics: Counter,
    shard_restarts: Counter,
    queue_poison_recoveries: Counter,
    batches: Counter,
    batched_requests: Counter,
    swaps: Counter,
    rollbacks: Counter,
    shadow_comparisons: Counter,
    queue_depth_max: Gauge,
    model_version: Gauge,
    latency: Histogram,
    batch_sizes: Histogram,
    shadow_divergence: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    pub fn new() -> ServeMetrics {
        let registry = Registry::new();
        ServeMetrics {
            submitted: registry.counter("serve_submitted"),
            accepted: registry.counter("serve_accepted"),
            rejected_queue_full: registry.counter("serve_rejected_queue_full"),
            rejected_shutdown: registry.counter("serve_rejected_shutdown"),
            completed: registry.counter("serve_completed"),
            ok_responses: registry.counter("serve_ok_responses"),
            invalid: registry.counter("serve_invalid"),
            fallback_deadline: registry.counter("serve_fallback_deadline"),
            fallback_panic: registry.counter("serve_fallback_panic"),
            fallback_shard: registry.counter("serve_fallback_shard"),
            worker_panics: registry.counter("serve_worker_panics"),
            shard_restarts: registry.counter("serve_shard_restarts"),
            queue_poison_recoveries: registry.counter("serve_queue_poison_recoveries"),
            batches: registry.counter("serve_batches"),
            batched_requests: registry.counter("serve_batched_requests"),
            swaps: registry.counter("serve_swaps"),
            rollbacks: registry.counter("serve_rollbacks"),
            shadow_comparisons: registry.counter("serve_shadow_comparisons"),
            queue_depth_max: registry.gauge("serve_queue_depth_max"),
            model_version: registry.gauge("rpf_model_version"),
            batch_sizes: registry.histogram("serve_batch_size", &BATCH_EDGES),
            latency: registry.histogram("serve_latency_ns", &LATENCY_EDGES_NS),
            shadow_divergence: registry
                .histogram("serve_shadow_divergence_milli", &DIVERGENCE_EDGES_MILLI),
            registry,
        }
    }

    pub(crate) fn record_submitted(&self) {
        self.submitted.inc();
    }

    pub(crate) fn record_accepted(&self, queue_depth: u64) {
        self.accepted.inc();
        self.queue_depth_max.set_max(queue_depth);
    }

    pub(crate) fn record_rejected_full(&self) {
        self.rejected_queue_full.inc();
    }

    pub(crate) fn record_rejected_shutdown(&self) {
        self.rejected_shutdown.inc();
    }

    pub(crate) fn record_batch(&self, size: u64) {
        self.batches.inc();
        self.batched_requests.add(size);
        self.batch_sizes.observe(size);
    }

    pub(crate) fn record_response(&self, outcome: ResponseKind, latency_ns: u64) {
        self.completed.inc();
        match outcome {
            ResponseKind::Ok => &self.ok_responses,
            ResponseKind::Invalid => &self.invalid,
            ResponseKind::FallbackDeadline => &self.fallback_deadline,
            ResponseKind::FallbackPanic => &self.fallback_panic,
            ResponseKind::FallbackShard => &self.fallback_shard,
        }
        .inc();
        self.latency.observe(latency_ns);
    }

    pub(crate) fn record_worker_panic(&self) {
        self.worker_panics.inc();
    }

    pub(crate) fn record_queue_poison_recovery(&self) {
        self.queue_poison_recoveries.inc();
    }

    /// A shard supervisor restarted this region's worker after a death.
    pub(crate) fn record_shard_restart(&self) {
        self.shard_restarts.inc();
    }

    /// Fold a lifecycle controller's tallies into this region's metrics
    /// (see `LifecycleController::flush_into`).
    pub(crate) fn record_lifecycle(
        &self,
        swaps: u64,
        rollbacks: u64,
        comparisons: u64,
        divergences: &[u64],
    ) {
        self.swaps.add(swaps);
        self.rollbacks.add(rollbacks);
        self.shadow_comparisons.add(comparisons);
        for &d in divergences {
            self.shadow_divergence.observe(d);
        }
    }

    /// Stamp the serving model's lifecycle version (0 = unversioned).
    pub(crate) fn set_model_version(&self, version: u64) {
        self.model_version.set(version);
    }

    /// Mergeable snapshot in the workspace-wide form — combine with the
    /// engine's and the training report's via
    /// [`rpf_obs::MetricsSnapshot::merge`].
    pub fn obs_snapshot(&self) -> rpf_obs::MetricsSnapshot {
        self.registry.snapshot()
    }

    fn hist_array<const N: usize>(h: &Histogram) -> [u64; N] {
        let mut out = [0u64; N];
        for (slot, v) in out.iter_mut().zip(h.buckets()) {
            *slot = v;
        }
        out
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.value(),
            accepted: self.accepted.value(),
            rejected_queue_full: self.rejected_queue_full.value(),
            rejected_shutdown: self.rejected_shutdown.value(),
            completed: self.completed.value(),
            ok_responses: self.ok_responses.value(),
            invalid: self.invalid.value(),
            fallback_deadline: self.fallback_deadline.value(),
            fallback_panic: self.fallback_panic.value(),
            fallback_shard: self.fallback_shard.value(),
            worker_panics: self.worker_panics.value(),
            shard_restarts: self.shard_restarts.value(),
            queue_poison_recoveries: self.queue_poison_recoveries.value(),
            batches: self.batches.value(),
            batched_requests: self.batched_requests.value(),
            swaps: self.swaps.value(),
            rollbacks: self.rollbacks.value(),
            shadow_comparisons: self.shadow_comparisons.value(),
            queue_depth_max: self.queue_depth_max.value(),
            model_version: self.model_version.value(),
            latency: Self::hist_array(&self.latency),
            batch_sizes: Self::hist_array(&self.batch_sizes),
            shadow_divergence: Self::hist_array(&self.shadow_divergence),
        }
    }
}

/// How a response left the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ResponseKind {
    Ok,
    Invalid,
    FallbackDeadline,
    FallbackPanic,
    FallbackShard,
}

/// A plain copy of every counter, taken at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected_queue_full: u64,
    pub rejected_shutdown: u64,
    pub completed: u64,
    pub ok_responses: u64,
    pub invalid: u64,
    pub fallback_deadline: u64,
    pub fallback_panic: u64,
    /// Fallback answers produced by a supervisor draining a failed shard.
    pub fallback_shard: u64,
    pub worker_panics: u64,
    /// Worker respawns performed by shard supervisors.
    pub shard_restarts: u64,
    pub queue_poison_recoveries: u64,
    pub batches: u64,
    pub batched_requests: u64,
    /// Model hot-swaps performed by a lifecycle controller.
    pub swaps: u64,
    /// Candidate rollbacks (divergence gate or a panicked swap).
    pub rollbacks: u64,
    /// Shadow live-vs-candidate comparisons run.
    pub shadow_comparisons: u64,
    pub queue_depth_max: u64,
    /// Lifecycle version of the serving model (0 = unversioned).
    pub model_version: u64,
    /// Latency histogram: one count per [`LATENCY_EDGES_NS`] bucket plus a
    /// final overflow bucket.
    pub latency: [u64; LAT_BUCKETS],
    /// Batch-size histogram: one count per [`BATCH_EDGES`] bucket plus a
    /// final overflow bucket.
    pub batch_sizes: [u64; BATCH_BUCKETS],
    /// Shadow-divergence histogram: one count per
    /// [`DIVERGENCE_EDGES_MILLI`] bucket plus a final overflow bucket.
    pub shadow_divergence: [u64; DIV_BUCKETS],
}

impl MetricsSnapshot {
    /// Mean formed-batch size, the batching efficiency headline.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Stable text rendering, one counter per line — the golden-test
    /// format. Any widening of the counter set shows up as a diff.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: u64| out.push_str(&format!("{k:<28} {v}\n"));
        line("submitted", self.submitted);
        line("accepted", self.accepted);
        line("rejected_queue_full", self.rejected_queue_full);
        line("rejected_shutdown", self.rejected_shutdown);
        line("completed", self.completed);
        line("ok_responses", self.ok_responses);
        line("invalid", self.invalid);
        line("fallback_deadline", self.fallback_deadline);
        line("fallback_panic", self.fallback_panic);
        line("fallback_shard", self.fallback_shard);
        line("worker_panics", self.worker_panics);
        line("shard_restarts", self.shard_restarts);
        line("queue_poison_recoveries", self.queue_poison_recoveries);
        line("batches", self.batches);
        line("batched_requests", self.batched_requests);
        line("swaps", self.swaps);
        line("rollbacks", self.rollbacks);
        line("shadow_comparisons", self.shadow_comparisons);
        line("queue_depth_max", self.queue_depth_max);
        line("model_version", self.model_version);
        for (i, &count) in self.batch_sizes.iter().enumerate() {
            let label = match BATCH_EDGES.get(i) {
                Some(e) => format!("batch_size<={e}"),
                None => "batch_size_overflow".to_string(),
            };
            line(&label, count);
        }
        for (i, &count) in self.latency.iter().enumerate() {
            let label = match LATENCY_EDGES_NS.get(i) {
                Some(e) => format!("latency_ns<={e}"),
                None => "latency_overflow".to_string(),
            };
            line(&label, count);
        }
        for (i, &count) in self.shadow_divergence.iter().enumerate() {
            let label = match DIVERGENCE_EDGES_MILLI.get(i) {
                Some(e) => format!("shadow_divergence<={e}"),
                None => "shadow_divergence_overflow".to_string(),
            };
            line(&label, count);
        }
        out
    }

    /// The same snapshot in the workspace-wide mergeable form, for callers
    /// holding the typed struct rather than live [`ServeMetrics`].
    pub fn to_obs(&self) -> rpf_obs::MetricsSnapshot {
        let counter = |name: &str, value: u64| rpf_obs::CounterSample {
            name: name.to_string(),
            value,
        };
        rpf_obs::MetricsSnapshot {
            counters: vec![
                counter("serve_submitted", self.submitted),
                counter("serve_accepted", self.accepted),
                counter("serve_rejected_queue_full", self.rejected_queue_full),
                counter("serve_rejected_shutdown", self.rejected_shutdown),
                counter("serve_completed", self.completed),
                counter("serve_ok_responses", self.ok_responses),
                counter("serve_invalid", self.invalid),
                counter("serve_fallback_deadline", self.fallback_deadline),
                counter("serve_fallback_panic", self.fallback_panic),
                counter("serve_fallback_shard", self.fallback_shard),
                counter("serve_worker_panics", self.worker_panics),
                counter("serve_shard_restarts", self.shard_restarts),
                counter(
                    "serve_queue_poison_recoveries",
                    self.queue_poison_recoveries,
                ),
                counter("serve_batches", self.batches),
                counter("serve_batched_requests", self.batched_requests),
                counter("serve_swaps", self.swaps),
                counter("serve_rollbacks", self.rollbacks),
                counter("serve_shadow_comparisons", self.shadow_comparisons),
            ],
            gauges: vec![
                rpf_obs::GaugeSample {
                    name: "serve_queue_depth_max".to_string(),
                    value: self.queue_depth_max,
                },
                rpf_obs::GaugeSample {
                    name: "rpf_model_version".to_string(),
                    value: self.model_version,
                },
            ],
            histograms: vec![
                rpf_obs::HistogramSample {
                    name: "serve_batch_size".to_string(),
                    edges: BATCH_EDGES.to_vec(),
                    buckets: self.batch_sizes.to_vec(),
                    count: self.batch_sizes.iter().sum(),
                    sum: 0,
                },
                rpf_obs::HistogramSample {
                    name: "serve_latency_ns".to_string(),
                    edges: LATENCY_EDGES_NS.to_vec(),
                    buckets: self.latency.to_vec(),
                    count: self.latency.iter().sum(),
                    sum: 0,
                },
                rpf_obs::HistogramSample {
                    name: "serve_shadow_divergence_milli".to_string(),
                    edges: DIVERGENCE_EDGES_MILLI.to_vec(),
                    buckets: self.shadow_divergence.to_vec(),
                    count: self.shadow_divergence.iter().sum(),
                    sum: 0,
                },
            ],
            ops: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Fold another region's counters into this one: counters and
    /// histogram buckets add; `queue_depth_max` and `model_version` take
    /// the max (depth is a high-water mark; versions only move forward
    /// under rolling swaps, so the max is the fleet's newest).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.submitted += other.submitted;
        self.accepted += other.accepted;
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_shutdown += other.rejected_shutdown;
        self.completed += other.completed;
        self.ok_responses += other.ok_responses;
        self.invalid += other.invalid;
        self.fallback_deadline += other.fallback_deadline;
        self.fallback_panic += other.fallback_panic;
        self.fallback_shard += other.fallback_shard;
        self.worker_panics += other.worker_panics;
        self.shard_restarts += other.shard_restarts;
        self.queue_poison_recoveries += other.queue_poison_recoveries;
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.swaps += other.swaps;
        self.rollbacks += other.rollbacks;
        self.shadow_comparisons += other.shadow_comparisons;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.model_version = self.model_version.max(other.model_version);
        for (a, b) in self.latency.iter_mut().zip(other.latency) {
            *a += b;
        }
        for (a, b) in self.batch_sizes.iter_mut().zip(other.batch_sizes) {
            *a += b;
        }
        for (a, b) in self
            .shadow_divergence
            .iter_mut()
            .zip(other.shadow_divergence)
        {
            *a += b;
        }
    }

    /// [`MetricsSnapshot::to_obs`] with every sample name labelled
    /// `name{shard="i"}` — the exposition form of one shard's region, so a
    /// scrape can tell shards apart while `rpf_obs` renders the label
    /// inside the metric's brace set (see `rpf_obs::render_prometheus`).
    pub fn to_obs_labeled(&self, shard: usize) -> rpf_obs::MetricsSnapshot {
        let mut obs = self.to_obs();
        let tag = |name: &str| format!("{name}{{shard=\"{shard}\"}}");
        for c in &mut obs.counters {
            c.name = tag(&c.name);
        }
        for g in &mut obs.gauges {
            g.name = tag(&g.name);
        }
        for h in &mut obs.histograms {
            h.name = tag(&h.name);
        }
        obs
    }
}

/// The metrics of one sharded serving region: every shard's snapshot in
/// shard order, merged on demand. Returned by [`crate::serve_sharded`]
/// and carried by the virtual-clock [`crate::ShardedReplay`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardedSnapshot {
    pub per_shard: Vec<MetricsSnapshot>,
}

impl ShardedSnapshot {
    /// The fleet-wide totals (see [`MetricsSnapshot::merge`]).
    pub fn merged(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for s in &self.per_shard {
            out.merge(s);
        }
        out
    }

    /// Golden-stable rendering: the merged block first, then one block per
    /// shard, each introduced by a `-- merged --` / `-- shard N --` header.
    pub fn render(&self) -> String {
        let mut out = String::from("-- merged --\n");
        out.push_str(&self.merged().render());
        for (i, s) in self.per_shard.iter().enumerate() {
            out.push_str(&format!("-- shard {i} --\n"));
            out.push_str(&s.render());
        }
        out
    }

    /// Workspace-wide exposition form: merged samples unlabelled (the
    /// fleet totals, name-compatible with the flat `serve()` snapshot)
    /// plus every shard's samples labelled `{shard="i"}`.
    pub fn to_obs(&self) -> rpf_obs::MetricsSnapshot {
        let mut obs = self.merged().to_obs();
        for (i, s) in self.per_shard.iter().enumerate() {
            obs.merge(&s.to_obs_labeled(i));
        }
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpf_obs::registry::bucket_index;

    #[test]
    fn bucket_index_walks_the_ladder() {
        assert_eq!(bucket_index(&BATCH_EDGES, 1), 0);
        assert_eq!(bucket_index(&BATCH_EDGES, 2), 1);
        assert_eq!(bucket_index(&BATCH_EDGES, 3), 2);
        assert_eq!(bucket_index(&BATCH_EDGES, 32), 5);
        assert_eq!(bucket_index(&BATCH_EDGES, 33), 6);
        assert_eq!(bucket_index(&LATENCY_EDGES_NS, 0), 0);
        assert_eq!(bucket_index(&LATENCY_EDGES_NS, 2_000_000_000), 11);
    }

    #[test]
    fn render_covers_every_bucket_and_roundtrips_counts() {
        let m = ServeMetrics::new();
        m.record_submitted();
        m.record_accepted(3);
        m.record_batch(4);
        m.record_response(ResponseKind::Ok, 7_000);
        let snap = m.snapshot();
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.queue_depth_max, 3);
        assert_eq!(snap.batch_sizes[2], 1);
        assert_eq!(snap.latency[0], 1);
        let text = snap.render();
        assert_eq!(
            text.lines().count(),
            20 + BATCH_EDGES.len()
                + 1
                + LATENCY_EDGES_NS.len()
                + 1
                + DIVERGENCE_EDGES_MILLI.len()
                + 1
        );
        assert!(text.contains("latency_ns<=10000"));
    }

    #[test]
    fn obs_snapshot_carries_the_same_tallies() {
        let m = ServeMetrics::new();
        m.record_submitted();
        m.record_accepted(2);
        m.record_batch(3);
        m.record_response(ResponseKind::Ok, 60_000);
        let obs = m.obs_snapshot();
        let submitted = obs
            .counters
            .iter()
            .find(|c| c.name == "serve_submitted")
            .map(|c| c.value);
        assert_eq!(submitted, Some(1));
        let lat = obs
            .histograms
            .iter()
            .find(|h| h.name == "serve_latency_ns")
            .expect("latency histogram registered");
        assert_eq!(lat.count, 1);
        assert_eq!(lat.buckets[2], 1, "60 µs lands in the <=100 µs bucket");
        // The typed snapshot converts to the same bucket counts.
        let typed = m.snapshot().to_obs();
        let lat2 = typed
            .histograms
            .iter()
            .find(|h| h.name == "serve_latency_ns")
            .expect("latency histogram in typed conversion");
        assert_eq!(lat2.buckets, lat.buckets);
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = MetricsSnapshot {
            submitted: 3,
            queue_depth_max: 2,
            model_version: 7,
            ..MetricsSnapshot::default()
        };
        a.latency[0] = 1;
        let mut b = MetricsSnapshot {
            submitted: 4,
            queue_depth_max: 5,
            model_version: 6,
            ..MetricsSnapshot::default()
        };
        b.latency[0] = 2;
        a.merge(&b);
        assert_eq!(a.submitted, 7);
        assert_eq!(a.queue_depth_max, 5, "depth is a high-water mark");
        assert_eq!(a.model_version, 7, "version takes the newest");
        assert_eq!(a.latency[0], 3);
    }

    #[test]
    fn sharded_snapshot_renders_merged_then_per_shard() {
        let s0 = MetricsSnapshot {
            submitted: 1,
            ..MetricsSnapshot::default()
        };
        let s1 = MetricsSnapshot {
            submitted: 2,
            ..MetricsSnapshot::default()
        };
        let sharded = ShardedSnapshot {
            per_shard: vec![s0, s1],
        };
        assert_eq!(sharded.merged().submitted, 3);
        let text = sharded.render();
        assert!(text.starts_with("-- merged --\n"));
        assert!(text.contains("-- shard 0 --\n"));
        assert!(text.contains("-- shard 1 --\n"));
        let obs = sharded.to_obs();
        assert!(obs
            .counters
            .iter()
            .any(|c| c.name == "serve_submitted" && c.value == 3));
        assert!(obs
            .counters
            .iter()
            .any(|c| c.name == "serve_submitted{shard=\"1\"}" && c.value == 2));
    }
}
