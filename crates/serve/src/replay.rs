//! Deterministic scheduler replay on a virtual clock.
//!
//! Wall-clock latency histograms can never be golden-tested — the numbers
//! move with the machine. This module is a discrete-event loop over the
//! serving shard's own scheduler core (`scheduler.rs`): the same
//! admission, batching decision, deadline split and metric recording the
//! threaded workers run, fed virtual nanosecond instants instead of
//! wall-clock readings. The loop owns no queue. It admits each scripted
//! arrival at its instant, closes the core once the script is exhausted,
//! forms a batch whenever the core says so at the instant a single
//! virtual worker is free, and answers it on a fixed [`ServiceModel`].
//! Every counter in the resulting [`MetricsSnapshot`] — latency buckets,
//! queue-depth high-water mark, rejection and fallback tallies — is then
//! an exact, machine-independent function of the script, which is what
//! the checked-in golden snapshot pins.
//!
//! Tie-break rule: an arrival scheduled at exactly a dispatch instant is
//! admitted *before* the batch forms (it can join the batch). This makes
//! simultaneous events deterministic.

use crate::config::ServeConfig;
use crate::metrics::{MetricsSnapshot, ResponseKind, ServeMetrics, ShardedSnapshot};
use crate::scheduler::{Scheduler, Step};
use crate::server::ServeRequest;

/// Fixed virtual cost of serving a batch: `batch_overhead_ns` once per
/// dispatch plus `per_request_ns` per live (non-expired) request.
#[derive(Clone, Copy, Debug)]
pub struct ServiceModel {
    pub batch_overhead_ns: u64,
    pub per_request_ns: u64,
}

impl ServiceModel {
    /// When a batch that starts at `start_ns` with `live` requests to
    /// serve completes (at once when every request had expired).
    fn completion_ns(&self, start_ns: u64, live: usize) -> u64 {
        if live == 0 {
            start_ns
        } else {
            start_ns + self.batch_overhead_ns + self.per_request_ns * live as u64
        }
    }
}

/// A scripted lifecycle event on the replay's virtual timeline. Events
/// mutate the lifecycle counters exactly as the threaded scheduler's
/// controller would, so a swap-bearing trace replays to a bit-exact
/// [`MetricsSnapshot`] that golden tests can pin.
#[derive(Clone, Copy, Debug)]
pub enum ReplayEvent {
    /// A candidate was promoted and hot-swapped in as `version`.
    Swap { version: u64 },
    /// A shadow comparison ran with this divergence (milli-rank units).
    ShadowComparison { divergence_milli: u64 },
    /// A candidate was rolled back; the serving version is unchanged.
    Rollback,
}

/// Replay `schedule` — `(arrival_ns, request)` pairs — through the
/// scheduler policy under `cfg` and `svc`, returning the exact metrics a
/// single-worker server would have produced on this virtual timeline.
pub fn replay(
    cfg: &ServeConfig,
    schedule: &[(u64, ServeRequest)],
    svc: &ServiceModel,
) -> MetricsSnapshot {
    replay_with_events(cfg, schedule, &[], svc)
}

/// [`replay`] over a trace that also carries lifecycle events —
/// `(event_ns, event)` pairs interleaved with the arrivals on the same
/// virtual clock. Tie-break: an event at exactly an arrival or dispatch
/// instant is applied *before* that action, mirroring the arrival rule.
pub fn replay_with_events(
    cfg: &ServeConfig,
    schedule: &[(u64, ServeRequest)],
    events: &[(u64, ReplayEvent)],
    svc: &ServiceModel,
) -> MetricsSnapshot {
    replay_core(cfg, schedule, events, svc).0
}

/// Replay one virtual region. Returns its golden-testable snapshot, every
/// response's latency in completion order (a deadline fallback included:
/// it is still an answer the caller waited for), and the instant its last
/// work finished (or its last arrival, if later) — the raw material the
/// capacity planner validates against.
fn replay_core(
    cfg: &ServeConfig,
    schedule: &[(u64, ServeRequest)],
    events: &[(u64, ReplayEvent)],
    svc: &ServiceModel,
) -> (MetricsSnapshot, Vec<u64>, u64) {
    let cfg = cfg.normalized();
    let metrics = ServeMetrics::new();

    let mut arrivals: Vec<(u64, ServeRequest)> = schedule.to_vec();
    arrivals.sort_by_key(|(t, _)| *t); // stable: equal times keep script order
    let mut lifecycle: Vec<(u64, ReplayEvent)> = events.to_vec();
    lifecycle.sort_by_key(|(t, _)| *t);

    let mut core: Scheduler<()> = Scheduler::new(cfg);
    let mut next = 0usize; // index of the next unadmitted arrival
    let mut next_event = 0usize; // index of the next unapplied event
    let mut now = 0u64; // instant of the last arrival, hold expiry or dispatch
    let mut t_free = 0u64; // virtual worker is idle from this instant
    let mut latencies: Vec<u64> = Vec::with_capacity(arrivals.len());

    loop {
        // The exhausted script closes admission, exactly as the end of a
        // serving region's body does for the threaded workers.
        if next == arrivals.len() {
            core.close();
        }
        // The worker consults the core at the first instant it is free.
        let at = now.max(t_free);
        let step = core.next_step(at);
        let act_at = match step {
            Step::Dispatch(_) => Some(at),
            Step::Wait(hold) => Some(at + hold.as_nanos() as u64),
            Step::Idle | Step::Shutdown => None,
        };
        let next_arrival = arrivals.get(next).map(|(t, _)| *t);

        // Lifecycle events apply ahead of any arrival or worker action at
        // the same instant (and unconditionally once the trace is drained).
        if let Some(&(te, ev)) = lifecycle.get(next_event) {
            let horizon = next_arrival.into_iter().chain(act_at).min();
            if horizon.is_none_or(|h| te <= h) {
                apply_event(&metrics, ev);
                next_event += 1;
                continue;
            }
        }

        if let Some(ta) = next_arrival.filter(|&ta| act_at.is_none_or(|tw| ta <= tw)) {
            // A refusal is already counted by the core; nothing else to do.
            let _ = core.admit(arrivals[next].1, (), ta, &metrics);
            next += 1;
            now = ta;
        } else if let Some(tw) = act_at {
            if let Step::Dispatch(n) = step {
                let batch = core.form_batch(n, at, &metrics);
                let done = svc.completion_ns(at, batch.live.len());
                // Expired entries answer with the fallback as the batch
                // forms; live ones when it completes.
                let expired = (batch.expired.iter())
                    .map(|e| (ResponseKind::FallbackDeadline, e.waited_ns(at)));
                let live = (batch.live.iter()).map(|e| (ResponseKind::Ok, e.waited_ns(done)));
                for (kind, latency_ns) in expired.chain(live) {
                    metrics.record_response(kind, latency_ns);
                    latencies.push(latency_ns);
                }
                t_free = done;
            }
            // Otherwise the hold expired with no arrival: decide again.
            now = tw;
        } else {
            break;
        }
    }
    let last_arrival = arrivals.last().map_or(0, |(t, _)| *t);
    (metrics.snapshot(), latencies, t_free.max(last_arrival))
}

/// The outcome of [`replay_sharded`]: the same per-shard snapshot a live
/// [`crate::serve_sharded`] region returns, plus the fleet-wide latency
/// population and virtual makespan. Deterministic — the same script and
/// layout replay to these exact numbers on any machine, which is what
/// lets a scaling gate and the capacity planner's round-trip test run in
/// CI without touching the wall clock.
#[derive(Clone, Debug)]
pub struct ShardedReplay {
    /// Every shard's counters, in shard order.
    pub snapshot: ShardedSnapshot,
    /// Every shard's response latencies, merged and sorted ascending.
    pub latencies_ns: Vec<u64>,
    /// Virtual end-to-end duration: the latest instant any shard finished
    /// work (shards run concurrently on the virtual timeline).
    pub makespan_ns: u64,
}

impl ShardedReplay {
    /// Virtual throughput: completed responses per virtual second.
    pub fn completed_per_sec(&self) -> f64 {
        let completed = self.snapshot.merged().completed;
        if self.makespan_ns == 0 {
            0.0
        } else {
            completed as f64 * 1e9 / self.makespan_ns as f64
        }
    }

    /// Exact p99 of the merged latency population (0 when empty).
    pub fn p99_ns(&self) -> u64 {
        percentile_ns(&self.latencies_ns, 0.99)
    }
}

/// Exact percentile over an ascending-sorted latency population
/// (nearest-rank; 0 when empty).
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Replay `schedule` across `shards` virtual regions: each arrival goes to
/// the shard [`crate::shard_of`] routes it to (preserving script order
/// within a shard), each shard replays independently under `cfg` and
/// `svc` — one virtual worker per shard, exactly as [`replay`] models one
/// shard — and the outcomes merge into a [`ShardedReplay`].
pub fn replay_sharded(
    cfg: &ServeConfig,
    shards: usize,
    schedule: &[(u64, ServeRequest)],
    svc: &ServiceModel,
) -> ShardedReplay {
    let shards = shards.max(1);
    let mut parts: Vec<Vec<(u64, ServeRequest)>> = vec![Vec::new(); shards];
    for &(t, req) in schedule {
        parts[crate::router::shard_of(req.race, req.origin, shards)].push((t, req));
    }
    let mut per_shard = Vec::with_capacity(shards);
    let mut latencies = Vec::with_capacity(schedule.len());
    let mut makespan = 0u64;
    for part in &parts {
        let (snapshot, part_latencies, t_end) = replay_core(cfg, part, &[], svc);
        per_shard.push(snapshot);
        latencies.extend(part_latencies);
        makespan = makespan.max(t_end);
    }
    latencies.sort_unstable();
    ShardedReplay {
        snapshot: ShardedSnapshot { per_shard },
        latencies_ns: latencies,
        makespan_ns: makespan,
    }
}

fn apply_event(metrics: &ServeMetrics, ev: ReplayEvent) {
    match ev {
        ReplayEvent::Swap { version } => {
            metrics.record_lifecycle(1, 0, 0, &[]);
            metrics.set_model_version(version);
        }
        ReplayEvent::ShadowComparison { divergence_milli } => {
            metrics.record_lifecycle(0, 0, 1, &[divergence_milli]);
        }
        ReplayEvent::Rollback => {
            metrics.record_lifecycle(0, 1, 0, &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn req() -> ServeRequest {
        ServeRequest::new(0, 50, 2, 4)
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            workers: 1,
            max_batch: 4,
            max_delay: Duration::from_nanos(1_000),
            queue_capacity: 8,
        }
    }

    const SVC: ServiceModel = ServiceModel {
        batch_overhead_ns: 100,
        per_request_ns: 50,
    };

    #[test]
    fn a_burst_coalesces_into_one_batch() {
        let sched: Vec<(u64, ServeRequest)> = (0..4).map(|_| (0, req())).collect();
        let snap = replay(&cfg(), &sched, &SVC);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.batch_sizes[2], 1); // one batch of size <= 4
        assert_eq!(snap.completed, 4);
        // Completion at 0 + 100 + 4*50 = 300 ns for all four.
        assert_eq!(snap.latency[0], 4);
    }

    #[test]
    fn underfull_batch_waits_max_delay_then_flushes() {
        let sched = vec![(0u64, req()), (5_000u64, req())];
        let snap = replay(&cfg(), &sched, &SVC);
        // First request dispatches alone at t=1000 (max_delay), second
        // arrives later and dispatches alone too.
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batch_sizes[0], 2);
    }

    #[test]
    fn overload_rejects_beyond_capacity_and_bounds_depth() {
        let sched: Vec<(u64, ServeRequest)> = (0..20).map(|_| (0, req())).collect();
        let snap = replay(&cfg(), &sched, &SVC);
        // Capacity 8: twelve arrivals bounce, depth never exceeds 8.
        assert_eq!(snap.rejected_queue_full, 12);
        assert_eq!(snap.accepted, 8);
        assert_eq!(snap.queue_depth_max, 8);
        assert_eq!(snap.completed, 8);
    }

    #[test]
    fn zero_deadline_degrades_to_fallback() {
        let sched = vec![(0u64, req().with_deadline(Duration::ZERO))];
        let snap = replay(&cfg(), &sched, &SVC);
        assert_eq!(snap.fallback_deadline, 1);
        assert_eq!(snap.ok_responses, 0);
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn one_shard_replay_matches_the_flat_replay() {
        let sched: Vec<(u64, ServeRequest)> = (0..10).map(|i| (i * 400, req())).collect();
        let flat = replay(&cfg(), &sched, &SVC);
        let sharded = replay_sharded(&cfg(), 1, &sched, &SVC);
        assert_eq!(sharded.snapshot.per_shard.len(), 1);
        assert_eq!(sharded.snapshot.merged(), flat);
    }

    #[test]
    fn sharded_replay_conserves_across_shards() {
        let sched: Vec<(u64, ServeRequest)> = (0..40)
            .map(|i| {
                (
                    i * 200,
                    ServeRequest::new((i % 4) as usize, 40 + (i % 16) as usize, 2, 4),
                )
            })
            .collect();
        let sharded = replay_sharded(&cfg(), 4, &sched, &SVC);
        let merged = sharded.snapshot.merged();
        assert_eq!(merged.submitted, 40);
        assert_eq!(merged.completed, merged.accepted);
        assert_eq!(sharded.latencies_ns.len() as u64, merged.completed);
        assert!(sharded.latencies_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(sharded.makespan_ns > 0);
        assert!(sharded.p99_ns() >= percentile_ns(&sharded.latencies_ns, 0.5));
        // Determinism: replaying the identical script is bit-identical.
        let again = replay_sharded(&cfg(), 4, &sched, &SVC);
        assert_eq!(again.snapshot.per_shard, sharded.snapshot.per_shard);
        assert_eq!(again.latencies_ns, sharded.latencies_ns);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile_ns(&[], 0.99), 0);
        assert_eq!(percentile_ns(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 0.99), 99);
        assert_eq!(percentile_ns(&v, 1.0), 100);
    }

    #[test]
    fn conservation_holds_on_every_script() {
        let sched: Vec<(u64, ServeRequest)> = (0..13)
            .map(|i| (i * 700, req().with_deadline(Duration::from_nanos(900))))
            .collect();
        let snap = replay(&cfg(), &sched, &SVC);
        assert_eq!(snap.accepted + snap.rejected_queue_full, snap.submitted);
        assert_eq!(snap.completed, snap.accepted);
        assert_eq!(snap.ok_responses + snap.fallback_deadline, snap.completed);
    }
}
