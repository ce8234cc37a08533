//! Golden test for serving metrics: a fixed scripted load replayed on the
//! virtual clock must reproduce the checked-in counter snapshot *exactly* —
//! every latency bucket, the queue-depth high-water mark, every rejection
//! and fallback tally. Any change to the admission, batching or deadline
//! policy shows up as a diff against `golden/metrics_replay.txt`.
//!
//! Regenerate (after deliberate policy changes only) with:
//! `UPDATE_GOLDEN=1 cargo test -p rpf-serve --test metrics_golden`

use rpf_nn::RngStreams;
use rpf_serve::loadgen::{self, LoadMix, MultiRaceMix};
use rpf_serve::{
    replay, replay_sharded, replay_with_events, ReplayEvent, ServeConfig, ServiceModel,
};
use std::path::PathBuf;
use std::time::Duration;

fn golden_path_named(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn golden_path() -> PathBuf {
    golden_path_named("metrics_replay.txt")
}

fn check_golden(path: &PathBuf, rendered: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        golden, rendered,
        "serving metrics diverged from the golden snapshot; if the policy \
         change is deliberate, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The pinned scenario: a thundering-herd burst that overflows the queue,
/// a ramp, a deadline-budgeted trickle arriving while the worker is still
/// digging out, and a late second burst. Everything below is a constant.
fn scripted_load() -> (
    ServeConfig,
    Vec<(u64, rpf_serve::ServeRequest)>,
    ServiceModel,
) {
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 8,
        max_delay: Duration::from_micros(500),
        queue_capacity: 16,
    };
    let svc = ServiceModel {
        batch_overhead_ns: 200_000, // 200 µs per dispatch
        per_request_ns: 100_000,    // +100 µs per live request
    };

    let streams = RngStreams::new(0x601D);
    let hot = LoadMix {
        unique_queries: Some(4),
        ..LoadMix::standard(2, (50, 100))
    };
    let plain = LoadMix::standard(2, (40, 120));
    let budgeted = LoadMix {
        deadline: Some(Duration::from_millis(1)),
        ..LoadMix::standard(2, (40, 120))
    };

    let ms = Duration::from_millis;
    let script = loadgen::merge(vec![
        // 32 at t=0 against a 16-deep queue: half must bounce.
        loadgen::schedule(&loadgen::burst(ms(0), 32), &hot, &streams.child(0), 0),
        loadgen::schedule(
            &loadgen::ramp(ms(2), ms(10), 24),
            &plain,
            &streams.child(1),
            1_000,
        ),
        // 1 ms deadlines arriving while the worker is still digging out of
        // the opening burst backlog: the early ones expire in the queue.
        loadgen::schedule(
            &loadgen::uniform(Duration::from_micros(500), Duration::from_micros(250), 16),
            &budgeted,
            &streams.child(2),
            2_000,
        ),
        loadgen::schedule(&loadgen::burst(ms(15), 8), &hot, &streams.child(3), 3_000),
    ]);
    let script_ns = script
        .into_iter()
        .map(|(t, req)| (t.as_nanos() as u64, req))
        .collect();
    (cfg, script_ns, svc)
}

#[test]
fn replayed_metrics_match_golden_snapshot_exactly() {
    let (cfg, script, svc) = scripted_load();
    let snap = replay(&cfg, &script, &svc);

    // The snapshot must at least be internally consistent before we pin it.
    assert_eq!(snap.submitted, 80);
    assert_eq!(snap.accepted + snap.rejected_queue_full, snap.submitted);
    assert_eq!(snap.completed, snap.accepted);
    assert_eq!(snap.ok_responses + snap.fallback_deadline, snap.completed);
    assert!(
        snap.rejected_queue_full > 0,
        "scenario must overflow the queue"
    );
    assert!(snap.fallback_deadline > 0, "scenario must expire deadlines");
    assert!(snap.queue_depth_max <= cfg.queue_capacity as u64);
    assert!(snap.mean_batch_size() > 1.0, "scenario must batch");

    check_golden(&golden_path(), &snap.render());
}

/// The swap-bearing trace: the same scripted load with lifecycle events —
/// shadow comparisons, a promotion mid-burst, a later rollback — pinned on
/// the virtual clock (DESIGN.md §14). Any drift in how lifecycle events
/// fold into the counters shows up as a diff.
fn scripted_swap_events() -> Vec<(u64, ReplayEvent)> {
    vec![
        // Shadow comparisons during the opening burst's digest.
        (
            1_000_000,
            ReplayEvent::ShadowComparison {
                divergence_milli: 0,
            },
        ),
        (
            2_000_000,
            ReplayEvent::ShadowComparison {
                divergence_milli: 12,
            },
        ),
        (
            3_000_000,
            ReplayEvent::ShadowComparison {
                divergence_milli: 7,
            },
        ),
        // Promote mid-ramp: the gauge must stick at the new version.
        (5_000_000, ReplayEvent::Swap { version: 2 }),
        // A later candidate diverges hard and is rolled back.
        (
            12_000_000,
            ReplayEvent::ShadowComparison {
                divergence_milli: 800,
            },
        ),
        (
            13_000_000,
            ReplayEvent::ShadowComparison {
                divergence_milli: 1_200,
            },
        ),
        (14_000_000, ReplayEvent::Rollback),
    ]
}

#[test]
fn swap_bearing_replay_matches_golden_snapshot_exactly() {
    let (cfg, script, svc) = scripted_load();
    let snap = replay_with_events(&cfg, &script, &scripted_swap_events(), &svc);

    // Lifecycle events must not perturb the scheduling counters at all:
    // the same script serves identically with and without the events.
    let base = replay(&cfg, &script, &svc);
    assert_eq!(snap.submitted, base.submitted);
    assert_eq!(snap.completed, base.completed);
    assert_eq!(snap.latency, base.latency);
    assert_eq!(snap.batch_sizes, base.batch_sizes);

    assert_eq!(snap.swaps, 1);
    assert_eq!(snap.rollbacks, 1);
    assert_eq!(snap.shadow_comparisons, 5);
    assert_eq!(snap.model_version, 2);

    check_golden(
        &golden_path_named("metrics_replay_swap.txt"),
        &snap.render(),
    );
}

/// A swap-bearing trace is as deterministic as a plain one: same script,
/// same events, same counters, bit-for-bit, run-to-run.
#[test]
fn swap_bearing_replay_is_deterministic_across_runs() {
    let (cfg, script, svc) = scripted_load();
    let events = scripted_swap_events();
    let a = replay_with_events(&cfg, &script, &events, &svc);
    let b = replay_with_events(&cfg, &script, &events, &svc);
    assert_eq!(a, b);
    assert_eq!(a.render(), b.render());
}

/// The pinned multi-race scenario for the sharded replay: a Zipf-skewed
/// four-race mix whose bursts land unevenly across two shards. The golden
/// pins the per-shard counter split *and* the merged totals, so any drift
/// in the router hash, the Zipf draw, or the per-shard scheduler shows up
/// as a diff against `golden/metrics_replay_sharded.txt`.
fn sharded_script() -> (
    ServeConfig,
    Vec<(u64, rpf_serve::ServeRequest)>,
    ServiceModel,
) {
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 8,
        max_delay: Duration::from_micros(500),
        queue_capacity: 16,
    };
    let svc = ServiceModel {
        batch_overhead_ns: 200_000,
        per_request_ns: 100_000,
    };

    let streams = RngStreams::new(0x5EED);
    let mix = MultiRaceMix::new(4, (50, 100), 1.0);
    let ms = Duration::from_millis;
    let script = loadgen::merge(vec![
        mix.schedule(&loadgen::burst(ms(0), 24), &streams.child(0), 0),
        mix.schedule(&loadgen::ramp(ms(2), ms(10), 24), &streams.child(1), 1_000),
        mix.schedule(&loadgen::burst(ms(12), 16), &streams.child(2), 2_000),
    ]);
    let script_ns = script
        .into_iter()
        .map(|(t, req)| (t.as_nanos() as u64, req))
        .collect();
    (cfg, script_ns, svc)
}

#[test]
fn sharded_replay_matches_golden_snapshot_exactly() {
    let (cfg, script, svc) = sharded_script();
    let sharded = replay_sharded(&cfg, 2, &script, &svc);

    // Conservation before pinning: every scripted request is accounted for
    // on exactly one shard, and both shards see traffic.
    let submitted: u64 = sharded.snapshot.per_shard.iter().map(|s| s.submitted).sum();
    assert_eq!(submitted, 64);
    let merged = sharded.snapshot.merged();
    assert_eq!(merged.submitted, 64);
    assert_eq!(merged.accepted + merged.rejected_queue_full, 64);
    assert_eq!(merged.completed, merged.accepted);
    assert!(
        sharded.snapshot.per_shard.iter().all(|s| s.submitted > 0),
        "the Zipf mix must load every shard"
    );

    check_golden(
        &golden_path_named("metrics_replay_sharded.txt"),
        &sharded.snapshot.render(),
    );
}

/// The sharded replay is a pure function of (config, shard count, script):
/// same inputs, same per-shard counters and latencies, bit-for-bit.
#[test]
fn sharded_replay_is_deterministic_across_runs() {
    let (cfg, script, svc) = sharded_script();
    let a = replay_sharded(&cfg, 2, &script, &svc);
    let b = replay_sharded(&cfg, 2, &script, &svc);
    assert_eq!(a.snapshot.per_shard, b.snapshot.per_shard);
    assert_eq!(a.latencies_ns, b.latencies_ns);
    assert_eq!(a.makespan_ns, b.makespan_ns);
}

/// The replay itself is a pure function: same script, same counters,
/// bit-for-bit, run-to-run.
#[test]
fn replay_is_deterministic_across_runs() {
    let (cfg, script, svc) = scripted_load();
    let a = replay(&cfg, &script, &svc);
    let b = replay(&cfg, &script, &svc);
    assert_eq!(a, b);
    assert_eq!(a.render(), b.render());
}
