//! Release-gate for the scale-out claim (DESIGN.md §15): on a saturating
//! multi-race load, four shards must clear at least 1.6x the request rate
//! of one shard, and must never make tail latency worse.
//!
//! The gate runs on the deterministic virtual clock (`replay_sharded`), not
//! wall time, so it is machine-independent: the same script produces the
//! same per-shard schedules and the same throughput ratio on a laptop, a
//! loaded CI box, or a single-core container. No wall-clock counterpart is
//! kept: `perfbench` times one-shard serving only.

use rpf_nn::RngStreams;
use rpf_serve::loadgen::{self, MultiRaceMix};
use rpf_serve::{replay_sharded, ServeConfig, ServiceModel};
use std::time::Duration;

/// A saturating mix: three back-to-back 128-request bursts over four races,
/// Zipf-skewed, queue sized so nothing is rejected — throughput differences
/// come from service parallelism alone, not admission control.
fn saturating_script() -> (
    ServeConfig,
    Vec<(u64, rpf_serve::ServeRequest)>,
    ServiceModel,
) {
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 8,
        max_delay: Duration::from_micros(500),
        queue_capacity: 4096,
    };
    let svc = ServiceModel {
        batch_overhead_ns: 200_000,
        per_request_ns: 100_000,
    };

    let streams = RngStreams::new(0x5CA1E);
    let mix = MultiRaceMix::new(4, (50, 100), 1.0);
    let ms = Duration::from_millis;
    let script = loadgen::merge(vec![
        mix.schedule(&loadgen::burst(ms(0), 128), &streams.child(0), 0),
        mix.schedule(&loadgen::burst(ms(5), 128), &streams.child(1), 1_000),
        mix.schedule(&loadgen::burst(ms(10), 128), &streams.child(2), 2_000),
    ]);
    let script_ns = script
        .into_iter()
        .map(|(t, req)| (t.as_nanos() as u64, req))
        .collect();
    (cfg, script_ns, svc)
}

#[test]
fn four_shards_clear_at_least_1_6x_the_single_shard_rate() {
    let (cfg, script, svc) = saturating_script();

    let one = replay_sharded(&cfg, 1, &script, &svc);
    let four = replay_sharded(&cfg, 4, &script, &svc);

    // Nothing rejected on either layout: the comparison is pure service.
    for (label, run) in [("1 shard", &one), ("4 shards", &four)] {
        let m = run.snapshot.merged();
        assert_eq!(m.completed, 384, "{label}: every request must complete");
        assert_eq!(m.rejected_queue_full, 0, "{label}: queue must not clip");
    }

    let rate1 = one.completed_per_sec();
    let rate4 = four.completed_per_sec();
    assert!(
        rate4 >= 1.6 * rate1,
        "scale-out gate failed: 4 shards {rate4:.0} req/s vs 1 shard \
         {rate1:.0} req/s ({:.2}x < 1.6x)",
        rate4 / rate1
    );
    assert!(
        four.p99_ns() <= one.p99_ns(),
        "sharding must not regress tail latency: p99 {} ns (4 shards) vs \
         {} ns (1 shard)",
        four.p99_ns(),
        one.p99_ns()
    );
}

/// The gate's inputs are deterministic: the ratio itself is a pure
/// function of the script, so the gate can never flake on a loaded box.
#[test]
fn scaling_gate_ratio_is_reproducible() {
    let (cfg, script, svc) = saturating_script();
    let a = replay_sharded(&cfg, 4, &script, &svc);
    let b = replay_sharded(&cfg, 4, &script, &svc);
    assert_eq!(a.snapshot.per_shard, b.snapshot.per_shard);
    assert_eq!(a.makespan_ns, b.makespan_ns);
}
