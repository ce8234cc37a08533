//! Round-trip validation of the capacity planner (DESIGN.md §15): the
//! shard count the analytic M/M/1 inverse picks must agree — within one
//! shard — with the minimal count found by actually simulating the fleet
//! on the serving crate's deterministic virtual-clock replay.
//!
//! The traffic is deliberately *bursty* (back-to-back burst windows, not a
//! uniform trickle): a uniform arrival stream has zero queueing delay in a
//! deterministic simulator, which would validate nothing about the
//! planner's queueing term.

use rpf_nn::RngStreams;
use rpf_perfmodel::{predicted_p99_ns, shards_for, Demand, ShardProfile, Target};
use rpf_serve::loadgen::{self, MultiRaceMix};
use rpf_serve::{replay_sharded, ServeConfig, ServiceModel};
use std::time::Duration;

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 8,
        max_delay: Duration::from_micros(500),
        // Nothing may be rejected: the plan-vs-simulation comparison is
        // about latency under load, not admission control.
        queue_capacity: 65_536,
    }
}

fn svc() -> ServiceModel {
    ServiceModel {
        batch_overhead_ns: 200_000,
        per_request_ns: 100_000,
    }
}

/// Profile one shard at saturation: a single deep burst keeps every batch
/// full, so `completed / makespan` is the shard's sustained service rate.
fn profile_one_shard() -> ShardProfile {
    let streams = RngStreams::new(0x9A7E);
    let mix = MultiRaceMix::new(4, (50, 100), 1.0);
    let script: Vec<(u64, rpf_serve::ServeRequest)> = mix
        .schedule(&loadgen::burst(Duration::ZERO, 256), &streams, 0)
        .into_iter()
        .map(|(t, req)| (t.as_nanos() as u64, req))
        .collect();
    let run = replay_sharded(&serve_cfg(), 1, &script, &svc());
    let merged = run.snapshot.merged();
    assert_eq!(merged.completed, 256, "saturation run must complete fully");
    ShardProfile::from_trace(merged.completed, run.makespan_ns)
}

/// The demand trace: 32 windows of 64-request bursts every 4 ms — the
/// same 16k req/s the `Demand` below declares, arriving in bursts.
fn demand_script() -> Vec<(u64, rpf_serve::ServeRequest)> {
    let streams = RngStreams::new(0xD31A);
    let mix = MultiRaceMix::new(4, (50, 100), 1.0);
    let mut windows = Vec::new();
    for w in 0..32u64 {
        let t0 = Duration::from_millis(4 * w);
        windows.push(mix.schedule(&loadgen::burst(t0, 64), &streams.child(w), w * 1_000));
    }
    loadgen::merge(windows)
        .into_iter()
        .map(|(t, req)| (t.as_nanos() as u64, req))
        .collect()
}

/// Minimal shard count whose simulated p99 meets `p99_ns`, scanning the
/// replay at 1, 2, ... shards.
fn minimal_shards_by_replay(script: &[(u64, rpf_serve::ServeRequest)], p99_ns: u64) -> u64 {
    for shards in 1..=16usize {
        let run = replay_sharded(&serve_cfg(), shards, script, &svc());
        let merged = run.snapshot.merged();
        assert_eq!(
            merged.rejected_queue_full, 0,
            "queue sized to never clip at {shards} shards"
        );
        if run.p99_ns() <= p99_ns {
            return shards as u64;
        }
    }
    panic!("no shard count up to 16 met the target — scenario mis-sized");
}

/// The headline round-trip: plan a fleet for 16k req/s against a profiled
/// shard, then confirm by simulation that the planned count is within one
/// shard of the minimal count that actually meets the p99 budget.
#[test]
fn planned_shard_count_is_confirmed_by_replay_within_one_shard() {
    let profile = profile_one_shard();
    // ~8k req/s with full batches (100 µs/req + 200 µs / 8 amortised).
    assert!(
        (6_000.0..10_000.0).contains(&profile.service_rps),
        "unexpected shard service rate {:.0} req/s",
        profile.service_rps
    );

    let demand = Demand {
        users: 1_600,
        rps_per_user: 10.0, // 16k req/s offered — ~2x one shard
    };
    let target = Target {
        p99_ns: 10_000_000, // 10 ms
        max_utilisation: 0.85,
    };
    let plan = shards_for(&profile, &demand, &target);
    assert!(
        plan.feasible,
        "a 10 ms budget is far above the service time"
    );
    assert!(plan.shards >= 2, "16k req/s cannot fit one ~8k req/s shard");
    assert!(plan.predicted_p99_ns <= target.p99_ns as f64);

    let simulated = minimal_shards_by_replay(&demand_script(), target.p99_ns);
    let diff = plan.shards.abs_diff(simulated);
    assert!(
        diff <= 1,
        "planner said {} shards, replay needed {} — off by {diff}",
        plan.shards,
        simulated
    );

    // The forward model agrees with the replay at the planned count too.
    let run = replay_sharded(&serve_cfg(), plan.shards as usize, &demand_script(), &svc());
    assert!(
        run.p99_ns() as f64 <= 2.0 * plan.predicted_p99_ns + profile.service_ns() * 10.0,
        "simulated p99 {} ns wildly exceeds the model's {} ns",
        run.p99_ns(),
        plan.predicted_p99_ns
    );
}

/// Monotonicity against the simulator's notion of load: growing the user
/// base never shrinks the planned fleet, and the planned fleet always
/// keeps utilisation under the cap.
#[test]
fn more_users_never_plan_fewer_shards() {
    let profile = profile_one_shard();
    let target = Target {
        p99_ns: 10_000_000,
        max_utilisation: 0.85,
    };
    let mut last = 0u64;
    for users in (200..=6_400).step_by(200) {
        let demand = Demand {
            users,
            rps_per_user: 10.0,
        };
        let plan = shards_for(&profile, &demand, &target);
        assert!(
            plan.shards >= last,
            "{users} users planned {} shards after {} at fewer users",
            plan.shards,
            last
        );
        assert!(
            plan.utilisation <= target.max_utilisation + 1e-9,
            "planned fleet runs hotter than the cap: {}",
            plan.utilisation
        );
        assert!(plan.predicted_p99_ns.is_finite());
        assert_eq!(
            predicted_p99_ns(&profile, plan.shards, demand.offered_rps()),
            plan.predicted_p99_ns
        );
        last = plan.shards;
    }
    assert!(last >= 8, "6.4k users at 10 req/s must need a real fleet");
}
