//! Pins the observability contract that makes it safe to leave the
//! profiling hooks compiled into the hot kernels: with the recorder
//! *disabled* (the default), the per-call cost of the hook — one relaxed
//! atomic load and an early return — must amount to less than 1% of the
//! decode bench's wall time. The test measures the real quantities on this
//! machine rather than assuming constants: how many operator records one
//! decode emits, what one disabled hook call costs, and how long the
//! decode itself takes.
//!
//! CI runs this with `--release` (scripts/ci.sh); in debug builds the
//! ratio is even more favourable because the decode slows down far more
//! than the atomic load does.

use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::extract_sequences;
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::RankNetConfig;
use rpf_obs::ops::OpClass;
use rpf_racesim::{simulate_race, Event, EventConfig};
use std::hint::black_box;
use std::time::Instant;

#[test]
fn disabled_recorder_costs_under_one_percent_of_decode() {
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2017),
        5,
    ));
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    let train = vec![ctx.clone()];
    let (model, _) = RankNet::fit(train.clone(), train, cfg, RankNetVariant::Oracle, 40);
    let engine = ForecastEngine::new(&model, 7).with_threads(1);
    let (origin, horizon, n_samples) = (60, 2, 20);

    // 1. Count the operator records one decode emits, with profiling ON.
    rpf_obs::ops::reset();
    rpf_obs::ops::set_enabled(true);
    engine
        .try_forecast_keyed(0, &ctx, origin, horizon, n_samples)
        .expect("valid");
    let records_per_decode: u64 = rpf_obs::ops::all_stats().iter().map(|(_, s)| s.calls).sum();
    rpf_obs::ops::set_enabled(false);
    rpf_obs::ops::reset();
    assert!(
        records_per_decode > 0,
        "decode must pass through the profiling hooks"
    );

    // 2. Cost of one disabled hook call, amortised over a tight loop.
    const LOOP: u64 = 2_000_000;
    let started = Instant::now();
    for i in 0..LOOP {
        rpf_obs::ops::record_nanos(
            black_box(OpClass::MatmulInto),
            black_box(i),
            black_box(i),
            black_box(i),
        );
    }
    let per_call_ns = started.elapsed().as_nanos() as f64 / LOOP as f64;

    // 3. Decode wall time with the recorder disabled (warm encoder cache,
    // best-of-three to shave scheduler noise).
    engine
        .try_forecast_keyed(0, &ctx, origin, horizon, n_samples)
        .expect("valid");
    let decode_ns = (0..3)
        .map(|_| {
            let t = Instant::now();
            let _ = black_box(engine.try_forecast_keyed(0, &ctx, origin, horizon, n_samples));
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);

    let hook_ns = per_call_ns * records_per_decode as f64;
    let share = hook_ns / decode_ns;
    eprintln!(
        "obs_overhead: {records_per_decode} records/decode × {per_call_ns:.2} ns/call \
         = {hook_ns:.0} ns against {decode_ns:.0} ns decode ({:.4}%)",
        share * 100.0
    );
    assert!(
        share < 0.01,
        "disabled recorder overhead is {:.4}% of the decode bench (limit 1%): \
         {records_per_decode} records × {per_call_ns:.2} ns vs {decode_ns:.0} ns decode",
        share * 100.0
    );
}
