//! Release-mode perf gate for the serving (batched) decode: at micro-batch
//! sizes the serving layer actually forms (≥ 16 trajectories per car), the
//! lock-step FMA decode must beat the autodiff-tape reference by a wide
//! margin — otherwise the tolerance contract it trades away buys nothing
//! and the regression should fail CI loudly.
//!
//! CI runs this with `--release` (scripts/ci.sh, gate `decode_perf_gate`).
//! Debug builds skip the timing assertion: unoptimised relative timings of
//! the two kernel sets are not meaningful.
//!
//! The floors (3.4× at 16 trajectories per car, 5.5× at the paper's 100)
//! are the earlier floors against the since-deleted per-row decoder
//! (1.8×, 2.0×) scaled by the tape/per-row time ratio measured just before
//! it was deleted, with this file's harness (1.86× and 2.71×: medians of
//! 30 processes on a 2-CPU VM) — the same bar re-based onto the tape. The
//! criterion `decode_backend` group quantifies the full margin.

use ranknet_core::features::extract_sequences;
use ranknet_core::instances::TrainingSet;
use ranknet_core::rank_model::{oracle_covariates, RankModel, TargetKind};
use ranknet_core::RankNetConfig;
use rpf_nn::RngStreams;
use rpf_racesim::{simulate_race, Event, EventConfig};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-N wall times of two decode closures, run alternately so both
/// sample the same machine state (the minimum shaves scheduler noise,
/// which only ever inflates a sample).
fn best_of_pair(n: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    };
    (0..n).fold((f64::INFINITY, f64::INFINITY), |(ta, tb), _| {
        (ta.min(time(&mut a)), tb.min(time(&mut b)))
    })
}

#[test]
fn batched_beats_tape_at_serving_batch_sizes() {
    if cfg!(debug_assertions) {
        eprintln!("decode_perf_gate: skipped (debug build; CI runs it with --release)");
        return;
    }

    // The paper's operating shape: full-size network, full Indy500 field.
    let cfg = RankNetConfig {
        max_epochs: 1,
        ..Default::default()
    };
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2019),
        1,
    ));
    let ts = TrainingSet::build(vec![ctx.clone()], &cfg, 16);
    let mut model = RankModel::new(cfg.clone(), TargetKind::RankOnly, ts.max_car_id);
    let _ = model.train(&ts, &ts);

    let (origin, horizon) = (100, 2);
    let cov = oracle_covariates(&ctx, origin, horizon, cfg.prediction_len);
    let enc = model.encode(&ctx, origin);
    let streams = RngStreams::new(0x6A7E);

    // (trajectories per car, required speedup). In the 30 processes the
    // floors come from, the batched decode beat the tape by 4.7–11.9x
    // (median 6.4x) at 16 and 6.2–13.5x (median 7.9x) at 100.
    for (n_samples, floor) in [(16usize, 3.4f64), (100, 5.5)] {
        // Warm both paths once (first call pays lazy allocations).
        black_box(model.decode_tape(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1));
        black_box(model.decode_batched(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1));

        let (tape, batched) = best_of_pair(
            9,
            || {
                black_box(
                    model.decode_tape(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1),
                );
            },
            || {
                black_box(
                    model.decode_batched(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1),
                );
            },
        );
        let speedup = tape / batched;
        eprintln!(
            "decode_perf_gate: n_samples={n_samples} tape={:.2}ms batched={:.2}ms \
             speedup={speedup:.2}x (floor {floor}x)",
            tape / 1e6,
            batched / 1e6,
        );
        assert!(
            speedup > floor,
            "batched decode ({batched:.0} ns) must beat the tape ({tape:.0} ns) \
             by more than {floor}x at {n_samples} trajectories/car, got {speedup:.2}x"
        );
    }
}
