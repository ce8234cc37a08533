//! Serving-side fault-injection matrix (requires the `fault-inject`
//! feature): a deterministically poisoned decoder trajectory must degrade
//! to the CurRank baseline — flagged and counted, all outputs finite, every
//! healthy trajectory bit-identical to a fault-free run. Zero panics.
#![cfg(feature = "fault-inject")]

use ranknet_core::features::extract_sequences;
use ranknet_core::rank_model::{oracle_covariates, ForecastSamples};
use ranknet_core::{ForecastEngine, RankNet, RankNetConfig, RankNetVariant};
use rpf_nn::fault::{self, FaultPlan};
use rpf_nn::RngStreams;
use rpf_racesim::{simulate_race, Event, EventConfig};
use std::sync::Mutex;

// The fault plan is process-global: tests installing plans serialize here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    match TEST_LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

const ORIGIN: usize = 60;
const HORIZON: usize = 3;
const N_SAMPLES: usize = 4;

#[test]
fn poisoned_decoder_trajectory_degrades_to_cur_rank() {
    let _g = locked();
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2016),
        11,
    ));
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    let (model, _) = RankNet::fit(
        vec![ctx.clone()],
        vec![ctx.clone()],
        cfg,
        RankNetVariant::Oracle,
        40,
    );

    // Fault-free baseline with the same seed.
    fault::clear();
    let engine = ForecastEngine::new(&model, 7);
    let healthy = engine
        .try_forecast(&ctx, ORIGIN, HORIZON, N_SAMPLES)
        .expect("baseline forecast");
    assert!(!healthy.degraded, "baseline must be healthy");

    // Poison global trajectory row 1: active-car slot 0, sample 1.
    fault::install(FaultPlan::new().poison_decoder_row(1));
    let engine = ForecastEngine::new(&model, 7);
    let faulty = engine.try_forecast(&ctx, ORIGIN, HORIZON, N_SAMPLES);
    fault::clear();
    let faulty = faulty.expect("a poisoned trajectory must still be served");

    assert!(faulty.degraded, "the fault must be flagged");
    assert_eq!(faulty.degraded_trajectories, 1, "exactly one row poisoned");
    assert_eq!(engine.timings().degraded_trajectories, 1);

    // Every served value is finite even though the decoder emitted NaN.
    let mut diffs = Vec::new();
    for (car, (h, f)) in healthy.samples.iter().zip(&faulty.samples).enumerate() {
        assert_eq!(h.len(), f.len());
        for (sample, (hp, fp)) in h.iter().zip(f).enumerate() {
            assert!(fp.iter().all(|v| v.is_finite()), "non-finite output");
            if hp != fp {
                diffs.push((car, sample, fp.clone()));
            }
        }
    }

    // Exactly one trajectory changed, and it is the CurRank fallback:
    // the car's last observed rank, repeated across the horizon.
    assert_eq!(diffs.len(), 1, "only the poisoned row may change");
    let (car, sample, path) = &diffs[0];
    assert_eq!(*sample, 1, "row 1 is sample 1 of the first active car");
    let cur = ctx.sequences[*car].rank[ORIGIN - 1];
    assert_eq!(path, &vec![cur; HORIZON]);
}

/// Decode-mismatch regression gate under the fault matrix: with the same
/// poisoned row, the serving (batched) decode and the tape reference on one
/// model must poison the *same* single trajectory, and every healthy
/// trajectory must agree within the pinned decode tolerance. A kernel
/// change that drives the two apart — or shifts which row a fault key
/// hits — fails here loudly.
#[test]
fn batched_and_tape_decodes_agree_under_faults() {
    let _g = locked();
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2016),
        13,
    ));
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    let (model, _) = RankNet::fit(
        vec![ctx.clone()],
        vec![ctx.clone()],
        cfg,
        RankNetVariant::Oracle,
        40,
    );
    let rank_model = &model.rank_model;
    let cov = oracle_covariates(&ctx, ORIGIN, HORIZON, model.cfg.prediction_len);
    let enc = rank_model.encode(&ctx, ORIGIN);
    let streams = RngStreams::new(7);

    // Same decode-tolerance bound the decode_parity suite pins.
    const RANK_TOL: f32 = 0.05;

    fault::install(FaultPlan::new().poison_decoder_row(1));
    let tape = rank_model.decode_tape(&ctx, &cov, ORIGIN, HORIZON, N_SAMPLES, &enc, &streams, 1);
    let batched =
        rank_model.decode_batched(&ctx, &cov, ORIGIN, HORIZON, N_SAMPLES, &enc, &streams, 1);
    fault::clear();

    // The poisoned row is trajectory 1 of the first active car, in both.
    let poisoned = |samples: &ForecastSamples| -> Vec<(usize, usize)> {
        let mut hits = Vec::new();
        for (car, per_car) in samples.iter().enumerate() {
            for (sample, path) in per_car.iter().enumerate() {
                if path.iter().any(|v| !v.is_finite()) {
                    hits.push((car, sample));
                }
            }
        }
        hits
    };
    assert_eq!(poisoned(&tape), vec![(enc.cars[0], 1)]);
    assert_eq!(
        poisoned(&batched),
        vec![(enc.cars[0], 1)],
        "the fault key must hit the same single row in the batched layout"
    );

    let mut worst = 0.0f32;
    for (h, f) in tape.iter().zip(&batched) {
        assert_eq!(h.len(), f.len());
        for (hp, fp) in h.iter().zip(f) {
            for (x, y) in hp.iter().zip(fp) {
                if x.is_finite() && y.is_finite() {
                    worst = worst.max((x - y).abs());
                }
            }
        }
    }
    assert!(
        worst <= RANK_TOL,
        "decodes diverged by {worst} rank units under faults (bound {RANK_TOL})"
    );
}
