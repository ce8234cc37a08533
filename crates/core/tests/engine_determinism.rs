//! The equivalence harness pinning the parallel forecast engine: a forecast
//! is a pure function of `(model, race, origin, horizon, n_samples, seed)`,
//! and the decoder thread count is pure scheduling. Every test here compares
//! f32 *bit patterns*, not tolerances — "close enough" would hide exactly
//! the schedule-dependence these tests exist to forbid.

use ranknet_core::engine::{ForecastEngine, ForecastRequest};
use ranknet_core::features::{extract_sequences, RaceContext};
use ranknet_core::instances::TrainingSet;
use ranknet_core::rank_model::{oracle_covariates, ForecastSamples, RankModel, TargetKind};
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::RankNetConfig;
use rpf_nn::RngStreams;
use rpf_racesim::{simulate_race, Event, EventConfig};

fn race_ctx(seed: u64) -> RaceContext {
    extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2017),
        seed,
    ))
}

fn tiny_cfg() -> RankNetConfig {
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    cfg
}

/// Flatten samples to bit patterns so comparisons are exact.
fn bits(samples: &ForecastSamples) -> Vec<u32> {
    samples
        .iter()
        .flat_map(|car| car.iter().flat_map(|path| path.iter().map(|v| v.to_bits())))
        .collect()
}

#[test]
fn decode_is_bit_identical_across_thread_counts() {
    let ctx = race_ctx(11);
    let cfg = tiny_cfg();
    let ts = TrainingSet::build(vec![ctx.clone()], &cfg, 24);
    let mut model = RankModel::new(cfg.clone(), TargetKind::RankOnly, ts.max_car_id);
    let _ = model.train(&ts, &ts);

    let origin = 80;
    let horizon = 3;
    let n_samples = 7;
    let cov = oracle_covariates(&ctx, origin, horizon, cfg.prediction_len);
    let enc = model.encode(&ctx, origin);
    let streams = RngStreams::new(0xDECAF);

    // The tape reference decode; the serving (batched) decode's thread
    // sweep lives in the decode_parity suite.
    let seq = model.decode_tape(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1);
    for threads in [2, 4, 13] {
        let par = model.decode_tape(
            &ctx, &cov, origin, horizon, n_samples, &enc, &streams, threads,
        );
        assert_eq!(
            bits(&seq),
            bits(&par),
            "decode with {threads} threads must replay the sequential draws"
        );
    }
}

#[test]
fn mlp_forecast_seeded_is_thread_invariant_and_seed_sensitive() {
    // The MLP variant exercises both parallel layers: covariate-future
    // groups and decoder row chunks.
    let train = vec![race_ctx(21)];
    let (model, _) = RankNet::fit(train.clone(), train, tiny_cfg(), RankNetVariant::Mlp, 40);

    let test = race_ctx(22);
    let a = model.forecast_seeded(&test, 70, 2, 10, 99, 1);
    let b = model.forecast_seeded(&test, 70, 2, 10, 99, 6);
    assert_eq!(bits(&a), bits(&b), "thread count leaked into the samples");

    let c = model.forecast_seeded(&test, 70, 2, 10, 100, 1);
    assert_ne!(
        bits(&a),
        bits(&c),
        "different seeds must give different draws"
    );
}

#[test]
fn engine_matches_seeded_path_reuses_encoder_and_counts_phases() {
    let train = vec![race_ctx(31)];
    let (model, _) = RankNet::fit(train.clone(), train, tiny_cfg(), RankNetVariant::Oracle, 40);
    let test = race_ctx(32);

    let seq_engine = ForecastEngine::new(&model, 5).with_threads(1);
    let par_engine = ForecastEngine::new(&model, 5).with_threads(4);
    let a = seq_engine
        .try_forecast_keyed(0, &test, 90, 2, 8)
        .expect("valid")
        .samples;
    let b = par_engine
        .try_forecast_keyed(0, &test, 90, 2, 8)
        .expect("valid")
        .samples;
    assert_eq!(
        bits(&a),
        bits(&b),
        "engine forecasts must be thread invariant"
    );

    // Same (race, origin) again: the encoder state must come from cache and
    // the samples must replay (common random numbers).
    let c = par_engine
        .try_forecast_keyed(0, &test, 90, 2, 8)
        .expect("valid")
        .samples;
    assert_eq!(bits(&b), bits(&c));
    let t = par_engine.timings();
    assert_eq!(t.calls, 2);
    assert_eq!(t.encoder_reuses, 1);
    assert!(t.trajectories > 0);
    assert!(
        t.decode > std::time::Duration::ZERO,
        "decode phase must be timed"
    );

    // A different origin is a cache miss with fresh, different draws.
    let d = par_engine
        .try_forecast_keyed(0, &test, 91, 2, 8)
        .expect("valid")
        .samples;
    assert_ne!(bits(&c), bits(&d));
    assert_eq!(par_engine.timings().encoder_reuses, 1);
}

#[test]
fn engine_is_thread_invariant() {
    // The engine must produce bit-identical samples at 1, 2 and 8 decoder
    // threads: its lock-step batched rows are chunked across workers, and
    // row independence keeps the bits.
    let train = vec![race_ctx(33)];
    let (model, _) = RankNet::fit(train.clone(), train, tiny_cfg(), RankNetVariant::Oracle, 40);
    let test = race_ctx(34);

    let want = ForecastEngine::new(&model, 5)
        .with_threads(1)
        .try_forecast_keyed(0, &test, 85, 2, 8)
        .expect("valid")
        .samples;
    for threads in [2, 8] {
        let engine = ForecastEngine::new(&model, 5).with_threads(threads);
        let got = engine
            .try_forecast_keyed(0, &test, 85, 2, 8)
            .expect("valid")
            .samples;
        assert_eq!(
            bits(&want),
            bits(&got),
            "engine with {threads} threads changed the samples"
        );
    }
}

#[test]
fn engine_batch_matches_individual_calls() {
    let train = vec![race_ctx(41)];
    let (model, _) = RankNet::fit(train.clone(), train, tiny_cfg(), RankNetVariant::Oracle, 40);
    let r0 = race_ctx(42);
    let r1 = race_ctx(43);

    let engine = ForecastEngine::new(&model, 7).with_threads(2);
    let requests = [
        ForecastRequest {
            race: 0,
            origin: 60,
            horizon: 2,
            n_samples: 5,
        },
        ForecastRequest {
            race: 1,
            origin: 75,
            horizon: 3,
            n_samples: 4,
        },
        ForecastRequest {
            race: 0,
            origin: 60,
            horizon: 2,
            n_samples: 5,
        },
    ];
    let batch: Vec<_> = engine
        .forecast_batch_entries(&[&r0, &r1], &requests)
        .into_iter()
        .map(|r| r.expect("valid").samples)
        .collect();
    assert_eq!(batch.len(), 3);
    assert_eq!(
        bits(&batch[0]),
        bits(&batch[2]),
        "identical requests must agree"
    );
    // The duplicate coalesces onto the first request's run, so it never
    // reaches the encoder cache.
    let t = engine.timings();
    assert_eq!(t.coalesced_requests, 1);
    assert_eq!(t.encoder_reuses, 0);
    assert_eq!(t.calls, 2);

    // Batched and one-at-a-time execution agree: seeds derive from request
    // identity, not call order.
    let fresh = ForecastEngine::new(&model, 7).with_threads(2);
    let solo = fresh
        .try_forecast_keyed(1, &r1, 75, 3, 4)
        .expect("valid")
        .samples;
    assert_eq!(bits(&batch[1]), bits(&solo));
}

#[test]
fn long_batch_decodes_in_folds_bit_identical_to_individual_calls() {
    // Five 100-sample requests over a full field are more trajectory rows
    // than one lock-step decode takes, so the engine decodes them in
    // several folds; every answer must still match a solo call.
    let train = vec![race_ctx(51)];
    let (model, _) = RankNet::fit(train.clone(), train, tiny_cfg(), RankNetVariant::Mlp, 40);
    let race = race_ctx(52);
    let requests: Vec<ForecastRequest> = (0..5)
        .map(|i| ForecastRequest {
            race: 0,
            origin: 40 + 10 * i,
            horizon: 2,
            n_samples: 100,
        })
        .collect();
    let rows: usize = requests
        .iter()
        .map(|r| r.n_samples * race.sequences.len())
        .sum();
    assert!(
        rows > 8192,
        "the batch must span several folds ({rows} rows)"
    );

    let batch = ForecastEngine::new(&model, 9)
        .with_threads(2)
        .forecast_batch_entries(&[&race], &requests);
    for (r, got) in requests.iter().zip(&batch) {
        let got = &got.as_ref().expect("valid").samples;
        let solo = ForecastEngine::new(&model, 9)
            .with_threads(1)
            .try_forecast_keyed(0, &race, r.origin, r.horizon, r.n_samples)
            .expect("valid")
            .samples;
        assert_eq!(bits(got), bits(&solo), "origin {} diverged", r.origin);
    }
}
