//! Regression: `PitModel` predicts on the tape over its own `ParamStore`,
//! and `RankModel` encodes and decodes through layer methods that read the
//! same store in place; neither keeps a serving cache beside it. Any weight
//! mutation after a forecast — an `import` of other weights, a clone that
//! later imports — must show in the next forecast, and a clone must not
//! share state with its source. These tests pin both, so a cache added
//! later cannot serve stale weights.

use ranknet_core::features::{extract_sequences, RaceContext};
use ranknet_core::instances::TrainingSet;
use ranknet_core::rank_model::{oracle_covariates, RankModel, TargetKind};
use ranknet_core::{PitModel, RankNetConfig};
use rpf_nn::RngStreams;
use rpf_racesim::{simulate_race, Event, EventConfig};

/// Two differently-seeded models disagree; after importing B's weights
/// into an A that has already predicted, A must predict exactly like B.
#[test]
fn import_after_predict_rebuilds_the_serving_runtime() {
    let mut a = PitModel::new(3, 40.0);
    let b = PitModel::new(4, 40.0);

    let a_before = a.predict(2.0, 10.0); // predict before mutating
    let b_fresh = b.predict(2.0, 10.0);
    assert_ne!(
        a_before, b_fresh,
        "differently-seeded models must disagree for this test to bite"
    );

    a.import(&b.export()).expect("matching architectures");
    assert_eq!(
        a.predict(2.0, 10.0),
        b_fresh,
        "predict after import must use the imported weights, not the cached runtime"
    );
}

/// A clone taken after the original has predicted must not share its
/// weights: importing into the clone changes only the clone, and the
/// original keeps its own weights.
#[test]
fn clone_does_not_share_the_cached_runtime() {
    let a = PitModel::new(5, 45.0);
    let b = PitModel::new(6, 45.0);

    let a_pred = a.predict(1.0, 8.0); // predict before cloning
    let mut c = a.clone();
    assert_eq!(c.predict(1.0, 8.0), a_pred, "a clone starts bit-identical");

    c.import(&b.export()).expect("matching architectures");
    assert_eq!(
        c.predict(1.0, 8.0),
        b.predict(1.0, 8.0),
        "the clone must serve the imported weights"
    );
    assert_eq!(
        a.predict(1.0, 8.0),
        a_pred,
        "importing into the clone must not touch the original"
    );
}

/// Export taken *after* an import (with a predict in between) carries
/// the imported weights: a restored model predicts bit-identically to the
/// mutated source — the path every artifact publish exercises.
#[test]
fn export_after_import_round_trips_the_new_weights() {
    let mut a = PitModel::new(7, 40.0);
    let b = PitModel::new(8, 40.0);
    let _ = a.predict(3.0, 12.0); // predict before mutating
    a.import(&b.export()).expect("matching architectures");

    let mut restored = PitModel::new(7, 40.0);
    restored
        .import(&a.export())
        .expect("matching architectures");
    assert_eq!(restored.predict(3.0, 12.0), a.predict(3.0, 12.0));
    assert_eq!(restored.predict(3.0, 12.0), b.predict(3.0, 12.0));
}

const ORIGIN: usize = 40;
const HORIZON: usize = 3;
const SAMPLES: usize = 4;

fn tiny_rank_model(ctx: &RaceContext, seed: u64) -> RankModel {
    let mut cfg = RankNetConfig::tiny();
    cfg.seed = seed;
    let max_car_id = TrainingSet::build(vec![ctx.clone()], &cfg, 24).max_car_id;
    RankModel::new(cfg, TargetKind::RankOnly, max_car_id)
}

/// `to_bits` of the encoder states at `ORIGIN` followed by a batched
/// decode from them on fixed streams.
fn rank_forecast_bits(m: &RankModel, ctx: &RaceContext) -> Vec<u32> {
    let enc = m.encode(ctx, ORIGIN);
    let cov = oracle_covariates(ctx, ORIGIN, HORIZON, m.cfg.prediction_len);
    let samples = m.decode_batched(
        ctx,
        &cov,
        ORIGIN,
        HORIZON,
        SAMPLES,
        &enc,
        &RngStreams::new(0xC0FFEE),
        2,
    );
    let states = enc
        .states
        .iter()
        .flat_map(|(h, c)| h.as_slice().iter().chain(c.as_slice()));
    let paths = samples.iter().flatten().flatten();
    states.chain(paths).map(|v| v.to_bits()).collect()
}

fn indy_ctx() -> RaceContext {
    extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2017),
        5,
    ))
}

/// The `RankModel` counterpart of the first PitModel case: after importing
/// B's weights into an A that has already encoded and decoded, A's next
/// `encode` + `decode_batched` must equal B's bit for bit.
#[test]
fn rank_model_import_after_forecast_serves_the_new_weights() {
    let ctx = indy_ctx();
    let mut a = tiny_rank_model(&ctx, 1);
    let b = tiny_rank_model(&ctx, 2);

    let a_before = rank_forecast_bits(&a, &ctx); // forecast before mutating
    let b_fresh = rank_forecast_bits(&b, &ctx);
    assert_ne!(
        a_before, b_fresh,
        "differently-seeded models must disagree for this test to bite"
    );

    a.store
        .import(&b.store.export())
        .expect("matching architectures");
    assert_eq!(
        rank_forecast_bits(&a, &ctx),
        b_fresh,
        "encode and decode after import must use the imported weights"
    );
}

/// The `RankModel` counterpart of the clone case: a clone taken after a
/// forecast serves what is imported into it, and the original keeps its
/// own weights.
#[test]
fn rank_model_clone_does_not_share_weights() {
    let ctx = indy_ctx();
    let a = tiny_rank_model(&ctx, 3);
    let b = tiny_rank_model(&ctx, 4);

    let a_bits = rank_forecast_bits(&a, &ctx); // forecast before cloning
    let mut c = a.clone();
    assert_eq!(
        rank_forecast_bits(&c, &ctx),
        a_bits,
        "a clone starts bit-identical"
    );

    c.store
        .import(&b.store.export())
        .expect("matching architectures");
    assert_eq!(
        rank_forecast_bits(&c, &ctx),
        rank_forecast_bits(&b, &ctx),
        "the clone must serve the imported weights"
    );
    assert_eq!(
        rank_forecast_bits(&a, &ctx),
        a_bits,
        "importing into the clone must not touch the original"
    );
}
