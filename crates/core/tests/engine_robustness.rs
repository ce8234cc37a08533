//! Serving-side robustness: invalid requests come back as typed
//! [`EngineError`]s (never a panic or an index-out-of-bounds abort), and a
//! property test pins that every served forecast is finite and within the
//! physical rank range.

use proptest::prelude::*;
use ranknet_core::features::extract_sequences;
use ranknet_core::ranknet::ranks_by_sorting;
use ranknet_core::{
    EngineError, ForecastEngine, ForecastRequest, RaceContext, RankNet, RankNetConfig,
    RankNetVariant,
};
use rpf_racesim::{simulate_race, Event, EventConfig};
use std::sync::OnceLock;

fn fixture() -> &'static (RankNet, RaceContext) {
    static FIXTURE: OnceLock<(RankNet, RaceContext)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
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
        (model, ctx)
    })
}

#[test]
fn out_of_range_race_is_a_typed_error_not_a_panic() {
    let (model, ctx) = fixture();
    let engine = ForecastEngine::new(model, 1);
    let err = engine
        .try_forecast_batch(
            &[ctx],
            &[ForecastRequest {
                race: 3, // only one context supplied
                origin: 50,
                horizon: 2,
                n_samples: 2,
            }],
        )
        .expect_err("must reject");
    assert_eq!(
        err,
        EngineError::RaceOutOfRange {
            race: 3,
            n_contexts: 1
        }
    );
    assert_eq!(engine.timings().rejected_requests, 1);
}

#[test]
fn degenerate_request_parameters_are_rejected() {
    let (model, ctx) = fixture();
    let engine = ForecastEngine::new(model, 1);
    assert_eq!(
        engine.try_forecast(ctx, 0, 2, 2).err(),
        Some(EngineError::BadOrigin { origin: 0 })
    );
    assert_eq!(
        engine.try_forecast(ctx, 50, 0, 2).err(),
        Some(EngineError::BadHorizon)
    );
    assert_eq!(
        engine.try_forecast(ctx, 50, 2, 0).err(),
        Some(EngineError::BadSampleCount)
    );
    assert_eq!(engine.timings().rejected_requests, 3);
    assert_eq!(
        engine.timings().calls,
        0,
        "rejections never reach the model"
    );
}

#[test]
fn non_finite_history_is_rejected_before_the_model_runs() {
    let (model, ctx) = fixture();
    let mut bad = ctx.clone();
    bad.sequences[2].lap_time[7] = f32::NAN;
    let engine = ForecastEngine::new(model, 1);
    let err = engine.try_forecast(&bad, 50, 2, 2).expect_err("reject");
    assert_eq!(err, EngineError::NonFiniteFeature { car: 2, lap: 7 });

    // The same lap *after* the origin is not consumed and must not reject.
    let mut late = ctx.clone();
    let last = late.sequences[2].len() - 1;
    late.sequences[2].lap_time[last] = f32::NAN;
    assert!(engine.try_forecast(&late, 10, 2, 2).is_ok());
}

#[test]
fn non_finite_scenario_column_is_rejected() {
    // The encoder (with scenario features) and the PitModel read the
    // scenario columns, so they are validated like the Table I features.
    let (model, ctx) = fixture();
    let mut bad = ctx.clone();
    bad.sequences[4].track_wetness[12] = f32::NAN;
    let engine = ForecastEngine::new(model, 1);
    let err = engine.try_forecast(&bad, 50, 2, 2).expect_err("reject");
    assert_eq!(err, EngineError::NonFiniteFeature { car: 4, lap: 12 });
    assert_eq!(engine.timings().rejected_requests, 1);
    assert_eq!(engine.timings().calls, 0);
}

#[test]
fn batch_is_validated_before_any_work_runs() {
    let (model, ctx) = fixture();
    let engine = ForecastEngine::new(model, 1);
    // First request is fine, second is bad: nothing may be served.
    let reqs = [
        ForecastRequest {
            race: 0,
            origin: 50,
            horizon: 2,
            n_samples: 2,
        },
        ForecastRequest {
            race: 0,
            origin: 0,
            horizon: 2,
            n_samples: 2,
        },
    ];
    assert!(engine.try_forecast_batch(&[ctx], &reqs).is_err());
    assert_eq!(engine.timings().calls, 0);
}

#[test]
#[should_panic(expected = "race index")]
fn legacy_batch_api_panics_with_the_typed_message() {
    let (model, ctx) = fixture();
    let engine = ForecastEngine::new(model, 1);
    let _ = engine.forecast_batch(
        &[ctx],
        &[ForecastRequest {
            race: 9,
            origin: 50,
            horizon: 2,
            n_samples: 1,
        }],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every served forecast is finite and within the physical rank range
    /// `[0.5, field_size + 0.5]` (the decoder's clamp), and sorting yields
    /// positions within `[1, active cars]` — for any valid request.
    #[test]
    fn served_forecasts_are_finite_and_in_range(
        origin in 1usize..120,
        horizon in 1usize..4,
        n_samples in 1usize..5,
        seed in 0u64..4,
    ) {
        let (model, ctx) = fixture();
        let engine = ForecastEngine::new(model, seed);
        let out = engine.try_forecast(ctx, origin, horizon, n_samples);
        let out = out.expect("valid request must be served");
        prop_assert!(!out.degraded, "healthy model must not degrade");
        let hi = ctx.field_size as f32 + 0.5;
        for per_car in &out.samples {
            for path in per_car {
                prop_assert_eq!(path.len(), horizon);
                for &v in path {
                    prop_assert!(v.is_finite(), "sample {} not finite", v);
                    prop_assert!((0.5..=hi).contains(&v), "sample {} out of range", v);
                }
            }
        }
        let active = out.samples.iter().filter(|s| !s.is_empty()).count();
        let ranked = ranks_by_sorting(&out.samples, horizon - 1);
        for car in ranked.iter().filter(|r| !r.is_empty()) {
            for &pos in car {
                prop_assert!(pos >= 1.0 && pos <= active as f32);
            }
        }
    }
}
