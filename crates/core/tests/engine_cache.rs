//! Regression tests for the engine's bounded encoder cache and the
//! coalescing batch-entry API. The cache is an optimisation only: eviction
//! and recompute must never change a single output bit, the cache must
//! never exceed its configured capacity (a multi-race serving soak used to
//! grow the old unbounded map without limit), and evictions must be
//! visible in the phase counters.

use ranknet_core::engine::{EngineError, ForecastEngine, ForecastRequest};
use ranknet_core::features::{extract_sequences, RaceContext};
use ranknet_core::rank_model::ForecastSamples;
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::RankNetConfig;
use rpf_racesim::{simulate_race, Event, EventConfig};

fn race_ctx(seed: u64) -> RaceContext {
    extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2017),
        seed,
    ))
}

fn tiny_model() -> (RankNet, Vec<RaceContext>) {
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    let train = vec![race_ctx(201)];
    let (model, _) = RankNet::fit(train.clone(), train, cfg, RankNetVariant::Oracle, 40);
    (model, vec![race_ctx(202), race_ctx(203)])
}

fn bits(samples: &ForecastSamples) -> Vec<u32> {
    samples
        .iter()
        .flat_map(|car| car.iter().flat_map(|path| path.iter().map(|v| v.to_bits())))
        .collect()
}

#[test]
fn cache_never_exceeds_capacity_and_counts_evictions() {
    let (model, contexts) = tiny_model();
    let cap = 3;
    let engine = ForecastEngine::new(&model, 11)
        .with_threads(1)
        .with_cache_capacity(cap);

    // Ten distinct (race, origin) keys against a 3-deep cache.
    for i in 0..10 {
        engine
            .try_forecast_keyed(0, &contexts[0], 50 + i, 1, 2)
            .expect("valid");
    }
    assert!(
        engine.cache_len() <= cap,
        "cache grew to {} past its cap {cap}",
        engine.cache_len()
    );
    let t = engine.timings();
    assert_eq!(
        t.cache_evictions,
        10 - engine.cache_len() as u64,
        "every insert beyond the bound must evict exactly one state"
    );
    assert_eq!(t.encoder_reuses, 0, "all ten keys were distinct");
}

#[test]
fn eviction_and_recompute_replay_identical_bits() {
    let (model, contexts) = tiny_model();
    let engine = ForecastEngine::new(&model, 11)
        .with_threads(1)
        .with_cache_capacity(2);

    let first = engine
        .try_forecast_keyed(0, &contexts[0], 60, 2, 4)
        .expect("valid")
        .samples;
    // Flood the tiny cache until origin 60 must have been evicted.
    for i in 0..8 {
        engine
            .try_forecast_keyed(0, &contexts[0], 70 + i, 1, 2)
            .expect("valid");
    }
    assert!(engine.timings().cache_evictions > 0);
    // Recomputing the evicted encoder state must replay the exact draws:
    // the cache moves time, never bits.
    let again = engine
        .try_forecast_keyed(0, &contexts[0], 60, 2, 4)
        .expect("valid")
        .samples;
    assert_eq!(bits(&first), bits(&again));

    // And an unbounded engine on the same seed agrees too.
    let unbounded = ForecastEngine::new(&model, 11).with_threads(1);
    let reference = unbounded
        .try_forecast_keyed(0, &contexts[0], 60, 2, 4)
        .expect("valid")
        .samples;
    assert_eq!(bits(&reference), bits(&again));
}

#[test]
fn multi_race_soak_keeps_cache_bounded() {
    let (model, contexts) = tiny_model();
    let cap = 4;
    let engine = ForecastEngine::new(&model, 13)
        .with_threads(2)
        .with_cache_capacity(cap);

    // Interleave two races across many origins, revisiting some keys, and
    // check the bound *throughout* the soak, not just at the end.
    for round in 0..3 {
        for origin in (40..90).step_by(7) {
            for (race, ctx) in contexts.iter().enumerate() {
                engine
                    .try_forecast_keyed(race, ctx, origin + round, 1, 2)
                    .expect("valid");
                assert!(
                    engine.cache_len() <= cap,
                    "cache exceeded its cap mid-soak: {} > {cap}",
                    engine.cache_len()
                );
            }
        }
    }
    let t = engine.timings();
    assert!(t.cache_evictions > 0, "soak must exercise eviction");
}

#[test]
fn zero_capacity_disables_the_cache_without_changing_bits() {
    let (model, contexts) = tiny_model();
    let uncached = ForecastEngine::new(&model, 17)
        .with_threads(1)
        .with_cache_capacity(0);
    let a = uncached
        .try_forecast_keyed(1, &contexts[1], 55, 2, 3)
        .expect("valid")
        .samples;
    let b = uncached
        .try_forecast_keyed(1, &contexts[1], 55, 2, 3)
        .expect("valid")
        .samples;
    assert_eq!(engine_len_zero(&uncached), 0);
    assert_eq!(uncached.timings().encoder_reuses, 0);
    assert_eq!(bits(&a), bits(&b));

    let cached = ForecastEngine::new(&model, 17).with_threads(1);
    let c = cached
        .try_forecast_keyed(1, &contexts[1], 55, 2, 3)
        .expect("valid")
        .samples;
    assert_eq!(bits(&a), bits(&c));
}

fn engine_len_zero(engine: &ForecastEngine) -> usize {
    engine.cache_len()
}

#[test]
fn batch_entries_coalesce_duplicates_and_isolate_errors() {
    let (model, contexts) = tiny_model();
    let refs: Vec<&RaceContext> = contexts.iter().collect();
    let engine = ForecastEngine::new(&model, 19).with_threads(1);

    let good = ForecastRequest {
        race: 0,
        origin: 65,
        horizon: 2,
        n_samples: 3,
    };
    let other = ForecastRequest {
        race: 1,
        origin: 72,
        horizon: 1,
        n_samples: 2,
    };
    let out_of_range = ForecastRequest { race: 9, ..good };
    let bad_horizon = ForecastRequest { horizon: 0, ..good };
    let requests = [good, other, good, out_of_range, good, bad_horizon];
    let results = engine.forecast_batch_entries(&refs, &requests);
    assert_eq!(results.len(), requests.len());

    // Errors are per-entry: bad neighbours never poison good requests.
    let first = results[0].as_ref().expect("valid request");
    assert!(results[1].is_ok());
    assert_eq!(
        results[3].as_ref().expect_err("race 9 out of range"),
        &EngineError::RaceOutOfRange {
            race: 9,
            n_contexts: 2
        }
    );
    assert_eq!(
        results[5].as_ref().expect_err("zero horizon"),
        &EngineError::BadHorizon
    );

    // The three identical requests coalesced onto one model run and the
    // clones carry the exact same bits.
    for dup in [2usize, 4] {
        let r = results[dup].as_ref().expect("duplicate of a valid request");
        assert_eq!(bits(&first.samples), bits(&r.samples));
    }
    assert_eq!(engine.timings().coalesced_requests, 2);

    // Batched and solo execution agree: seeds derive from request identity.
    let fresh = ForecastEngine::new(&model, 19).with_threads(1);
    let solo = fresh
        .try_forecast_keyed(0, &contexts[0], 65, 2, 3)
        .expect("valid")
        .samples;
    assert_eq!(bits(&solo), bits(&first.samples));
}
