//! Integration tests for the engine's observability surface: the phase
//! counters live on the shared `rpf_obs::Registry`, the span tracer
//! attributes wall time to the encode/covariates/decode phases, and the
//! whole thing rolls up into one `MetricsSnapshot` that merges cleanly
//! with snapshots from the other layers. Tracing must also stay off by
//! default — the hot path pays one relaxed load when it is.

use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::{extract_sequences, RaceContext};
use ranknet_core::lifecycle::VersionedModel;
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::RankNetConfig;
use rpf_racesim::{simulate_race, Event, EventConfig};
use std::sync::Arc;

fn race_ctx(seed: u64) -> RaceContext {
    extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2017),
        seed,
    ))
}

fn tiny_model() -> (RankNet, RaceContext) {
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    let train = vec![race_ctx(301)];
    let (model, _) = RankNet::fit(train.clone(), train, cfg, RankNetVariant::Oracle, 40);
    (model, race_ctx(302))
}

fn counter(snap: &rpf_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("missing counter {name}"))
        .value
}

#[test]
fn obs_snapshot_mirrors_the_phase_timings() {
    let (model, ctx) = tiny_model();
    let engine = ForecastEngine::new(&model, 7).with_threads(1);

    engine.try_forecast_keyed(0, &ctx, 60, 2, 4).expect("valid");
    engine.try_forecast_keyed(0, &ctx, 60, 2, 4).expect("valid"); // same origin: encoder reuse

    let t = engine.timings();
    let snap = engine.obs_snapshot();
    assert_eq!(counter(&snap, "engine_calls"), t.calls);
    assert_eq!(counter(&snap, "engine_calls"), 2);
    assert_eq!(counter(&snap, "engine_encoder_reuses"), t.encoder_reuses);
    assert_eq!(counter(&snap, "engine_trajectories"), t.trajectories);
    assert_eq!(
        counter(&snap, "engine_encode_ns"),
        t.encode.as_nanos() as u64
    );
    assert_eq!(
        counter(&snap, "engine_decode_ns"),
        t.decode.as_nanos() as u64
    );
    assert!(
        t.decode > std::time::Duration::ZERO,
        "decode phase must accumulate time"
    );
}

#[test]
fn tracing_is_off_by_default_and_captures_phase_spans_when_enabled() {
    let (model, ctx) = tiny_model();
    let engine = ForecastEngine::new(&model, 7).with_threads(1);

    engine.try_forecast_keyed(0, &ctx, 60, 1, 2).expect("valid");
    assert!(
        engine.tracer().totals().is_empty(),
        "no spans may be recorded while tracing is disabled"
    );

    engine.set_tracing(true);
    engine.try_forecast_keyed(0, &ctx, 61, 1, 2).expect("valid");
    let snap = engine.obs_snapshot();
    let span = |name: &str| {
        snap.spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing span {name}"))
    };
    assert_eq!(span("engine_encode").count, 1);
    assert_eq!(span("engine_covariates").count, 1);
    assert_eq!(span("engine_decode").count, 1);
    assert!(span("engine_decode").total_ns > 0);

    // The span clock and the counter clock measure the same phases; they
    // won't agree to the nanosecond but must agree on the story. The
    // counters cover both calls while the spans cover only the traced one,
    // so the counter side is the upper bound.
    let t = engine.timings();
    assert!(span("engine_decode").total_ns <= t.decode.as_nanos() as u64);
}

#[test]
fn reset_timings_clears_counters_and_spans_together() {
    let (model, ctx) = tiny_model();
    let engine = ForecastEngine::new(&model, 7).with_threads(1);
    engine.set_tracing(true);
    engine.try_forecast_keyed(0, &ctx, 60, 1, 2).expect("valid");

    engine.reset_timings();
    let snap = engine.obs_snapshot();
    assert_eq!(counter(&snap, "engine_calls"), 0);
    assert_eq!(counter(&snap, "engine_decode_ns"), 0);
    assert!(snap.spans.is_empty(), "reset must clear span totals too");
}

/// The one-snapshot-across-layers contract from DESIGN.md §12: an engine
/// snapshot merges with a foreign snapshot without losing either side.
#[test]
fn engine_snapshot_merges_with_other_layers() {
    let (model, ctx) = tiny_model();
    let engine = ForecastEngine::new(&model, 7).with_threads(1);
    engine.try_forecast_keyed(0, &ctx, 60, 1, 2).expect("valid");

    let other = {
        let registry = rpf_obs::Registry::new();
        registry.counter("train_epochs").add(3);
        registry.snapshot()
    };
    let mut unified = engine.obs_snapshot();
    unified.merge(&other);
    assert_eq!(counter(&unified, "engine_calls"), 1);
    assert_eq!(counter(&unified, "train_epochs"), 3);

    // Merging the engine snapshot into itself doubles the counters —
    // merge adds, it does not dedup.
    let snap = engine.obs_snapshot();
    let mut doubled = snap.clone();
    doubled.merge(&snap);
    assert_eq!(counter(&doubled, "engine_calls"), 2);
}

fn gauge(snap: &rpf_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.gauges
        .iter()
        .find(|g| g.name == name)
        .unwrap_or_else(|| panic!("missing gauge {name}"))
        .value
}

/// The `engine_model_version` gauge is read from the model slot, so it
/// follows a swap made directly on the slot and survives a timing reset.
#[test]
fn model_version_gauge_follows_the_slot() {
    let (model, _) = tiny_model();
    let model = Arc::new(model);
    let engine = ForecastEngine::new(Arc::clone(&model), 7).with_threads(1);
    assert_eq!(gauge(&engine.obs_snapshot(), "engine_model_version"), 0);

    engine
        .slot()
        .swap(VersionedModel::new(5, Arc::clone(&model)));
    assert_eq!(engine.model_version(), 5);
    assert_eq!(
        gauge(&engine.obs_snapshot(), "engine_model_version"),
        engine.model_version(),
        "gauge must follow a slot swap"
    );

    engine.slot().swap(VersionedModel::new(6, model));
    engine.reset_timings();
    assert_eq!(engine.model_version(), 6);
    assert_eq!(
        gauge(&engine.obs_snapshot(), "engine_model_version"),
        engine.model_version(),
        "gauge must survive reset_timings"
    );
}
