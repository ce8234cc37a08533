//! Model-lifecycle integration: atomic hot-swap in a live serving region
//! (DESIGN.md §14). A swap under load must drop nothing, in-flight batches
//! must finish on the version they loaded, post-swap admissions must be
//! bit-identical to a direct `try_forecast_keyed` on the new version, and
//! the shadow-evaluation gate must promote a clean candidate and roll back
//! (and quarantine) a divergent one.

mod common;

use common::{alt_model, bits, fixture, store_root, ENGINE_SEED};
use ranknet_core::engine::ForecastEngine;
use ranknet_core::lifecycle::ModelStore;
use ranknet_core::ranknet::RankNet;
use rpf_nn::RngStreams;
use rpf_serve::loadgen::{self, LoadMix};
use rpf_serve::{
    serve, serve_with_lifecycle, CandidateDecision, LifecycleConfig, LifecycleController,
    ServeConfig, ServeRequest,
};
use std::sync::Arc;
use std::time::Duration;

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 4,
        max_delay: Duration::from_micros(200),
        queue_capacity: 256,
    }
}

/// Direct reference on a given model: a fresh single-threaded engine with
/// the serving seed, completely outside the serving layer.
fn direct_on(model: &RankNet, req: &ServeRequest) -> Vec<u32> {
    let (_, contexts) = fixture();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
    let forecast = engine
        .try_forecast_keyed(
            req.race,
            &contexts[req.race],
            req.origin,
            req.horizon,
            req.n_samples,
        )
        .expect("valid request");
    bits(&forecast)
}

/// Hot-swap mid-region under open-loop loadgen traffic: zero requests
/// dropped or errored, every response bit-identical to a direct call on
/// the version stamped into it, and admissions after the swap returned
/// serve the new version.
#[test]
fn hot_swap_under_load_drops_nothing_and_keeps_bit_parity() {
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let mix = LoadMix::standard(refs.len(), (60, 100));
    let streams = RngStreams::new(909);
    let wave = |first_index: u64| {
        loadgen::schedule(
            &loadgen::uniform(Duration::ZERO, Duration::from_micros(50), 24),
            &mix,
            &streams,
            first_index,
        )
    };

    let lc = LifecycleController::new(LifecycleConfig::default());
    let ((before, after), metrics) = serve(&engine, &refs, &serve_cfg(), |client| {
        let before = loadgen::run_open_loop(client, &wave(0));
        lc.rolling_swap(
            std::slice::from_ref(engine.slot()),
            1,
            Arc::new(alt_model().clone()),
        );
        let after = loadgen::run_open_loop(client, &wave(1_000));
        (before, after)
    });

    assert_eq!(before.rejected.len() + after.rejected.len(), 0);
    assert_eq!(before.outcomes.len() + after.outcomes.len(), 48);
    for (req, outcome) in before.outcomes.iter().chain(&after.outcomes) {
        let resp = outcome.as_ref().expect("loadgen requests are valid");
        assert!(resp.fallback.is_none(), "swap degraded request {req:?}");
        // Parity against whichever version the scheduler stamped: batches
        // load the slot once, so the stamp and the bits must agree.
        let reference = match resp.forecast.model_version {
            0 => direct_on(model, req),
            1 => direct_on(alt_model(), req),
            v => panic!("unexpected model version {v}"),
        };
        assert_eq!(reference, bits(&resp.forecast), "parity broke for {req:?}");
    }
    // `run_open_loop` waits out every response before the swap, so the
    // entire second wave must be served by the new version.
    for (req, outcome) in &after.outcomes {
        let resp = outcome.as_ref().expect("valid");
        assert_eq!(
            resp.forecast.model_version, 1,
            "post-swap admission {req:?} answered on the old version"
        );
    }
    assert_eq!(metrics.completed, 48);
    assert_eq!(metrics.ok_responses, 48);
    assert_eq!(metrics.model_version, 1);
    assert_eq!(engine.model_version(), 1);
}

/// A clean candidate (bit-identical weights) shadow-evaluates to zero
/// divergence and is promoted: the live slot advances, the region metrics
/// carry the swap and the comparisons, and `CURRENT` moves in the store.
#[test]
fn shadow_evaluation_promotes_clean_candidate() {
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let root = store_root("promote");
    let store = ModelStore::open(&root).expect("store opens");
    let manifest = store.publish(model, None, "baseline").expect("publish");
    let candidate = store.publish(model, Some(manifest.version), "candidate");
    let candidate = candidate.expect("publish candidate");

    let lc = LifecycleController::new(LifecycleConfig {
        shadow_sample_every: 1,
        shadow_min_samples: 3,
        max_divergence_milli: 0,
    })
    .with_store(store);

    let (_, metrics) = serve_with_lifecycle(&engine, &refs, &serve_cfg(), &lc, |client| {
        let (loaded, _) = lc
            .store()
            .expect("attached")
            .load(candidate.version)
            .expect("load");
        lc.stage_candidate(&engine, candidate.version, Arc::new(loaded));
        for i in 0..4 {
            let resp = client
                .forecast(ServeRequest::new(i % 2, 70 + i, 2, 3))
                .expect("accepted")
                .expect("valid");
            assert!(resp.fallback.is_none());
        }
    });

    assert_eq!(
        lc.decisions(),
        vec![CandidateDecision::Promoted {
            version: candidate.version,
            samples: 3,
            mean_divergence_milli: 0,
        }]
    );
    assert_eq!(engine.model_version(), candidate.version);
    assert_eq!(metrics.swaps, 1);
    assert_eq!(metrics.rollbacks, 0);
    assert_eq!(metrics.shadow_comparisons, 3);
    assert_eq!(metrics.model_version, candidate.version);
    let store = lc.store().expect("attached");
    assert_eq!(store.current().expect("readable"), Some(candidate.version));
    let _ = std::fs::remove_dir_all(&root);
}

/// A divergent candidate fails the gate: the old version keeps serving,
/// the candidate's artifact is quarantined, and the rollback is visible in
/// the region metrics.
#[test]
fn shadow_divergence_rolls_back_and_quarantines() {
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let root = store_root("rollback");
    let store = ModelStore::open(&root).expect("store opens");
    let candidate = store
        .publish(alt_model(), None, "divergent")
        .expect("publish");

    let lc = LifecycleController::new(LifecycleConfig {
        shadow_sample_every: 1,
        shadow_min_samples: 2,
        max_divergence_milli: 0,
    })
    .with_store(store);

    let (_, metrics) = serve_with_lifecycle(&engine, &refs, &serve_cfg(), &lc, |client| {
        lc.stage_candidate(&engine, candidate.version, Arc::new(alt_model().clone()));
        for i in 0..3 {
            let resp = client
                .forecast(ServeRequest::new(i % 2, 65 + 2 * i, 2, 4))
                .expect("accepted")
                .expect("valid");
            assert!(resp.fallback.is_none());
        }
    });

    let decisions = lc.decisions();
    assert_eq!(decisions.len(), 1);
    match &decisions[0] {
        CandidateDecision::RolledBack {
            version,
            samples,
            mean_divergence_milli,
        } => {
            assert_eq!(*version, candidate.version);
            assert_eq!(*samples, 2);
            assert!(
                *mean_divergence_milli > 0,
                "a different model must diverge in rank"
            );
        }
        other => panic!("expected rollback, got {other:?}"),
    }
    assert_eq!(engine.model_version(), 0, "old version must keep serving");
    assert_eq!(metrics.swaps, 0);
    assert_eq!(metrics.rollbacks, 1);
    assert_eq!(metrics.shadow_comparisons, 2);
    assert_eq!(metrics.model_version, 0);

    let store = lc.store().expect("attached");
    let quarantined = store.quarantined().expect("readable");
    assert!(
        quarantined.iter().any(|q| q.contains("diverged")),
        "candidate must be quarantined as diverged, saw {quarantined:?}"
    );
    assert!(
        store.load(candidate.version).is_err(),
        "a quarantined version must no longer load"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Sequential forecasts across a swap: each answer is bit-identical to the
/// direct call on the version serving at submission time — the swap point
/// is exact, not fuzzy.
#[test]
fn sequential_requests_flip_versions_exactly_at_the_swap() {
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
    let lc = LifecycleController::new(LifecycleConfig::default());

    let req = ServeRequest::new(0, 80, 3, 4);
    let (_, _) = serve_with_lifecycle(&engine, &refs, &serve_cfg(), &lc, |client| {
        let old = client.forecast(req).expect("accepted").expect("valid");
        assert_eq!(old.forecast.model_version, 0);
        assert_eq!(bits(&old.forecast), direct_on(model, &req));

        let decision = lc.rolling_swap(
            std::slice::from_ref(engine.slot()),
            7,
            Arc::new(alt_model().clone()),
        );
        assert!(matches!(
            decision,
            CandidateDecision::Promoted { version: 7, .. }
        ));

        let new = client.forecast(req).expect("accepted").expect("valid");
        assert_eq!(new.forecast.model_version, 7);
        assert_eq!(bits(&new.forecast), direct_on(alt_model(), &req));
    });
    assert_eq!(engine.model_version(), 7);
}
