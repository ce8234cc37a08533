//! Fault-injection matrix for the serving scheduler (requires the
//! `fault-inject` feature): a worker panic mid-batch must degrade only the
//! poisoned request to a flagged CurRank fallback, a poisoned queue mutex
//! must be recovered without hanging or dropping anything, and deadline
//! expiry must answer with the flagged fallback — never a hang, never a
//! lost response.
#![cfg(feature = "fault-inject")]

mod common;

use common::{alt_model, assert_parity, bits, fixture, store_root, ENGINE_SEED};
use ranknet_core::engine::{currank_forecast, ForecastEngine};
use ranknet_core::lifecycle::{fault as core_fault, LifecycleError, ModelStore};
use rpf_serve::fault::{self, ServeFaultPlan};
use rpf_serve::{
    serve, serve_sharded, serve_with_lifecycle, shard_of, CandidateDecision, FallbackReason,
    LifecycleConfig, LifecycleController, ServeConfig, ServeRequest, ShardTopology,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// The fault plan is process-global: tests installing plans serialize here.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    match TEST_LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Submit `reqs` in order, wait for everything, return (request, outcome)
/// pairs. Admission ids are assigned in submission order starting at 1, so
/// fault plans can target exact requests.
fn serve_all(
    cfg: &ServeConfig,
    reqs: &[ServeRequest],
) -> (
    Vec<(ServeRequest, rpf_serve::ServeResult)>,
    rpf_serve::MetricsSnapshot,
) {
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
    serve(&engine, &refs, cfg, |client| {
        let pending: Vec<_> = reqs
            .iter()
            .map(|&req| (req, client.submit(req).expect("queue sized for the load")))
            .collect();
        pending
            .into_iter()
            .map(|(req, p)| (req, p.wait()))
            .collect::<Vec<_>>()
    })
}

/// A planned panic while forecasting one request of a batch: that request
/// degrades to the flagged CurRank fallback, its batch neighbours still
/// get bit-exact model forecasts, and nothing hangs or is dropped.
#[test]
fn worker_panic_mid_batch_degrades_only_the_poisoned_request() {
    let _guard = locked();
    // Ids are assigned in submission order starting at 1: target the 2nd.
    fault::install(ServeFaultPlan::new().panic_on_request(2));

    let cfg = ServeConfig {
        workers: 1,
        max_batch: 8,
        max_delay: Duration::from_millis(200),
        queue_capacity: 64,
    };
    let reqs: Vec<ServeRequest> = (0..4)
        .map(|i| ServeRequest::new(i % 2, 60 + 5 * i, 2, 3))
        .collect();
    let (outcomes, metrics) = serve_all(&cfg, &reqs);
    fault::clear();

    assert_eq!(outcomes.len(), 4, "a panic must not drop responses");
    let (_, contexts) = fixture();
    let mut degraded = 0;
    for (req, outcome) in &outcomes {
        let resp = outcome.as_ref().expect("all requests here are valid");
        if resp.id == 2 {
            degraded += 1;
            assert_eq!(resp.fallback, Some(FallbackReason::WorkerPanic));
            assert!(resp.forecast.degraded);
            let reference =
                currank_forecast(&contexts[req.race], req.origin, req.horizon, req.n_samples)
                    .expect("valid request");
            assert_eq!(bits(&reference), bits(&resp.forecast));
        } else {
            // Neighbours of the poisoned request are retried one at a time
            // and must still match the direct call exactly.
            assert_parity(req, outcome);
        }
    }
    assert_eq!(degraded, 1);
    assert_eq!(metrics.fallback_panic, 1);
    assert_eq!(metrics.ok_responses, 3);
    assert_eq!(metrics.completed, 4);
    // The batch attempt panics once, then the per-request retry panics
    // again on the poisoned request.
    assert!(
        metrics.worker_panics >= 2,
        "expected batch + retry panics, saw {}",
        metrics.worker_panics
    );
}

/// A worker panicking while it *holds the queue mutex* poisons the lock
/// for every thread after it. The scheduler must recover the poison and
/// keep serving: no hang, no lost response.
#[test]
fn poisoned_queue_mutex_is_recovered_and_service_continues() {
    let _guard = locked();
    fault::install(ServeFaultPlan::new().poison_shard_mailbox(0));

    let cfg = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_delay: Duration::from_micros(200),
        queue_capacity: 64,
    };
    let reqs: Vec<ServeRequest> = (0..6)
        .map(|i| ServeRequest::new(i % 2, 70 + 3 * i, 1, 2))
        .collect();
    let (outcomes, metrics) = serve_all(&cfg, &reqs);
    fault::clear();

    assert_eq!(outcomes.len(), 6, "poisoned mutex must not drop requests");
    for (req, outcome) in &outcomes {
        assert_parity(req, outcome);
    }
    assert_eq!(metrics.completed, 6);
    assert_eq!(metrics.ok_responses, 6);
    assert_eq!(
        metrics.queue_poison_recoveries, 1,
        "the injected poison fires exactly once and is recovered"
    );
}

/// A zero deadline always expires in the queue: the response must be the
/// flagged CurRank fallback with exactly the persistence bits — delivered,
/// not dropped, and never blocking on the model.
#[test]
fn expired_deadline_degrades_to_flagged_currank_fallback() {
    let _guard = locked();
    fault::clear(); // no scheduler faults — deadline expiry is config-driven

    let cfg = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_delay: Duration::from_micros(100),
        queue_capacity: 64,
    };
    let expired = ServeRequest::new(0, 80, 3, 4).with_deadline(Duration::ZERO);
    let live = ServeRequest::new(1, 90, 2, 2);
    let (outcomes, metrics) = serve_all(&cfg, &[expired, live]);

    assert_eq!(outcomes.len(), 2);
    let (_, contexts) = fixture();
    for (req, outcome) in &outcomes {
        let resp = outcome.as_ref().expect("both requests are valid");
        if req.deadline.is_some() {
            assert_eq!(resp.fallback, Some(FallbackReason::DeadlineExpired));
            assert!(resp.forecast.degraded);
            let reference =
                currank_forecast(&contexts[req.race], req.origin, req.horizon, req.n_samples)
                    .expect("valid request");
            assert_eq!(bits(&reference), bits(&resp.forecast));
        } else {
            assert_parity(req, outcome);
        }
    }
    assert_eq!(metrics.fallback_deadline, 1);
    assert_eq!(metrics.ok_responses, 1);
    assert_eq!(metrics.completed, 2);
    assert_eq!(metrics.worker_panics, 0);
}

// ---- lifecycle fault matrix (DESIGN.md §14) --------------------------------

/// Panic injected *inside* the hot-swap, fired from a worker thread while
/// a batch is mid-flight: the swap must abort atomically — the old version
/// keeps serving every request bit-exactly, the candidate's artifact is
/// quarantined, and the rollback is visible in the region metrics.
#[test]
fn panic_mid_swap_under_traffic_keeps_old_version_serving() {
    let _guard = locked();
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let root = store_root("panic_mid_swap");
    let store = ModelStore::open(&root).expect("store opens");
    let candidate = store
        .publish(alt_model(), None, "candidate")
        .expect("publish");
    let lc = Arc::new(LifecycleController::new(LifecycleConfig::default()).with_store(store));

    // The swap hook runs from the worker thread, mid-batch; it owns Arc
    // clones because the fault plan is process-global ('static).
    let hook_lc = Arc::clone(&lc);
    let hook_slot = Arc::clone(engine.slot());
    let version = candidate.version;
    core_fault::arm_panic_next_swap();
    fault::install(ServeFaultPlan::new().swap_on_request(2, move || {
        hook_lc.rolling_swap(
            std::slice::from_ref(&hook_slot),
            version,
            Arc::new(alt_model().clone()),
        );
    }));

    let cfg = ServeConfig {
        workers: 1,
        max_batch: 8,
        max_delay: Duration::from_millis(200),
        queue_capacity: 64,
    };
    let reqs: Vec<ServeRequest> = (0..4)
        .map(|i| ServeRequest::new(i % 2, 60 + 5 * i, 2, 3))
        .collect();
    let (outcomes, metrics) = serve_with_lifecycle(&engine, &refs, &cfg, &lc, |client| {
        let pending: Vec<_> = reqs
            .iter()
            .map(|&req| (req, client.submit(req).expect("queue sized for the load")))
            .collect();
        pending
            .into_iter()
            .map(|(req, p)| (req, p.wait()))
            .collect::<Vec<_>>()
    });
    fault::clear();
    core_fault::clear();

    assert_eq!(outcomes.len(), 4, "an aborted swap must not drop responses");
    for (req, outcome) in &outcomes {
        let resp = outcome.as_ref().expect("all requests here are valid");
        assert!(resp.fallback.is_none(), "aborted swap degraded {req:?}");
        assert_eq!(resp.forecast.model_version, 0, "old version must serve");
        assert_parity(req, outcome);
    }
    assert_eq!(engine.model_version(), 0);
    assert_eq!(
        lc.decisions(),
        vec![CandidateDecision::RolledBack {
            version,
            samples: 0,
            mean_divergence_milli: 0,
        }]
    );
    assert_eq!(metrics.rollbacks, 1);
    assert_eq!(metrics.swaps, 0);
    assert_eq!(metrics.model_version, 0);
    let quarantined = lc
        .store()
        .expect("attached")
        .quarantined()
        .expect("readable");
    assert!(
        quarantined.iter().any(|q| q.contains("swap-panic")),
        "candidate must be quarantined after the aborted swap, saw {quarantined:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The same aborted swap fired while the region is already draining its
/// queue after shutdown: every drained request is still answered on the
/// old version, nothing hangs, and the candidate is quarantined.
#[test]
fn panic_mid_swap_during_shutdown_drain_answers_everything_on_old_version() {
    let _guard = locked();
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let root = store_root("drain_swap");
    let store = ModelStore::open(&root).expect("store opens");
    let candidate = store
        .publish(alt_model(), None, "candidate")
        .expect("publish");
    let lc = Arc::new(LifecycleController::new(LifecycleConfig::default()).with_store(store));

    let hook_lc = Arc::clone(&lc);
    let hook_slot = Arc::clone(engine.slot());
    let version = candidate.version;
    core_fault::arm_panic_next_swap();
    fault::install(ServeFaultPlan::new().swap_on_request(3, move || {
        hook_lc.rolling_swap(
            std::slice::from_ref(&hook_slot),
            version,
            Arc::new(alt_model().clone()),
        );
    }));

    let cfg = ServeConfig {
        workers: 1,
        max_batch: 2,
        max_delay: Duration::from_millis(50),
        queue_capacity: 64,
    };
    let reqs: Vec<ServeRequest> = (0..5)
        .map(|i| ServeRequest::new(i % 2, 62 + 4 * i, 2, 3))
        .collect();
    // Submit everything and return immediately: the region shuts down with
    // the queue full, and the drain path serves (and swaps) after close.
    let (pending, metrics) = serve_with_lifecycle(&engine, &refs, &cfg, &lc, |client| {
        reqs.iter()
            .map(|&req| (req, client.submit(req).expect("queue sized for the load")))
            .collect::<Vec<_>>()
    });
    fault::clear();
    core_fault::clear();

    assert_eq!(pending.len(), 5, "drain must answer every accepted request");
    for (req, p) in pending {
        let outcome = p.wait();
        let resp = outcome.as_ref().expect("all requests here are valid");
        assert!(resp.fallback.is_none());
        assert_eq!(resp.forecast.model_version, 0, "old version must serve");
        assert_parity(&req, &outcome);
    }
    assert_eq!(engine.model_version(), 0);
    assert_eq!(metrics.completed, 5);
    assert_eq!(metrics.rollbacks, 1);
    assert_eq!(metrics.swaps, 0);
    let quarantined = lc
        .store()
        .expect("attached")
        .quarantined()
        .expect("readable");
    assert!(
        quarantined.iter().any(|q| q.contains("swap-panic")),
        "candidate must be quarantined, saw {quarantined:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A crash between the artifact write and the manifest write (torn
/// publish): the publish fails, the next store open quarantines the torn
/// directory, its version id is never reused, and the serving region keeps
/// answering on the old version throughout.
#[test]
fn torn_publish_is_quarantined_and_old_version_keeps_serving() {
    let _guard = locked();
    fault::clear();
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let root = store_root("torn_publish");
    let store = ModelStore::open(&root).expect("store opens");
    let live = store.publish(model, None, "baseline").expect("publish");
    store.set_current(live.version).expect("promote baseline");

    core_fault::arm_tear_next_publish();
    let torn = store.publish(alt_model(), Some(live.version), "candidate");
    core_fault::clear();
    let torn_version = match torn {
        Err(LifecycleError::Torn { version }) => version,
        other => panic!("expected torn publish, got {other:?}"),
    };

    // Reopen = crash recovery: the sweep moves the torn directory aside.
    let store = ModelStore::open(&root).expect("reopen sweeps");
    let quarantined = store.quarantined().expect("readable");
    assert!(
        quarantined.iter().any(|q| q.contains("torn")),
        "torn artifact must be quarantined, saw {quarantined:?}"
    );
    assert!(!store.versions().expect("readable").contains(&torn_version));
    assert_eq!(store.current().expect("readable"), Some(live.version));
    // The torn id is burnt, never recycled for a later publish.
    let next = store
        .publish(alt_model(), Some(live.version), "retry")
        .expect("publish");
    assert!(
        next.version > torn_version,
        "version ids must never be reused"
    );

    let lc = LifecycleController::new(LifecycleConfig::default()).with_store(store);
    let (_, metrics) = serve_with_lifecycle(&engine, &refs, &serve_cfg_small(), &lc, |client| {
        for i in 0..3 {
            let resp = client
                .forecast(ServeRequest::new(i % 2, 75 + i, 2, 3))
                .expect("accepted")
                .expect("valid");
            assert!(resp.fallback.is_none());
            assert_eq!(resp.forecast.model_version, 0);
        }
    });
    assert_eq!(metrics.completed, 3);
    assert_eq!(metrics.model_version, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Bit rot in a published candidate: the checksum mismatch is detected at
/// load, the artifact is quarantined (at most one hit), and the serving
/// region never sees the bad weights.
#[test]
fn checksum_corrupt_candidate_is_quarantined_before_it_can_serve() {
    let _guard = locked();
    fault::clear();
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let root = store_root("corrupt_candidate");
    let store = ModelStore::open(&root).expect("store opens");
    let candidate = store
        .publish(alt_model(), None, "candidate")
        .expect("publish");

    // Flip bytes in the committed artifact behind the manifest's back.
    let artifact = root
        .join("versions")
        .join(format!("v{:06}", candidate.version))
        .join("model.json");
    let mut bytes = std::fs::read(&artifact).expect("artifact readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&artifact, &bytes).expect("artifact writable");

    match store.load(candidate.version) {
        Err(LifecycleError::Corrupt { version, .. }) => assert_eq!(version, candidate.version),
        Err(other) => panic!("expected checksum failure, got {other:?}"),
        Ok(_) => panic!("corrupt artifact must not load"),
    }
    let quarantined = store.quarantined().expect("readable");
    assert!(
        quarantined.iter().any(|q| q.contains("corrupt")),
        "corrupt artifact must be quarantined, saw {quarantined:?}"
    );
    assert!(
        matches!(
            store.load(candidate.version),
            Err(LifecycleError::NotFound(v)) if v == candidate.version
        ),
        "a quarantined artifact can be hit at most once"
    );

    // The region never staged the corrupt candidate: old version serves.
    let lc = LifecycleController::new(LifecycleConfig::default()).with_store(store);
    let (_, metrics) = serve_with_lifecycle(&engine, &refs, &serve_cfg_small(), &lc, |client| {
        for i in 0..3 {
            let resp = client
                .forecast(ServeRequest::new(i % 2, 68 + 2 * i, 2, 3))
                .expect("accepted")
                .expect("valid");
            assert!(resp.fallback.is_none());
            assert_eq!(resp.forecast.model_version, 0);
        }
    });
    assert_eq!(metrics.completed, 3);
    assert_eq!(metrics.swaps + metrics.rollbacks, 0);
    assert_eq!(metrics.model_version, 0);
    let _ = std::fs::remove_dir_all(&root);
}

// ---- shard fault matrix (DESIGN.md §15) ------------------------------------

/// A worker killed on one shard under multi-race traffic: the killed
/// shard's backlog degrades to flagged CurRank fallbacks, the supervisor
/// restarts the worker, and every other shard keeps serving bit-identical
/// model forecasts. Accounting must cover every accepted request.
#[test]
fn shard_worker_kill_degrades_only_the_killed_shard() {
    let _guard = locked();
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let cfg = ServeConfig {
        workers: 1,
        max_batch: 8,
        max_delay: Duration::from_millis(200),
        queue_capacity: 64,
    };
    let topo = ShardTopology::new(2);
    let reqs: Vec<ServeRequest> = (0..8)
        .map(|i| ServeRequest::new(i % 2, 60 + 3 * i, 2, 3))
        .collect();
    // The first request admitted to its shard gets per-shard id 1: target it.
    let killed = shard_of(reqs[0].race, reqs[0].origin, 2);
    fault::install(ServeFaultPlan::new().kill_shard_worker(killed, 1));

    let (outcomes, sharded) = serve_sharded(&engine, &refs, &cfg, topo, |client| {
        let pending: Vec<_> = reqs
            .iter()
            .map(|&req| {
                let shard = client.shard_of(&req);
                (req, shard, client.submit(req).expect("queue sized"))
            })
            .collect();
        pending
            .into_iter()
            .map(|(req, shard, p)| (req, shard, p.wait()))
            .collect::<Vec<_>>()
    });
    fault::clear();

    assert_eq!(outcomes.len(), 8, "a killed shard must not drop responses");
    let mut shard_fallbacks = 0u64;
    for (req, shard, outcome) in &outcomes {
        let resp = outcome.as_ref().expect("all requests here are valid");
        if resp.fallback == Some(FallbackReason::ShardFailure) {
            assert_eq!(*shard, killed, "only the killed shard may degrade");
            assert!(resp.forecast.degraded);
            let reference =
                currank_forecast(&contexts[req.race], req.origin, req.horizon, req.n_samples)
                    .expect("valid request");
            assert_eq!(bits(&reference), bits(&resp.forecast));
            shard_fallbacks += 1;
        } else {
            // Survivor shards — and post-restart service on the killed one —
            // stay bit-identical to the direct engine call.
            assert_parity(req, outcome);
        }
    }
    assert!(shard_fallbacks >= 1, "the killed batch must degrade");
    let merged = sharded.merged();
    assert_eq!(merged.completed, 8, "every accepted request is answered");
    assert_eq!(merged.fallback_shard, shard_fallbacks);
    assert_eq!(merged.ok_responses, 8 - shard_fallbacks);
    assert!(
        merged.shard_restarts >= 1,
        "the supervisor must restart the killed worker"
    );
    let survivor = &sharded.per_shard[killed ^ 1];
    assert_eq!(survivor.fallback_shard, 0);
    assert_eq!(survivor.shard_restarts, 0);
    assert_eq!(survivor.worker_panics, 0);
}

/// The flat `serve()` region is shard 0 of a supervised region: a killed
/// worker's backlog is answered with flagged `ShardFailure` fallbacks, the
/// supervisor restarts the worker once, and later requests keep the
/// direct call's bits.
#[test]
fn flat_region_worker_kill_is_supervised_and_service_continues() {
    let _guard = locked();
    // Ids start at 1 in submission order: kill the batch holding the first.
    fault::install(ServeFaultPlan::new().kill_shard_worker(0, 1));

    // A batch dispatches only when full, so each group of four is one batch.
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 4,
        max_delay: Duration::from_secs(60),
        queue_capacity: 64,
    };
    let backlog: Vec<ServeRequest> = (0..4)
        .map(|i| ServeRequest::new(i % 2, 60 + 3 * i, 2, 3))
        .collect();
    let later: Vec<ServeRequest> = (0..4)
        .map(|i| ServeRequest::new(i % 2, 80 + 3 * i, 2, 3))
        .collect();
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
    let submit_all = |client: rpf_serve::ServeClient<'_, '_>, reqs: &[ServeRequest]| {
        let pending: Vec<_> = reqs
            .iter()
            .map(|&req| (req, client.submit(req).expect("queue sized")))
            .collect();
        pending
            .into_iter()
            .map(|(req, p)| (req, p.wait()))
            .collect::<Vec<_>>()
    };
    let ((killed, served), metrics) = serve(&engine, &refs, &cfg, |client| {
        (submit_all(client, &backlog), submit_all(client, &later))
    });
    fault::clear();

    for (req, outcome) in &killed {
        let resp = outcome.as_ref().expect("all requests here are valid");
        assert_eq!(resp.fallback, Some(FallbackReason::ShardFailure));
        let reference =
            currank_forecast(&contexts[req.race], req.origin, req.horizon, req.n_samples)
                .expect("valid request");
        assert_eq!(bits(&reference), bits(&resp.forecast));
    }
    for (req, outcome) in &served {
        assert_parity(req, outcome);
    }
    assert_eq!(metrics.shard_restarts, 1, "the supervisor restarts once");
    assert_eq!(metrics.fallback_shard, 4);
    assert_eq!(metrics.ok_responses, 4);
    assert_eq!(metrics.completed, 8, "every accepted request is answered");
}

/// A poisoned mailbox mutex on one shard: that shard recovers the poison
/// and keeps serving, no request is dropped anywhere, and the other
/// shard's metrics never see the fault.
#[test]
fn poisoned_shard_mailbox_is_recovered_and_other_shards_unaffected() {
    let _guard = locked();
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let cfg = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_delay: Duration::from_micros(200),
        queue_capacity: 64,
    };
    let topo = ShardTopology::new(2);
    let reqs: Vec<ServeRequest> = (0..8)
        .map(|i| ServeRequest::new(i % 2, 70 + 3 * i, 1, 2))
        .collect();
    let poisoned = shard_of(reqs[0].race, reqs[0].origin, 2);
    fault::install(ServeFaultPlan::new().poison_shard_mailbox(poisoned));

    let (outcomes, sharded) = serve_sharded(&engine, &refs, &cfg, topo, |client| {
        let pending: Vec<_> = reqs
            .iter()
            .map(|&req| (req, client.submit(req).expect("queue sized")))
            .collect();
        pending
            .into_iter()
            .map(|(req, p)| (req, p.wait()))
            .collect::<Vec<_>>()
    });
    fault::clear();

    assert_eq!(outcomes.len(), 8, "poisoned mailbox must not drop requests");
    for (req, outcome) in &outcomes {
        assert_parity(req, outcome);
    }
    let merged = sharded.merged();
    assert_eq!(merged.completed, 8);
    assert_eq!(merged.ok_responses, 8);
    assert_eq!(
        sharded.per_shard[poisoned].queue_poison_recoveries, 1,
        "the injected poison fires exactly once on the target shard"
    );
    assert_eq!(sharded.per_shard[poisoned ^ 1].queue_poison_recoveries, 0);
}

/// A panic while rolling a new model across the shard fleet: the rollout
/// unwinds every shard already swapped, all shards converge back to the
/// old version, the candidate is quarantined, and post-roll traffic stays
/// bit-identical to the pre-roll bits.
#[test]
fn rolling_swap_panic_unwinds_every_shard_to_the_old_version() {
    let _guard = locked();
    let (model, contexts) = fixture();
    let refs: Vec<_> = contexts.iter().collect();
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);

    let root = store_root("rolling_swap_panic");
    let store = ModelStore::open(&root).expect("store opens");
    let candidate = store
        .publish(alt_model(), None, "candidate")
        .expect("publish");
    let lc = LifecycleController::new(LifecycleConfig::default()).with_store(store);
    let version = candidate.version;

    // Shards 0 and 1 swap, shard 2 panics mid-roll, shard 3 is never reached.
    fault::install(ServeFaultPlan::new().panic_on_rolling_shard(2));

    let topo = ShardTopology::new(4);
    let (decision, sharded) = serve_sharded(&engine, &refs, &serve_cfg_small(), topo, |client| {
        for i in 0..4 {
            let resp = client
                .forecast(ServeRequest::new(i % 2, 64 + 2 * i, 1, 2))
                .expect("accepted")
                .expect("valid");
            assert_eq!(resp.forecast.model_version, 0);
        }
        let slots = client.slots();
        assert_eq!(slots.len(), 4);
        let decision = lc.rolling_swap(&slots, version, Arc::new(alt_model().clone()));
        // After the aborted roll every shard must serve the old bits again.
        for i in 0..4 {
            let req = ServeRequest::new(i % 2, 80 + 2 * i, 1, 2);
            let outcome = client.forecast(req).expect("accepted");
            let resp = outcome.as_ref().expect("valid");
            assert!(resp.fallback.is_none(), "aborted roll degraded {req:?}");
            assert_eq!(resp.forecast.model_version, 0, "old version must serve");
            assert_parity(&req, &outcome);
        }
        decision
    });
    fault::clear();

    assert_eq!(
        decision,
        CandidateDecision::RolledBack {
            version,
            samples: 0,
            mean_divergence_milli: 0,
        }
    );
    assert_eq!(lc.decisions(), vec![decision]);
    let merged = sharded.merged();
    assert_eq!(merged.completed, 8);
    assert_eq!(merged.ok_responses, 8);
    assert_eq!(merged.model_version, 0, "no shard may keep the candidate");
    let quarantined = lc
        .store()
        .expect("attached")
        .quarantined()
        .expect("readable");
    assert!(
        quarantined.iter().any(|q| q.contains("rolling-swap-panic")),
        "candidate must be quarantined after the aborted roll, saw {quarantined:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

fn serve_cfg_small() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 4,
        max_delay: Duration::from_micros(200),
        queue_capacity: 64,
    }
}
