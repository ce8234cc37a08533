//! The tentpole harness: batched serving must be bit-identical to direct
//! engine calls across worker counts, lose nothing, duplicate nothing,
//! bound its queue under overload, and drain cleanly on shutdown.

mod common;

use common::{assert_parity, bits, fixture, ENGINE_SEED};
use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::RaceContext;
use rpf_nn::RngStreams;
use rpf_serve::loadgen::{self, LoadMix, MultiRaceMix};
use rpf_serve::{
    serve, serve_sharded, shard_of, ServeConfig, ServeRequest, ShardTopology, SubmitError,
};
use std::collections::HashSet;
use std::time::Duration;

fn ctx_refs(contexts: &[RaceContext]) -> Vec<&RaceContext> {
    contexts.iter().collect()
}

/// Mixed closed-loop load, served with 1, 2 and 8 workers: every response
/// must replay the direct call's exact bits, and every submission must be
/// answered exactly once.
#[test]
fn batched_serving_matches_direct_calls_across_worker_counts() {
    let (model, contexts) = fixture();
    let refs = ctx_refs(contexts);
    let mix = LoadMix::standard(2, (40, 110));
    let streams = RngStreams::new(0xC0FFEE);

    for workers in [1usize, 2, 8] {
        let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
        let cfg = ServeConfig {
            workers,
            max_batch: 4,
            max_delay: Duration::from_millis(2),
            queue_capacity: 256,
        };
        let (report, metrics) = serve(&engine, &refs, &cfg, |client| {
            loadgen::run_closed_loop(client, 4, 10, &mix, &streams)
        });

        assert!(report.rejected.is_empty(), "queue sized for the full load");
        assert_eq!(report.outcomes.len(), 40, "one response per submission");
        let ids: HashSet<u64> = report
            .outcomes
            .iter()
            .map(|(_, o)| o.as_ref().map(|r| r.id).unwrap_or(0))
            .collect();
        assert_eq!(ids.len(), 40, "no duplicated responses ({workers} workers)");
        for (req, outcome) in &report.outcomes {
            assert_parity(req, outcome);
        }
        assert_eq!(metrics.completed, 40);
        assert_eq!(metrics.accepted, 40);
        assert_eq!(metrics.ok_responses, 40);
    }
}

/// A burst of duplicated queries (the live-race hot spot) must coalesce
/// onto fewer engine runs — and still answer every caller with the exact
/// direct-call bits.
#[test]
fn duplicate_requests_coalesce_and_stay_bit_identical() {
    let (model, contexts) = fixture();
    let refs = ctx_refs(contexts);
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 16,
        // Generous hold: the whole burst lands in one batch as long as
        // submission finishes within this window.
        max_delay: Duration::from_millis(200),
        queue_capacity: 64,
    };
    let mix = LoadMix {
        unique_queries: Some(3),
        ..LoadMix::standard(2, (50, 100))
    };
    let streams = RngStreams::new(0xAB);
    let script = loadgen::schedule(&loadgen::burst(Duration::ZERO, 12), &mix, &streams, 0);

    let (report, metrics) = serve(&engine, &refs, &cfg, |client| {
        loadgen::run_open_loop(client, &script)
    });

    assert_eq!(report.outcomes.len(), 12);
    for (req, outcome) in &report.outcomes {
        assert_parity(req, outcome);
    }
    // 12 requests over 3 distinct queries in one batch: at least 9 were
    // answered by coalescing rather than fresh model runs.
    let t = engine.timings();
    assert!(
        t.coalesced_requests >= 9,
        "expected coalescing, got {} coalesced over {} calls",
        t.coalesced_requests,
        t.calls
    );
    assert_eq!(metrics.batches, 1, "burst must form a single batch");
    assert_eq!(metrics.batched_requests, 12);
}

/// Overload: a slow first request pins the single worker, then a fast
/// burst overfills the bounded queue. Beyond-capacity submissions must be
/// rejected with the typed error, the queue depth must never exceed the
/// cap, and every *accepted* request must still be answered.
#[test]
fn overload_is_rejected_typed_and_queue_stays_bounded() {
    let (model, contexts) = fixture();
    let refs = ctx_refs(contexts);
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
    let capacity = 4;
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 1,
        max_delay: Duration::ZERO,
        queue_capacity: capacity,
    };

    let (report, metrics) = serve(&engine, &refs, &cfg, |client| {
        let mut report = loadgen::LoadReport::default();
        // Occupy the worker: a heavy request the worker picks up first.
        let heavy = ServeRequest::new(0, 100, 3, 64);
        let mut pending = vec![(heavy, client.submit(heavy))];
        // Then flood: far more than the queue can hold.
        for i in 0..40 {
            let req = ServeRequest::new(i % 2, 60 + (i % 5), 1, 1);
            pending.push((req, client.submit(req)));
        }
        for (req, sub) in pending {
            match sub {
                Ok(p) => report.outcomes.push((req, p.wait())),
                Err(e) => report.rejected.push((req, e)),
            }
        }
        report
    });

    assert!(
        !report.rejected.is_empty(),
        "flooding a 4-deep queue must reject"
    );
    for (_, err) in &report.rejected {
        assert_eq!(*err, SubmitError::QueueFull { capacity });
    }
    assert!(
        metrics.queue_depth_max <= capacity as u64,
        "queue depth {} exceeded the cap {capacity}",
        metrics.queue_depth_max
    );
    // Conservation under overload: accepted + rejected = submitted, and
    // accepted = completed.
    assert_eq!(
        metrics.accepted + metrics.rejected_queue_full,
        metrics.submitted
    );
    assert_eq!(metrics.completed, metrics.accepted);
    assert_eq!(report.outcomes.len() as u64, metrics.accepted);
    for (req, outcome) in &report.outcomes {
        assert_parity(req, outcome);
    }
}

/// Returning from the serve body closes admission and drains: pending
/// handles resolve after `serve` returns, nothing is lost.
#[test]
fn shutdown_drains_every_accepted_request() {
    let (model, contexts) = fixture();
    let refs = ctx_refs(contexts);
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
    let cfg = ServeConfig {
        workers: 2,
        max_batch: 8,
        max_delay: Duration::from_millis(50),
        queue_capacity: 64,
    };

    let (pending, metrics) = serve(&engine, &refs, &cfg, |client| {
        // Submit and return immediately — do NOT wait. The scheduler must
        // drain these during shutdown.
        (0..10)
            .map(|i| {
                let req = ServeRequest::new(0, 70 + i, 2, 2);
                (req, client.submit(req))
            })
            .collect::<Vec<_>>()
    });

    let mut answered = 0;
    for (req, sub) in pending {
        let p = sub.expect("queue sized for the full load");
        let outcome = p.wait();
        assert_parity(&req, &outcome);
        answered += 1;
    }
    assert_eq!(answered, 10);
    assert_eq!(metrics.completed, 10, "drain must answer everything");
    assert_eq!(metrics.accepted, 10);
}

/// A panic in the serve body must close admission on its way out, so the
/// region's workers stop and the panic reaches the caller. Without that,
/// the region's scope joins workers still waiting for work, forever.
#[test]
fn panicking_body_propagates_instead_of_hanging() {
    let (model, contexts) = fixture();
    let refs = ctx_refs(contexts);
    let cfg = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_delay: Duration::from_millis(2),
        queue_capacity: 16,
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
        let flat = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(&engine, &refs, &cfg, |client| {
                let _ = client.submit(ServeRequest::new(0, 70, 2, 2));
                panic!("body fails");
            })
        }));
        let sharded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_sharded(&engine, &refs, &cfg, ShardTopology::new(2), |client| {
                let _ = client.submit(ServeRequest::new(0, 70, 2, 2));
                panic!("body fails");
            })
        }));
        let _ = done_tx.send((flat.is_err(), sharded.is_err()));
    });
    let (flat_panicked, sharded_panicked) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a panicking serve body deadlocked its region");
    assert!(flat_panicked, "serve must propagate the body's panic");
    assert!(
        sharded_panicked,
        "serve_sharded must propagate the body's panic"
    );
}

/// The sharded tentpole pin: for every fixed layout in 1/2/4 shards ×
/// 1/2/8 workers, every sharded response must replay the *direct call's*
/// exact bits — which is the same reference the unsharded suite pins, so
/// sharded == unsharded == direct, bitwise. Routing must agree with the
/// public hash, conservation must hold across the fleet, and nothing may
/// be lost or duplicated within a shard.
#[test]
fn sharded_serving_matches_direct_calls_across_layouts() {
    let (model, contexts) = fixture();
    let refs = ctx_refs(contexts);
    let mix = MultiRaceMix::new(2, (40, 110), 1.0);
    let streams = RngStreams::new(0xC0FFEE);

    for shards in [1usize, 2, 4] {
        for workers in [1usize, 2, 8] {
            let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
            let cfg = ServeConfig {
                workers,
                max_batch: 4,
                max_delay: Duration::from_millis(2),
                queue_capacity: 256,
            };
            let script: Vec<ServeRequest> = (0..40).map(|i| mix.request_at(&streams, i)).collect();
            let (report, sharded) =
                serve_sharded(&engine, &refs, &cfg, ShardTopology::new(shards), |client| {
                    assert_eq!(client.shard_count(), shards);
                    let mut outcomes = Vec::new();
                    for req in &script {
                        assert_eq!(
                            client.shard_of(req),
                            shard_of(req.race, req.origin, shards),
                            "router must expose its real layout"
                        );
                        outcomes.push((*req, client.forecast(*req).expect("admitted")));
                    }
                    outcomes
                });

            for (req, outcome) in &report {
                assert_parity(req, outcome);
            }
            // Per-shard admission ids: unique within each shard.
            for (i, shard_snap) in sharded.per_shard.iter().enumerate() {
                let ids: HashSet<u64> = report
                    .iter()
                    .filter(|(req, _)| shard_of(req.race, req.origin, shards) == i)
                    .map(|(_, o)| o.as_ref().map(|r| r.id).unwrap_or(0))
                    .collect();
                assert_eq!(
                    ids.len() as u64,
                    shard_snap.completed,
                    "shard {i} duplicated or dropped ids ({shards} shards, {workers} workers)"
                );
                assert_eq!(shard_snap.completed, shard_snap.accepted);
            }
            let merged = sharded.merged();
            assert_eq!(merged.submitted, 40);
            assert_eq!(merged.completed, 40);
            assert_eq!(merged.ok_responses, 40);
        }
    }
}

/// Run-to-run determinism of the sharded region: the same script over the
/// same layout replays identical bits (common random numbers across
/// forked engines).
#[test]
fn repeated_sharded_runs_replay_identical_bits() {
    let (model, contexts) = fixture();
    let refs = ctx_refs(contexts);
    let reqs = [
        ServeRequest::new(0, 80, 2, 6),
        ServeRequest::new(1, 95, 3, 4),
        ServeRequest::new(0, 45, 1, 2),
    ];

    let run = || {
        let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(2);
        let cfg = ServeConfig::default();
        let (out, _) = serve_sharded(&engine, &refs, &cfg, ShardTopology::new(4), |client| {
            reqs.iter()
                .map(|r| {
                    client
                        .forecast(*r)
                        .expect("admitted")
                        .expect("valid request")
                })
                .collect::<Vec<_>>()
        });
        out
    };
    let a = run();
    let b = run();
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(bits(&ra.forecast), bits(&rb.forecast));
        assert_eq!(ra.id, rb.id, "per-shard admission order must be stable");
    }
}

/// Per-shard backpressure: flooding one shard's key must reject with the
/// flat scheduler's typed `QueueFull` while the merged books still
/// balance.
#[test]
fn hot_shard_overflow_maps_to_queue_full() {
    let (model, contexts) = fixture();
    let refs = ctx_refs(contexts);
    let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
    let capacity = 4;
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 1,
        max_delay: Duration::ZERO,
        queue_capacity: capacity,
    };

    let (report, sharded) = serve_sharded(&engine, &refs, &cfg, ShardTopology::new(2), |client| {
        let mut report = loadgen::LoadReport::default();
        // Pin one shard's worker with a heavy request, then flood the
        // same (race, origin) key — all of it routes to that shard.
        let heavy = ServeRequest::new(0, 100, 3, 64);
        let mut pending = vec![(heavy, client.submit(heavy))];
        for _ in 0..40 {
            let req = ServeRequest::new(0, 100, 1, 1);
            pending.push((req, client.submit(req)));
        }
        for (req, sub) in pending {
            match sub {
                Ok(p) => report.outcomes.push((req, p.wait())),
                Err(e) => report.rejected.push((req, e)),
            }
        }
        report
    });

    assert!(
        !report.rejected.is_empty(),
        "flooding one shard's 4-deep mailbox must reject"
    );
    for (_, err) in &report.rejected {
        assert_eq!(*err, SubmitError::QueueFull { capacity });
    }
    let merged = sharded.merged();
    assert_eq!(
        merged.accepted + merged.rejected_queue_full,
        merged.submitted
    );
    assert_eq!(merged.completed, merged.accepted);
    // The cold shard never saw a request, let alone a rejection.
    let cold = shard_of(0, 100, 2) ^ 1;
    assert_eq!(sharded.per_shard[cold].submitted, 0);
}

/// Serving results agree with the engine's own batch API and with each
/// other across repeated runs (common random numbers).
#[test]
fn repeated_serving_runs_replay_identical_bits() {
    let (model, contexts) = fixture();
    let refs = ctx_refs(contexts);
    let req = ServeRequest::new(1, 80, 2, 6);

    let run = || {
        let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(2);
        let cfg = ServeConfig::default();
        let (out, _) = serve(&engine, &refs, &cfg, |client| {
            client.forecast(req).expect("admitted")
        });
        out.expect("valid request")
    };
    let a = run();
    let b = run();
    assert_eq!(bits(&a.forecast), bits(&b.forecast));
}
