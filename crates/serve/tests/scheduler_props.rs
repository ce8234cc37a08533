//! Property suite for the scheduler's conservation invariants: under
//! arbitrary request lists (valid and invalid mixed), batch sizes and
//! worker counts, every submitted request gets exactly one response, and
//! every model response is bitwise equal to the unbatched direct call.
//! The virtual-clock replay, which runs the scheduler's own batching
//! policy, must keep the same books on arbitrary arrival scripts and never
//! serve a request before it arrived.

mod common;

use common::{assert_parity, fixture, ENGINE_SEED};
use proptest::prelude::*;
use ranknet_core::engine::ForecastEngine;
use rpf_serve::{replay_sharded, serve, ServeConfig, ServeRequest, ServiceModel};
use std::collections::HashSet;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_request_answered_once_and_bit_identical(
        raw in prop::collection::vec(
            // (race, origin, horizon, n_samples): race 2 is out of range
            // and zero horizons/sample counts are invalid — the scheduler
            // must answer those too, with typed errors. Origins are
            // clamped to >= 30 to keep the encode prefix non-trivial.
            (0usize..3, 0usize..110, 0usize..3, 0usize..3),
            1..16,
        ),
        workers in 1usize..4,
        max_batch in 1usize..7,
        delay_us in 0u64..2_000,
    ) {
        let (model, contexts) = fixture();
        let refs: Vec<_> = contexts.iter().collect();
        let engine = ForecastEngine::new(model, ENGINE_SEED).with_threads(1);
        let cfg = ServeConfig {
            workers,
            max_batch,
            max_delay: Duration::from_micros(delay_us),
            queue_capacity: 64,
        };
        let requests: Vec<ServeRequest> = raw
            .iter()
            .map(|&(race, origin, horizon, n_samples)| {
                ServeRequest::new(race, origin.max(30), horizon, n_samples)
            })
            .collect();

        let (outcomes, metrics) = serve(&engine, &refs, &cfg, |client| {
            let pending: Vec<_> = requests
                .iter()
                .map(|&req| (req, client.submit(req).expect("queue sized for the load")))
                .collect();
            pending
                .into_iter()
                .map(|(req, p)| (req, p.wait()))
                .collect::<Vec<_>>()
        });

        // Exactly one response per submission, no duplicates.
        prop_assert_eq!(outcomes.len(), requests.len());
        let ids: HashSet<u64> = outcomes
            .iter()
            .filter_map(|(_, o)| o.as_ref().ok().map(|r| r.id))
            .collect();
        let ok_count = outcomes.iter().filter(|(_, o)| o.is_ok()).count();
        prop_assert_eq!(ids.len(), ok_count, "duplicate response ids");
        prop_assert_eq!(metrics.completed, requests.len() as u64);
        prop_assert_eq!(metrics.accepted, metrics.completed);
        prop_assert_eq!(
            metrics.ok_responses + metrics.invalid,
            metrics.completed,
            "no fallbacks expected without deadlines or faults"
        );

        // Bitwise parity for every outcome, valid or not.
        for (req, outcome) in &outcomes {
            assert_parity(req, outcome);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replay_conserves_requests_and_never_serves_before_arrival(
        // (gap to the previous arrival, race, origin) per request.
        script in prop::collection::vec((0u64..3_000, 0usize..4, 30usize..60), 1..40),
        max_batch in 1usize..8,
        delay_ns in 0u64..5_000,
        queue_capacity in 1usize..12,
        batch_overhead_ns in 0u64..500,
        per_request_ns in 1u64..300,
    ) {
        let cfg = ServeConfig {
            workers: 1,
            max_batch,
            max_delay: Duration::from_nanos(delay_ns),
            queue_capacity,
        };
        let svc = ServiceModel { batch_overhead_ns, per_request_ns };
        let mut t = 0u64;
        let schedule: Vec<(u64, ServeRequest)> = script
            .iter()
            .map(|&(gap, race, origin)| {
                t += gap;
                (t, ServeRequest::new(race, origin, 2, 4))
            })
            .collect();

        let out = replay_sharded(&cfg, 1, &schedule, &svc);
        let m = out.snapshot.merged();
        prop_assert_eq!(m.submitted, schedule.len() as u64);
        prop_assert_eq!(m.submitted, m.accepted + m.rejected_queue_full);
        prop_assert_eq!(m.completed, m.accepted);
        prop_assert_eq!(m.ok_responses, m.completed, "no deadlines, no fallbacks");
        prop_assert_eq!(out.latencies_ns.len() as u64, m.completed);
        prop_assert!(m.batched_requests <= m.batches * max_batch as u64);
        // A response cannot complete sooner than one batch serving one
        // request after its arrival; a batch dispatched before one of its
        // members arrived would break this.
        let floor = batch_overhead_ns + per_request_ns;
        for &lat in &out.latencies_ns {
            prop_assert!(lat >= floor, "latency {} below the service floor {}", lat, floor);
        }

        let again = replay_sharded(&cfg, 1, &schedule, &svc);
        prop_assert_eq!(&again.snapshot.per_shard, &out.snapshot.per_shard);
        prop_assert_eq!(&again.latencies_ns, &out.latencies_ns);
        prop_assert_eq!(again.makespan_ns, out.makespan_ns);
    }
}
