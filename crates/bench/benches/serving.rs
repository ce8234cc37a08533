//! Serving-layer throughput: the micro-batching scheduler versus
//! one-request-per-call dispatch, swept over offered load (closed-loop
//! client counts). The workload is the live-race hot spot — many clients
//! asking a small pool of distinct questions — which is exactly where
//! coalescing pays: identical requests in a batch share one model run and
//! the clones are bit-identical by the determinism contract, so the win is
//! free of accuracy cost.
//!
//! Besides the criterion timings, each load level prints a one-line
//! summary with req/s, p50 and p99 request latency for both dispatch
//! modes (criterion's stub reports only mean wall-clock per iteration).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::{extract_sequences, RaceContext};
use ranknet_core::lifecycle::VersionedModel;
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::RankNetConfig;
use rpf_nn::RngStreams;
use rpf_serve::loadgen::{LoadMix, MultiRaceMix};
use rpf_serve::{serve, serve_sharded, ServeConfig, ShardTopology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENGINE_SEED: u64 = 5;
const PER_CLIENT: usize = 8;
/// Closed-loop client counts: the three offered-load levels.
const LOADS: [usize; 3] = [2, 8, 32];

fn fixture() -> (RankNet, Vec<RaceContext>) {
    let race = |seed| extract_sequences(&simulate(seed));
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    let train = vec![race(301)];
    let (model, _) = RankNet::fit(train.clone(), train, cfg, RankNetVariant::Oracle, 40);
    (model, vec![race(302), race(303), race(304), race(305)])
}

fn simulate(seed: u64) -> rpf_racesim::RaceResult {
    rpf_racesim::simulate_race(
        &rpf_racesim::EventConfig::for_race(rpf_racesim::Event::Indy500, 2017),
        seed,
    )
}

/// The hot-spot mix: a pool of 4 distinct queries with a decode-heavy
/// sample count, so duplicated work dominates and coalescing matters.
fn hot_mix() -> LoadMix {
    LoadMix {
        sample_counts: vec![8],
        unique_queries: Some(4),
        ..LoadMix::standard(2, (60, 100))
    }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        workers: 4,
        max_batch: 16,
        max_delay: Duration::from_micros(500),
        queue_capacity: 4096,
    }
}

/// Closed-loop pass through the serving layer; returns per-request
/// latencies (submission to response).
fn run_batched(engine: &ForecastEngine, refs: &[&RaceContext], clients: usize) -> Vec<Duration> {
    let mix = hot_mix();
    let streams = RngStreams::new(0xBE7C);
    let (lat, _) = serve(engine, refs, &serve_cfg(), |client| {
        let mut all = Vec::with_capacity(clients * PER_CLIENT);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    // Every client draws from the SAME stream base: the
                    // 4-query hot pool is shared across clients, so
                    // concurrent callers really do ask the same questions.
                    let streams = &streams;
                    let mix = &mix;
                    s.spawn(move || {
                        let mut lats = Vec::with_capacity(PER_CLIENT);
                        for i in 0..PER_CLIENT {
                            let req = mix.request_at(streams, (c * PER_CLIENT + i) as u64);
                            let t0 = Instant::now();
                            let out = client.forecast(req).expect("queue sized for the load");
                            criterion::black_box(&out);
                            lats.push(t0.elapsed());
                        }
                        lats
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(lats) => all.extend(lats),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        all
    });
    lat
}

/// The batched closed-loop load with a hot-swap thread flipping the live
/// model slot the whole time (~every 200 µs, alternating two bit-identical
/// weight sets so outputs stay comparable): the p99 under continuous swap
/// is the price of the lock-free slot read in the serving hot path.
fn run_swapped(
    engine: &ForecastEngine,
    refs: &[&RaceContext],
    clients: usize,
    weights: &[Arc<RankNet>; 2],
) -> Vec<Duration> {
    let mix = hot_mix();
    let streams = RngStreams::new(0xBE7C);
    let stop = AtomicBool::new(false);
    let (lat, _) = serve(engine, refs, &serve_cfg(), |client| {
        let mut all = Vec::with_capacity(clients * PER_CLIENT);
        std::thread::scope(|s| {
            let swapper = s.spawn(|| {
                let mut version = 1u64;
                while !stop.load(Ordering::Acquire) {
                    let next = Arc::clone(&weights[(version % 2) as usize]);
                    engine.swap_model(VersionedModel::new(version, next));
                    version += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                version - 1
            });
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let streams = &streams;
                    let mix = &mix;
                    s.spawn(move || {
                        let mut lats = Vec::with_capacity(PER_CLIENT);
                        for i in 0..PER_CLIENT {
                            let req = mix.request_at(streams, (c * PER_CLIENT + i) as u64);
                            let t0 = Instant::now();
                            let out = client.forecast(req).expect("queue sized for the load");
                            criterion::black_box(&out);
                            lats.push(t0.elapsed());
                        }
                        lats
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(lats) => all.extend(lats),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
            stop.store(true, Ordering::Release);
            let swaps = swapper.join().expect("swapper never panics");
            criterion::black_box(swaps);
        });
        all
    });
    lat
}

/// The scale-out mix: the same decode-heavy hot pool, spread over four
/// races with a Zipf-skewed popularity so the shard router has real
/// multi-race traffic to spread.
fn shard_mix() -> MultiRaceMix {
    MultiRaceMix {
        mix: LoadMix {
            sample_counts: vec![8],
            unique_queries: Some(4),
            ..LoadMix::standard(4, (60, 100))
        },
        zipf_exponent: 1.0,
        scenario_of: Vec::new(),
    }
}

/// Closed-loop pass through the sharded front router: requests hash to
/// per-race serving shards, each with its own engine (shard 0 the
/// caller's, the rest forks) and workers.
fn run_sharded(
    engine: &ForecastEngine,
    refs: &[&RaceContext],
    clients: usize,
    shards: usize,
) -> Vec<Duration> {
    let mix = shard_mix();
    let streams = RngStreams::new(0xBE7C);
    let (lat, _) = serve_sharded(
        engine,
        refs,
        &serve_cfg(),
        ShardTopology::new(shards),
        |client| {
            let mut all = Vec::with_capacity(clients * PER_CLIENT);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let streams = &streams;
                        let mix = &mix;
                        s.spawn(move || {
                            let mut lats = Vec::with_capacity(PER_CLIENT);
                            for i in 0..PER_CLIENT {
                                let req = mix.request_at(streams, (c * PER_CLIENT + i) as u64);
                                let t0 = Instant::now();
                                let out = client.forecast(req).expect("queue sized for the load");
                                criterion::black_box(&out);
                                lats.push(t0.elapsed());
                            }
                            lats
                        })
                    })
                    .collect();
                for h in handles {
                    match h.join() {
                        Ok(lats) => all.extend(lats),
                        Err(p) => std::panic::resume_unwind(p),
                    }
                }
            });
            all
        },
    );
    lat
}

/// The batched closed-loop load taken over real loopback sockets: the
/// gateway's HTTP front-end nests inside the serving region and every
/// client keeps one keep-alive connection, so the delta against the
/// `batched` mode is the whole network edge — parse, JSON codec, TCP
/// round-trip — at the same offered load.
fn run_gateway(engine: &ForecastEngine, refs: &[&RaceContext], clients: usize) -> Vec<Duration> {
    use rpf_gateway::routes::render_forecast_body;
    let mix = hot_mix();
    let streams = RngStreams::new(0xBE7C);
    let bus = rpf_gateway::LapBus::new();
    // One worker per client: every keep-alive connection pins a worker for
    // its lifetime, and the bench measures codec+transport cost, not
    // worker-pool queueing.
    let gw_cfg = rpf_gateway::GatewayConfig {
        conn_workers: clients,
        pending_conns: clients + 8,
        ..rpf_gateway::GatewayConfig::default()
    };
    let ((lat, _), _) = serve(engine, refs, &serve_cfg(), |client| {
        rpf_gateway::serve_http(client, refs.len(), &bus, &gw_cfg, None, |gw| {
            let addr = gw.addr();
            let mut all = Vec::with_capacity(clients * PER_CLIENT);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let streams = &streams;
                        let mix = &mix;
                        s.spawn(move || {
                            let mut http =
                                rpf_gateway::HttpClient::connect(addr, Duration::from_secs(10))
                                    .expect("gateway on loopback");
                            let mut lats = Vec::with_capacity(PER_CLIENT);
                            for i in 0..PER_CLIENT {
                                let req = mix.request_at(streams, (c * PER_CLIENT + i) as u64);
                                let body = render_forecast_body(&req);
                                let t0 = Instant::now();
                                let resp = http
                                    .post_json("/forecast", &body)
                                    .expect("queue sized for the load");
                                assert_eq!(resp.status, 200, "{}", resp.body_str());
                                criterion::black_box(resp.body.len());
                                lats.push(t0.elapsed());
                            }
                            lats
                        })
                    })
                    .collect();
                for h in handles {
                    match h.join() {
                        Ok(lats) => all.extend(lats),
                        Err(p) => std::panic::resume_unwind(p),
                    }
                }
            });
            all
        })
        .expect("gateway binds loopback")
    });
    lat
}

/// The same closed-loop load, but every client calls the engine directly —
/// one request, one model run, no batching and no coalescing.
fn run_direct(engine: &ForecastEngine, contexts: &[RaceContext], clients: usize) -> Vec<Duration> {
    let mix = hot_mix();
    let streams = RngStreams::new(0xBE7C);
    let mut all = Vec::with_capacity(clients * PER_CLIENT);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                // Same shared hot pool as the batched runner, for fairness.
                let streams = &streams;
                let mix = &mix;
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(PER_CLIENT);
                    for i in 0..PER_CLIENT {
                        let req = mix.request_at(streams, (c * PER_CLIENT + i) as u64);
                        let t0 = Instant::now();
                        let out = engine.try_forecast_keyed(
                            req.race,
                            &contexts[req.race],
                            req.origin,
                            req.horizon,
                            req.n_samples,
                        );
                        criterion::black_box(&out);
                        lats.push(t0.elapsed());
                    }
                    lats
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(lats) => all.extend(lats),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    all
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn report(mode: &str, clients: usize, wall: Duration, mut lats: Vec<Duration>) {
    lats.sort();
    let n = lats.len();
    let rps = n as f64 / wall.as_secs_f64().max(1e-9);
    eprintln!(
        "serving {mode:>7} load={clients:>2} clients: {rps:>9.1} req/s  \
         p50={:?}  p99={:?}",
        percentile(&lats, 0.50),
        percentile(&lats, 0.99),
    );
}

fn bench_serving(c: &mut Criterion) {
    let (model, contexts) = fixture();
    let refs: Vec<&RaceContext> = contexts.iter().collect();

    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10);
    for clients in LOADS {
        group.throughput(Throughput::Elements((clients * PER_CLIENT) as u64));
        group.bench_with_input(
            BenchmarkId::new("batched", clients),
            &clients,
            |b, &clients| {
                let engine = ForecastEngine::new(&model, ENGINE_SEED).with_threads(1);
                b.iter(|| criterion::black_box(run_batched(&engine, &refs, clients)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("direct", clients),
            &clients,
            |b, &clients| {
                let engine = ForecastEngine::new(&model, ENGINE_SEED).with_threads(1);
                b.iter(|| criterion::black_box(run_direct(&engine, &contexts, clients)));
            },
        );
    }
    group.finish();

    // Percentile summary at every load level, one measured pass each. At
    // the highest load the batched mode must come out ahead: 32 clients
    // over a 4-deep query pool hand the scheduler ~8-way coalescing. The
    // swap mode repeats the batched run under a continuous hot-swap thread
    // — its p99 against batched is the model-lifecycle serving overhead.
    let weights = [Arc::new(model.clone()), Arc::new(model.clone())];
    for clients in LOADS {
        let engine = ForecastEngine::new(&model, ENGINE_SEED).with_threads(1);
        let t0 = Instant::now();
        let lats = run_batched(&engine, &refs, clients);
        report("batched", clients, t0.elapsed(), lats);

        let engine = ForecastEngine::new(&model, ENGINE_SEED).with_threads(1);
        let t0 = Instant::now();
        let lats = run_direct(&engine, &contexts, clients);
        report("direct", clients, t0.elapsed(), lats);

        let engine = ForecastEngine::new(&model, ENGINE_SEED).with_threads(1);
        let t0 = Instant::now();
        let lats = run_swapped(&engine, &refs, clients, &weights);
        report("swap", clients, t0.elapsed(), lats);

        // The network edge at the same load: closed-loop keep-alive HTTP
        // clients through the gateway. gateway vs batched is the wire tax.
        let engine = ForecastEngine::new(&model, ENGINE_SEED).with_threads(1);
        let t0 = Instant::now();
        let lats = run_gateway(&engine, &refs, clients);
        report("gateway", clients, t0.elapsed(), lats);
    }

    // Scale-out summary at the heaviest load: the same multi-race mix
    // through 1, 2 and 4 serving shards. `bench_snapshot.sh shards` pins
    // these three lines; the machine-independent scaling gate itself lives
    // on the virtual clock in `rpf-serve`'s shard_scaling_gate test.
    for shards in [1usize, 2, 4] {
        let engine = ForecastEngine::new(&model, ENGINE_SEED).with_threads(1);
        let t0 = Instant::now();
        let lats = run_sharded(&engine, &refs, 32, shards);
        report(&format!("shard{shards}"), 32, t0.elapsed(), lats);
    }
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
