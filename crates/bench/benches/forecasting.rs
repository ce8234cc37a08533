//! Forecast throughput: Algorithm 2's ancestral sampling through the
//! [`ForecastEngine`], measured as trajectories/sec versus decoder thread
//! count at the paper's operating point (100 samples × full field, two-lap
//! horizon), plus the long-horizon stint shape.
//!
//! The thread sweep is the engine's scaling story: the samples are
//! bit-identical at every thread count (see
//! `crates/core/tests/engine_determinism.rs`), so the sweep measures pure
//! scheduling gain. On an N-core machine the 4-thread row should clear
//! 2× the 1-thread row; on a single-core machine the rows collapse to
//! spawn overhead, which is itself worth seeing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::extract_sequences;
use ranknet_core::instances::TrainingSet;
use ranknet_core::rank_model::{oracle_covariates, RankModel, TargetKind};
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::RankNetConfig;
use rpf_nn::RngStreams;
use rpf_racesim::{simulate_race, Event, EventConfig};

fn trained_ranknet(cfg: &RankNetConfig) -> (RankNet, ranknet_core::features::RaceContext) {
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2019),
        1,
    ));
    let (model, _) = RankNet::fit(
        vec![ctx.clone()],
        vec![ctx.clone()],
        cfg.clone(),
        RankNetVariant::Oracle,
        16,
    );
    (model, ctx)
}

fn bench_engine_thread_scaling(c: &mut Criterion) {
    let cfg = RankNetConfig {
        max_epochs: 1,
        ..Default::default()
    };
    let (model, ctx) = trained_ranknet(&cfg);

    let origin = 100;
    let horizon = 2;
    let n_samples = 100;
    let active = ctx.sequences.iter().filter(|s| s.len() >= origin).count();

    let mut group = c.benchmark_group("engine_thread_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements((active * n_samples) as u64));
    for &threads in &[1usize, 2, 4, 8] {
        let engine = ForecastEngine::new(&model, 7).with_threads(threads);
        // Warm the encoder cache so the sweep isolates the decoder.
        let _ = engine.forecast(&ctx, origin, horizon, n_samples);
        group.bench_with_input(
            BenchmarkId::new("two_lap_full_field_100_samples", threads),
            &threads,
            |bench, _| {
                bench.iter(|| {
                    std::hint::black_box(engine.forecast(&ctx, origin, horizon, n_samples))
                });
            },
        );
    }
    group.finish();
}

fn bench_raw_model_paths(c: &mut Criterion) {
    let cfg = RankNetConfig {
        max_epochs: 1,
        ..Default::default()
    };
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2019),
        1,
    ));
    let ts = TrainingSet::build(vec![ctx.clone()], &cfg, 16);
    let mut model = RankModel::new(cfg.clone(), TargetKind::RankOnly, ts.max_car_id);
    let _ = model.train(&ts, &ts); // weights just need to be initialised/finite

    let mut group = c.benchmark_group("forecast");
    group.sample_size(10);
    for &n_samples in &[10usize, 100] {
        let cov = oracle_covariates(&ctx, 100, 2, cfg.prediction_len);
        group.throughput(Throughput::Elements(n_samples as u64));
        group.bench_with_input(
            BenchmarkId::new("two_lap_full_field", n_samples),
            &n_samples,
            |bench, &n| {
                let mut rng = StdRng::seed_from_u64(2);
                bench
                    .iter(|| std::hint::black_box(model.forecast(&ctx, &cov, 100, 2, n, &mut rng)));
            },
        );
    }
    // The long-horizon stint forecast (TaskB shape).
    let cov = oracle_covariates(&ctx, 100, 30, cfg.prediction_len);
    group.bench_function("thirty_lap_stint_20_samples", |bench| {
        let mut rng = StdRng::seed_from_u64(3);
        bench.iter(|| std::hint::black_box(model.forecast(&ctx, &cov, 100, 30, 20, &mut rng)));
    });
    group.finish();
}

/// Tape reference vs the serving (batched) decode at the paper's operating
/// point. `batched` is tolerance-equal to `tape` (pinned in
/// `crates/core/tests/decode_parity.rs`) and trades the bitwise contract
/// for FMA-contracted lock-step GEMMs, polynomial fast activations, the
/// fused dual-affine head and template-based input assembly. The release
/// gate in `crates/bench/tests/decode_perf_gate.rs` requires batched
/// > 5.5× tape at 100 samples.
fn bench_decode(c: &mut Criterion) {
    let cfg = RankNetConfig {
        max_epochs: 1,
        ..Default::default()
    };
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2019),
        1,
    ));
    let ts = TrainingSet::build(vec![ctx.clone()], &cfg, 16);
    let mut model = RankModel::new(cfg.clone(), TargetKind::RankOnly, ts.max_car_id);
    let _ = model.train(&ts, &ts);

    let origin = 100;
    let horizon = 2;
    let n_samples = 100;
    let cov = oracle_covariates(&ctx, origin, horizon, cfg.prediction_len);
    let enc = model.encode(&ctx, origin);
    let streams = RngStreams::new(0x5EED);
    let active = ctx.sequences.iter().filter(|s| s.len() >= origin).count();

    let mut group = c.benchmark_group("decode_backend");
    group.sample_size(10);
    group.throughput(Throughput::Elements((active * n_samples) as u64));
    for &threads in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new("tape", threads), &threads, |bench, &t| {
            bench.iter(|| {
                std::hint::black_box(
                    model.decode_tape(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, t),
                )
            });
        });
        group.bench_with_input(
            BenchmarkId::new("batched", threads),
            &threads,
            |bench, &t| {
                bench.iter(|| {
                    std::hint::black_box(
                        model.decode_batched(
                            &ctx, &cov, origin, horizon, n_samples, &enc, &streams, t,
                        ),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_thread_scaling,
    bench_raw_model_paths,
    bench_decode
);
criterion_main!(benches);
