//! Parity suite for the batched decode backend (DESIGN.md §13).
//!
//! The batched backend trades the bitwise tape contract for speed: FMA
//! GEMMs and polynomial fast activations shift values by a few ulps per
//! step. Its contract, pinned here, is three-part:
//!
//! 1. **Tolerance** — every sampled rank tracks the `decode_tape`
//!    reference within [`RANK_TOL`] rank units (RankOnly targets, where
//!    the decode map is continuous in the head outputs),
//! 2. **Determinism** — for a fixed `(model, enc, streams, n_samples)`
//!    layout the output is bit-identical across repeated runs *and* thread
//!    counts,
//! 3. **Fold invariance** — a run's bits do not change when other runs
//!    share its lock-step batch (what legalises serving-layer coalescing).
//!
//! The encoder steps on the same batched LSTM kernel, so its states owe the
//! same two halves: tolerance against `encode_tape` over a full context
//! window, and bit-identical replays.

use ranknet_core::config::Likelihood;
use ranknet_core::engine::{ForecastEngine, ForecastRequest};
use ranknet_core::features::{extract_sequences, RaceContext};
use ranknet_core::instances::TrainingSet;
use ranknet_core::rank_model::{
    oracle_covariates, BatchedRun, CovariateFuture, ForecastSamples, RankModel, TargetKind,
};
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::RankNetConfig;
use rpf_nn::RngStreams;
use rpf_racesim::{simulate_race, Event, EventConfig};
use rpf_tensor::Matrix;

/// Pinned batched-vs-tape bound in denormalised rank units. The per-step
/// kernel divergence is ≤ ~1e-4 in normalised units (see the `rpf-nn`
/// parity bound); `denorm_rank` scales by the field size and the sampled
/// feedback compounds it over the horizon, so 0.05 of a rank position is
/// generous headroom while still far below any decision threshold (ranks
/// are ≥ 1 apart). Tightening kernels may never loosen this.
const RANK_TOL: f32 = 0.05;

/// Pinned `encode`-vs-`encode_tape` bound on every layer's `h` and `c`
/// (normalised units) over up to a full paper-sized context window (60
/// steps). Each step adds a few ulps of FMA and fast-activation error (the
/// fast tanh/sigmoid are within 2e-6 of libm), and the gated recurrence
/// damps old error instead of compounding it, so the drift stays near the
/// single-step error: the worst element measured over the cases below is
/// under 4e-7. The bound keeps ~25x headroom on that; a dropped bias or a
/// swapped gate block moves states by orders of magnitude more.
/// Tightening kernels may never loosen this.
const ENC_TOL: f32 = 1e-5;

fn race_ctx(seed: u64) -> RaceContext {
    extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2017),
        seed,
    ))
}

fn tiny_cfg() -> RankNetConfig {
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    cfg
}

fn trained_model(ctx: &RaceContext, cfg: &RankNetConfig, kind: TargetKind) -> RankModel {
    let ts = TrainingSet::build(vec![ctx.clone()], cfg, 24);
    let mut model = RankModel::new(cfg.clone(), kind, ts.max_car_id);
    let _ = model.train(&ts, &ts);
    model
}

fn bits(samples: &ForecastSamples) -> Vec<u32> {
    samples
        .iter()
        .flat_map(|car| car.iter().flat_map(|path| path.iter().map(|v| v.to_bits())))
        .collect()
}

/// Largest per-element divergence between two forecasts of the same shape.
fn max_diff(a: &ForecastSamples, b: &ForecastSamples) -> f32 {
    assert_eq!(a.len(), b.len());
    let mut worst = 0.0f32;
    for (ca, cb) in a.iter().zip(b) {
        assert_eq!(ca.len(), cb.len());
        for (pa, pb) in ca.iter().zip(cb) {
            assert_eq!(pa.len(), pb.len());
            for (x, y) in pa.iter().zip(pb) {
                assert!(x.is_finite() && y.is_finite());
                worst = worst.max((x - y).abs());
            }
        }
    }
    worst
}

fn parity_case(likelihood: Likelihood, seed: u64) {
    let ctx = race_ctx(seed);
    let mut cfg = tiny_cfg();
    cfg.likelihood = likelihood;
    let model = trained_model(&ctx, &cfg, TargetKind::RankOnly);

    let (origin, horizon, n_samples) = (80, 3, 7);
    let cov = oracle_covariates(&ctx, origin, horizon, cfg.prediction_len);
    let enc = model.encode(&ctx, origin);
    let streams = RngStreams::new(0xFADE ^ seed);

    let tape = model.decode_tape(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1);
    let batched = model.decode_batched(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1);
    assert!(!bits(&tape).is_empty());

    let worst = max_diff(&tape, &batched);
    assert!(
        worst <= RANK_TOL,
        "batched decode diverged from tape by {worst} rank units (bound {RANK_TOL})"
    );
    // And it really is the batched kernel set, not a silent fallback to the
    // reference path: thousands of draws through FMA + fast activations
    // cannot all round identically.
    assert_ne!(
        bits(&tape),
        bits(&batched),
        "batched backend appears to have run the reference kernels"
    );
}

#[test]
fn batched_tracks_tape_within_tolerance_gaussian() {
    parity_case(Likelihood::Gaussian, 61);
}

#[test]
fn batched_tracks_tape_within_tolerance_student_t() {
    parity_case(Likelihood::StudentT(5.0), 62);
}

#[test]
fn batched_is_bit_deterministic_and_thread_invariant() {
    let ctx = race_ctx(63);
    let cfg = tiny_cfg();
    let model = trained_model(&ctx, &cfg, TargetKind::RankOnly);

    let (origin, horizon, n_samples) = (75, 2, 9);
    let cov = oracle_covariates(&ctx, origin, horizon, cfg.prediction_len);
    let enc = model.encode(&ctx, origin);
    let streams = RngStreams::new(0xD00D);

    let first = model.decode_batched(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1);
    let again = model.decode_batched(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1);
    assert_eq!(bits(&first), bits(&again), "fixed layout must replay bits");
    for threads in [2, 8, 13] {
        let par = model.decode_batched(
            &ctx, &cov, origin, horizon, n_samples, &enc, &streams, threads,
        );
        assert_eq!(
            bits(&first),
            bits(&par),
            "batched decode with {threads} threads must match single-threaded bits"
        );
    }
}

#[test]
fn folded_runs_match_solo_batched_decodes() {
    // Two requests with different horizons and sample counts decoded as one
    // lock-step batch: each run's bits must equal its solo batched decode —
    // the row-independence contract the serving fold relies on.
    let ctx_a = race_ctx(64);
    let ctx_b = race_ctx(65);
    let cfg = tiny_cfg();
    let model = trained_model(&ctx_a, &cfg, TargetKind::RankOnly);

    let cov_a = oracle_covariates(&ctx_a, 70, 2, cfg.prediction_len);
    let cov_b = oracle_covariates(&ctx_b, 85, 4, cfg.prediction_len);
    let enc_a = model.encode(&ctx_a, 70);
    let enc_b = model.encode(&ctx_b, 85);
    let streams_a = RngStreams::new(0xAAA);
    let streams_b = RngStreams::new(0xBBB);

    let solo_a = model.decode_batched(&ctx_a, &cov_a, 70, 2, 5, &enc_a, &streams_a, 1);
    let solo_b = model.decode_batched(&ctx_b, &cov_b, 85, 4, 3, &enc_b, &streams_b, 1);

    let runs = [
        BatchedRun {
            ctx: &ctx_a,
            enc: &enc_a,
            cov: &cov_a,
            origin: 70,
            horizon: 2,
            rows_per: 5,
            streams: streams_a,
        },
        BatchedRun {
            ctx: &ctx_b,
            enc: &enc_b,
            cov: &cov_b,
            origin: 85,
            horizon: 4,
            rows_per: 3,
            streams: streams_b,
        },
    ];
    for threads in [1, 3] {
        let folded = model.decode_runs_batched(&runs, threads);
        assert_eq!(folded.len(), 2);
        let regroup = |paths: &[Vec<f32>], ctx: &RaceContext, cars: &[usize], per: usize| {
            let mut s: ForecastSamples = vec![Vec::new(); ctx.sequences.len()];
            for (ri, p) in paths.iter().enumerate() {
                s[cars[ri / per]].push(p.clone());
            }
            s
        };
        let got_a = regroup(&folded[0], &ctx_a, &enc_a.cars, 5);
        let got_b = regroup(&folded[1], &ctx_b, &enc_b.cars, 3);
        assert_eq!(
            bits(&solo_a),
            bits(&got_a),
            "run A's bits changed when folded (threads={threads})"
        );
        assert_eq!(
            bits(&solo_b),
            bits(&got_b),
            "run B's bits changed when folded (threads={threads})"
        );
    }
}

#[test]
fn joint_batched_is_deterministic_and_finite() {
    // Joint mode feeds thresholded status draws back into the input, so a
    // tolerance comparison against tape is not meaningful (a near-0.5 draw
    // may flip). The batched backend still owes determinism + finiteness.
    let ctx = race_ctx(66);
    let cfg = tiny_cfg();
    let model = trained_model(&ctx, &cfg, TargetKind::Joint);

    let (origin, horizon, n_samples) = (75, 3, 6);
    let cov = CovariateFuture::default();
    let enc = model.encode(&ctx, origin);
    let streams = RngStreams::new(0x7017);

    let a = model.decode_batched(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 1);
    let b = model.decode_batched(&ctx, &cov, origin, horizon, n_samples, &enc, &streams, 4);
    assert_eq!(bits(&a), bits(&b));
    assert!(!bits(&a).is_empty());
    for car in &a {
        for path in car {
            assert_eq!(path.len(), horizon);
            for v in path {
                assert!(v.is_finite());
                assert!((0.5..=ctx.field_size as f32 + 0.5).contains(v));
            }
        }
    }
}

#[test]
fn fitted_ranknet_batched_tracks_tape_within_tolerance() {
    // The decode-mismatch regression gate on a model fitted through the
    // full RankNet path (Oracle variant): the serving decode and the tape
    // reference on the same inputs must agree within RANK_TOL, and this
    // fails loudly if a kernel change drives them apart.
    let train = vec![race_ctx(67)];
    let (model, _) = RankNet::fit(train.clone(), train, tiny_cfg(), RankNetVariant::Oracle, 40);
    let test = race_ctx(68);
    let rank_model = &model.rank_model;

    let (origin, horizon, n_samples) = (90, 2, 8);
    let cov = oracle_covariates(&test, origin, horizon, model.cfg.prediction_len);
    let enc = rank_model.encode(&test, origin);
    let streams = RngStreams::new(5);

    let tape = rank_model.decode_tape(&test, &cov, origin, horizon, n_samples, &enc, &streams, 1);
    let batched =
        rank_model.decode_batched(&test, &cov, origin, horizon, n_samples, &enc, &streams, 1);
    assert!(!bits(&tape).is_empty());
    let worst = max_diff(&tape, &batched);
    assert!(
        worst <= RANK_TOL,
        "batched and tape decodes diverged by {worst} (bound {RANK_TOL})"
    );
}

#[test]
fn engine_folded_batch_matches_solo_calls_bitwise() {
    // forecast_batch_entries folds distinct requests into one lock-step
    // decode under the batched backend; each response must be bit-identical
    // to a fresh solo call (what keeps serving coalescing response-neutral).
    let train = vec![race_ctx(69)];
    let (model, _) = RankNet::fit(train.clone(), train, tiny_cfg(), RankNetVariant::Oracle, 40);
    let r0 = race_ctx(70);
    let r1 = race_ctx(71);

    let engine = ForecastEngine::new(&model, 9).with_threads(2);
    let requests = [
        ForecastRequest {
            race: 0,
            origin: 60,
            horizon: 2,
            n_samples: 5,
        },
        ForecastRequest {
            race: 1,
            origin: 75,
            horizon: 3,
            n_samples: 4,
        },
        ForecastRequest {
            race: 0,
            origin: 60,
            horizon: 2,
            n_samples: 5,
        },
        ForecastRequest {
            race: 9,
            origin: 1,
            horizon: 1,
            n_samples: 1,
        },
    ];
    let out = engine.forecast_batch_entries(&[&r0, &r1], &requests);
    assert_eq!(out.len(), 4);
    assert!(
        out[3].is_err(),
        "bad race index must stay a per-entry error"
    );

    let solo = ForecastEngine::new(&model, 9).with_threads(2);
    for (req, got) in requests.iter().take(3).zip(&out) {
        let ctx = if req.race == 0 { &r0 } else { &r1 };
        let want = solo
            .try_forecast_keyed(req.race, ctx, req.origin, req.horizon, req.n_samples)
            .expect("valid")
            .samples;
        let got = got.as_ref().map(|f| bits(&f.samples)).unwrap_or_default();
        assert_eq!(
            got,
            bits(&want),
            "folded batch entry diverged from the solo call"
        );
    }
}

fn state_bits(states: &[(Matrix, Matrix)]) -> Vec<u32> {
    states
        .iter()
        .flat_map(|(h, c)| h.as_slice().iter().chain(c.as_slice()))
        .map(|v| v.to_bits())
        .collect()
}

fn encoder_case(kind: TargetKind, seed: u64) {
    let ctx = race_ctx(seed);
    // The paper's Table IV shape: context_len 60, two 40-unit layers.
    let cfg = RankNetConfig {
        max_epochs: 1,
        ..RankNetConfig::default()
    };
    let model = trained_model(&ctx, &cfg, kind);

    // Origin 40 starts at the first lap (a short window); 150 runs the full
    // `context_len` steps.
    for origin in [40, 150] {
        let enc = model.encode(&ctx, origin);
        let reference = model.encode_tape(&ctx, origin);
        assert!(!enc.cars.is_empty());
        assert_eq!(enc.cars, reference.cars);
        assert_eq!(enc.car_ids, reference.car_ids);
        assert_eq!(enc.states.len(), cfg.num_layers);
        let mut worst = 0.0f32;
        for ((h, c), (h_ref, c_ref)) in enc.states.iter().zip(&reference.states) {
            assert_eq!(h.shape(), h_ref.shape());
            assert_eq!(c.shape(), c_ref.shape());
            for (x, y) in h
                .as_slice()
                .iter()
                .zip(h_ref.as_slice())
                .chain(c.as_slice().iter().zip(c_ref.as_slice()))
            {
                assert!(x.is_finite() && y.is_finite());
                worst = worst.max((x - y).abs());
            }
        }
        assert!(
            worst <= ENC_TOL,
            "{kind:?} encoder drifted {worst} from the tape at origin {origin} (bound {ENC_TOL})"
        );
        // The batched kernel really ran: dozens of steps of FMA + fast
        // activations over every car cannot all round like the tape.
        assert_ne!(
            state_bits(&enc.states),
            state_bits(&reference.states),
            "encode appears to have run the tape kernels"
        );
        let again = model.encode(&ctx, origin);
        assert_eq!(
            state_bits(&enc.states),
            state_bits(&again.states),
            "encoder states must replay bit-identically"
        );
    }
}

#[test]
fn encoder_tracks_tape_over_context_window_rank_only() {
    encoder_case(TargetKind::RankOnly, 72);
}

#[test]
fn encoder_tracks_tape_over_context_window_joint() {
    encoder_case(TargetKind::Joint, 73);
}
