//! The covariate sampler evaluates the PitModel once per car per call
//! (`PitModel::car_dists`) and then only draws from that table. It must
//! reproduce, bit for bit, the sampler it replaced, which ran both PitModel
//! nets again at every draw. This file keeps that per-draw sampler as the
//! reference and compares every `Covariates` field with `to_bits`.

use rand::rngs::StdRng;
use rand::Rng;
use ranknet_core::instances::Covariates;
use ranknet_core::pit_model::{PitModel, PitState};
use ranknet_core::rank_model::CovariateFuture;
use ranknet_core::ranknet::sample_covariate_future_streams;
use ranknet_core::{extract_sequences, CarSequence, RaceContext, RankNetConfig};
use rpf_nn::RngStreams;
use rpf_racesim::{simulate_race, simulate_scenario, Event, EventConfig, ScenarioConfig};

/// Laps the retired car completes in every fixture race.
const RETIRED_AT: usize = 40;
const ORIGINS: [usize; 5] = [12, 41, 85, 120, 150];
const HORIZONS: [usize; 4] = [2, 5, 40, 80];

fn retire(seq: &mut CarSequence, laps: usize) {
    for v in [
        &mut seq.rank,
        &mut seq.lap_time,
        &mut seq.time_behind,
        &mut seq.lap_status,
        &mut seq.track_status,
        &mut seq.caution_laps,
        &mut seq.pit_age,
        &mut seq.leader_pit_count,
        &mut seq.total_pit_count,
        &mut seq.compound,
        &mut seq.tyre_age,
        &mut seq.track_wetness,
        &mut seq.fuel_target,
    ] {
        v.truncate(laps);
    }
    seq.laps.truncate(laps);
}

/// Three Indy500 races (baseline, wet/dry, tyre strategy), each with its
/// first car retired after [`RETIRED_AT`] laps.
fn races() -> Vec<RaceContext> {
    let results = [
        simulate_race(&EventConfig::for_race(Event::Indy500, 2015), 0),
        simulate_scenario(&ScenarioConfig::wet_dry(Event::Indy500, 2016), 1),
        simulate_scenario(&ScenarioConfig::tyre_strategy(Event::Indy500, 2017), 2),
    ];
    results
        .iter()
        .map(|race| {
            let mut ctx = extract_sequences(race);
            retire(&mut ctx.sequences[0], RETIRED_AT);
            ctx
        })
        .collect()
}

/// The 2-input (paper) and 4-input (scenario features) PitModels, trained
/// briefly on the fixture races.
fn models(ctxs: &[RaceContext]) -> Vec<PitModel> {
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 2;
    [false, true]
        .into_iter()
        .map(|scenario| {
            let mut pm = PitModel::with_features(3, ctxs[0].fuel_window, scenario);
            let report = pm.train(ctxs, &cfg);
            assert!(report.best_val_loss.is_finite());
            pm
        })
        .collect()
}

/// Reference: one Box–Muller draw of the next pit offset, running the
/// PitModel on `state` first.
fn next_pit_per_draw(pm: &PitModel, state: &PitState, rng: &mut StdRng) -> usize {
    let (mu, sigma) = pm.predict_state(state);
    let u1: f32 = rng.gen_range(1e-7..1.0f32);
    let u2: f32 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    (mu + sigma * z).round().max(1.0) as usize
}

/// Reference: one car's pit pattern, predicting at every draw.
fn future_pits_per_draw(
    pm: &PitModel,
    state: &PitState,
    horizon: usize,
    rng: &mut StdRng,
) -> Vec<bool> {
    let fresh = PitState {
        caution_laps: 0.0,
        pit_age: 0.0,
        tyre_age: 0.0,
        track_wetness: state.track_wetness,
    };
    let mut pits = vec![false; horizon];
    let mut next = next_pit_per_draw(pm, state, rng);
    for slot in pits.iter_mut() {
        if next == 0 {
            *slot = true;
            next = next_pit_per_draw(pm, &fresh, rng).max(1);
        }
        next = next.saturating_sub(1);
    }
    pits
}

/// Reference: the whole covariate future, per-draw pit sampling included.
fn covariates_per_draw(
    pm: &PitModel,
    prediction_len: usize,
    ctx: &RaceContext,
    origin: usize,
    horizon: usize,
    streams: &RngStreams,
) -> CovariateFuture {
    let future_pits: Vec<Vec<bool>> = ctx
        .sequences
        .iter()
        .enumerate()
        .map(|(c, seq)| {
            if seq.len() < origin {
                return vec![false; horizon];
            }
            let state = PitState {
                caution_laps: seq.caution_laps[origin - 1],
                pit_age: seq.pit_age[origin - 1],
                tyre_age: seq
                    .tyre_age
                    .get(origin - 1)
                    .copied()
                    .unwrap_or(seq.pit_age[origin - 1]),
                track_wetness: seq.track_wetness.get(origin - 1).copied().unwrap_or(0.0),
            };
            future_pits_per_draw(pm, &state, horizon, &mut streams.stream(c as u64))
        })
        .collect();
    let total_pits_at: Vec<f32> = (0..horizon)
        .map(|s| future_pits.iter().filter(|p| p[s]).count() as f32)
        .collect();
    let rows = ctx
        .sequences
        .iter()
        .enumerate()
        .map(|(c, seq)| {
            if seq.len() < origin {
                return Vec::new();
            }
            let my_rank = seq.rank[origin - 1];
            let mut age = seq.pit_age[origin - 1];
            let caution = seq.caution_laps[origin - 1];
            let mut tyre = seq.tyre_age.get(origin - 1).copied().unwrap_or(0.0);
            let compound = seq.compound.get(origin - 1).copied().unwrap_or(0.0);
            let wetness = seq.track_wetness.get(origin - 1).copied().unwrap_or(0.0);
            let fuel = seq.fuel_target.get(origin - 1).copied().unwrap_or(0.0);
            (0..horizon)
                .map(|s| {
                    let pit = future_pits[c][s];
                    let leader_pits = ctx
                        .sequences
                        .iter()
                        .enumerate()
                        .filter(|(o, oseq)| {
                            *o != c
                                && oseq.len() >= origin
                                && oseq.rank[origin - 1] < my_rank
                                && future_pits[*o][s]
                        })
                        .count() as f32;
                    let shift = s + prediction_len;
                    let cov = Covariates {
                        track_status: 0.0,
                        lap_status: if pit { 1.0 } else { 0.0 },
                        caution_laps: if age == 0.0 { 0.0 } else { caution },
                        pit_age: age,
                        leader_pit_count: leader_pits,
                        total_pit_count: total_pits_at[s],
                        shift_track_status: 0.0,
                        shift_lap_status: future_pits[c]
                            .get(shift)
                            .map(|&p| if p { 1.0 } else { 0.0 })
                            .unwrap_or(0.0),
                        shift_total_pit_count: total_pits_at.get(shift).copied().unwrap_or(0.0),
                        compound,
                        tyre_age: tyre,
                        track_wetness: wetness,
                        fuel_target: fuel,
                    };
                    if pit {
                        age = 0.0;
                        tyre = 0.0;
                    } else {
                        age += 1.0;
                        tyre += 1.0;
                    }
                    cov
                })
                .collect()
        })
        .collect();
    CovariateFuture { rows }
}

fn field_bits(c: &Covariates) -> [u32; 13] {
    [
        c.track_status,
        c.lap_status,
        c.caution_laps,
        c.pit_age,
        c.leader_pit_count,
        c.total_pit_count,
        c.shift_track_status,
        c.shift_lap_status,
        c.shift_total_pit_count,
        c.compound,
        c.tyre_age,
        c.track_wetness,
        c.fuel_target,
    ]
    .map(f32::to_bits)
}

/// Four stream families: a plain root, a child, the serving engine's
/// covariate-group derivation, and the far end of the seed range.
fn stream_families() -> [RngStreams; 4] {
    [
        RngStreams::new(1),
        RngStreams::new(7).child(2),
        RngStreams::new(2026).child(0x636f_7661).child(3),
        RngStreams::new(u64::MAX),
    ]
}

#[test]
fn hoisted_sampler_matches_the_per_draw_reference_bitwise() {
    let ctxs = races();
    let prediction_len = RankNetConfig::tiny().prediction_len;
    let mut compared = 0usize;
    let mut retired_seen = 0usize;
    let mut multi_stop_futures = 0usize;
    for pm in models(&ctxs) {
        for ctx in &ctxs {
            for origin in ORIGINS {
                let dists = pm.car_dists(ctx, origin);
                assert_eq!(dists.len(), ctx.sequences.len());
                for (dist, seq) in dists.iter().zip(&ctx.sequences) {
                    assert_eq!(dist.is_none(), seq.len() < origin);
                }
                retired_seen += dists.iter().filter(|d| d.is_none()).count();
                for horizon in HORIZONS {
                    for streams in stream_families() {
                        let got = sample_covariate_future_streams(
                            &dists,
                            prediction_len,
                            ctx,
                            origin,
                            horizon,
                            &streams,
                        );
                        let want = covariates_per_draw(
                            &pm,
                            prediction_len,
                            ctx,
                            origin,
                            horizon,
                            &streams,
                        );
                        assert_eq!(got.rows.len(), want.rows.len());
                        for (car, (g, w)) in got.rows.iter().zip(&want.rows).enumerate() {
                            assert_eq!(g.len(), w.len(), "car {car} origin {origin} h {horizon}");
                            for (step, (gc, wc)) in g.iter().zip(w).enumerate() {
                                assert_eq!(
                                    field_bits(gc),
                                    field_bits(wc),
                                    "car {car} origin {origin} horizon {horizon} step {step}: \
                                     {gc:?} vs {wc:?}"
                                );
                                compared += 1;
                            }
                            let stops = g.iter().filter(|c| c.lap_status == 1.0).count();
                            if stops >= 2 {
                                multi_stop_futures += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        compared > 100_000,
        "compared only {compared} covariate rows"
    );
    assert!(retired_seen > 0, "no car was retired at any origin");
    assert!(
        multi_stop_futures > 0,
        "no sampled future stopped twice, so no post-pit draw decided a stop"
    );
}

#[test]
fn predict_states_rows_match_predict_state_bitwise() {
    let ctxs = races();
    let mut states = Vec::new();
    for i in 0..70 {
        let f = i as f32;
        // Runs of fresh (all-zero-age) states sit inside the 8-row blocks
        // of dense ones, and 70 rows leave a 6-row tail.
        states.push(if i % 3 == 0 || i % 8 == 5 {
            PitState {
                track_wetness: if i % 2 == 0 { 0.0 } else { 0.4 },
                ..PitState::default()
            }
        } else {
            PitState {
                caution_laps: f % 7.0,
                pit_age: 1.0 + f,
                tyre_age: 2.0 + 0.5 * f,
                track_wetness: (f * 0.13) % 1.0,
            }
        });
    }
    let mut pms = vec![
        PitModel::new(21, 50.0),
        PitModel::with_features(22, 50.0, true),
    ];
    pms.extend(models(&ctxs));
    for pm in &pms {
        let batched = pm.predict_states(&states);
        assert_eq!(batched.len(), states.len());
        for (i, (state, (mu, sigma))) in states.iter().zip(batched).enumerate() {
            let (mu1, sigma1) = pm.predict_state(state);
            assert_eq!(mu.to_bits(), mu1.to_bits(), "mu, row {i}");
            assert_eq!(sigma.to_bits(), sigma1.to_bits(), "sigma, row {i}");
        }
    }
    assert!(PitModel::new(1, 50.0).predict_states(&[]).is_empty());
}
