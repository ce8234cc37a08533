//! RankNet: the cause–effect decomposition (paper Fig 5a, Algorithm 2).
//!
//! History → **PitModel** (future race status) → **RankModel** (future rank
//! distribution) → sampled trajectories → rank positions by sorting.
//!
//! Three variants (Table III):
//!
//! * `Oracle` — ground-truth future race status as covariates: the upper
//!   bound on what decomposition can deliver,
//! * `Mlp` — the contributed model: a separate probabilistic MLP predicts
//!   pit timing; future `TrackStatus` is set to zero (§III-C),
//! * `Joint` — the ablation that trains the multivariate target jointly and
//!   fails from data sparsity.

use crate::config::RankNetConfig;
use crate::features::RaceContext;
use crate::instances::{Covariates, TrainingSet};
use crate::pit_model::{CarPitDist, PitModel};
use crate::rank_model::{
    oracle_covariates, BatchedRun, CovariateFuture, EncoderState, ForecastSamples, RankModel,
    TargetKind,
};
use rand::rngs::StdRng;
use rand::Rng;
use rpf_nn::train::TrainReport;
use rpf_nn::RngStreams;

/// Tag separating the covariate-sampling stream family from the
/// rank-sampling family derived from the same forecast seed.
const COV_STREAM_TAG: u64 = 0x636f_7661;
/// Tag for the rank-decoder stream families (one child per group).
const RANK_STREAM_TAG: u64 = 0x7261_6e6b;

/// Which pit-stop treatment a RankNet instance uses (Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankNetVariant {
    /// Ground-truth future race status.
    Oracle,
    /// PitModel-predicted future race status (the paper's contribution).
    Mlp,
    /// Joint training of rank + race status (no decomposition).
    Joint,
}

impl RankNetVariant {
    pub fn name(self) -> &'static str {
        match self {
            RankNetVariant::Oracle => "RankNet-Oracle",
            RankNetVariant::Mlp => "RankNet-MLP",
            RankNetVariant::Joint => "RankNet-Joint",
        }
    }
}

/// The composed forecaster.
///
/// `Clone` deep-copies both sub-models (the lifecycle layer clones a live
/// version to fine-tune a candidate off to the side); neither keeps a
/// serving cache, so a clone shares nothing with its source.
#[derive(Clone)]
pub struct RankNet {
    pub variant: RankNetVariant,
    pub cfg: RankNetConfig,
    pub rank_model: RankModel,
    pub pit_model: Option<PitModel>,
}

/// Training reports of the sub-models.
pub struct RankNetReport {
    pub rank_model: TrainReport,
    pub pit_model: Option<TrainReport>,
}

impl RankNet {
    /// Train a RankNet variant on featurized races.
    ///
    /// `stride` subsamples training windows (1 = paper setting).
    pub fn fit(
        train_ctx: Vec<RaceContext>,
        val_ctx: Vec<RaceContext>,
        cfg: RankNetConfig,
        variant: RankNetVariant,
        stride: usize,
    ) -> (RankNet, RankNetReport) {
        let kind = match variant {
            RankNetVariant::Joint => TargetKind::Joint,
            _ => TargetKind::RankOnly,
        };
        let fuel_window = train_ctx.first().map(|c| c.fuel_window).unwrap_or(50.0);

        let pit_model = if variant == RankNetVariant::Mlp {
            // The pit model's feature schema follows the rank model's:
            // under `use_scenario_features` it also sees tyre age and
            // track wetness (persisted artifacts record the flag in cfg,
            // so rebuild-on-load picks the same shapes).
            let mut pm = PitModel::with_features(cfg.seed, fuel_window, cfg.use_scenario_features);
            let report = pm.train(&train_ctx, &cfg);
            Some((pm, report))
        } else {
            None
        };

        let ts = TrainingSet::build(train_ctx, &cfg, stride);
        let val = TrainingSet::build(val_ctx, &cfg, (stride * 2).max(4));
        let max_car_id = ts.max_car_id.max(val.max_car_id);
        let mut rank_model = RankModel::new(cfg.clone(), kind, max_car_id);
        let rank_report = rank_model.train(&ts, &val);

        let (pit_model, pit_report) = match pit_model {
            Some((pm, rep)) => (Some(pm), Some(rep)),
            None => (None, None),
        };
        (
            RankNet {
                variant,
                cfg,
                rank_model,
                pit_model,
            },
            RankNetReport {
                rank_model: rank_report,
                pit_model: pit_report,
            },
        )
    }

    /// Forecast per Algorithm 2: sample future race status (variant
    /// dependent), then roll the RankModel decoder; returns
    /// `samples[car][sample][step]` in raw rank units.
    ///
    /// Wrapper over [`RankNet::forecast_seeded`] that derives the forecast
    /// seed from `rng` and uses the machine's thread count.
    pub fn forecast(
        &self,
        ctx: &RaceContext,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        rng: &mut StdRng,
    ) -> ForecastSamples {
        self.forecast_seeded(
            ctx,
            origin,
            horizon,
            n_samples,
            rng.gen(),
            rpf_tensor::par::num_threads(),
        )
    }

    /// Fully deterministic forecast: every random draw derives from `seed`
    /// through counter-based streams (see [`RngStreams`]), so the result is
    /// a pure function of `(model, ctx, origin, horizon, n_samples, seed)` —
    /// `threads` only changes how the work is scheduled, never the samples.
    pub fn forecast_seeded(
        &self,
        ctx: &RaceContext,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        seed: u64,
        threads: usize,
    ) -> ForecastSamples {
        let enc = self.rank_model.encode(ctx, origin);
        let groups = self.covariate_groups(ctx, origin, horizon, n_samples, seed);
        let job = DecodeJob {
            ctx,
            enc: &enc,
            groups: &groups,
            origin,
            horizon,
            n_samples,
            seed,
        };
        self.decode_jobs_batched(&[job], threads)
            .pop()
            .unwrap_or_default()
    }

    /// The variant-dependent covariate step of Algorithm 2: a list of
    /// `(covariate future, samples to draw under it)` pairs. Oracle and
    /// Joint produce a single group; MLP produces several, each a joint
    /// PitModel sample of the whole field's future pit pattern, so that
    /// pit-timing uncertainty propagates into the rank forecast. The
    /// PitModel runs once per call ([`PitModel::car_dists`]); each group
    /// then draws from its own stream family, sequentially on this thread.
    pub(crate) fn covariate_groups(
        &self,
        ctx: &RaceContext,
        origin: usize,
        horizon: usize,
        n_samples: usize,
        seed: u64,
    ) -> Vec<(CovariateFuture, usize)> {
        match self.variant {
            RankNetVariant::Oracle => {
                vec![(
                    oracle_covariates(ctx, origin, horizon, self.cfg.prediction_len),
                    n_samples,
                )]
            }
            RankNetVariant::Joint => {
                vec![(
                    CovariateFuture {
                        rows: vec![Vec::new(); ctx.sequences.len()],
                    },
                    n_samples,
                )]
            }
            RankNetVariant::Mlp => {
                // An MLP RankNet always carries a PitModel; if a hand-built
                // one doesn't, degrade to empty covariates (Joint treatment)
                // rather than killing the serving process.
                let Some(pm) = self.pit_model.as_ref() else {
                    return vec![(
                        CovariateFuture {
                            rows: vec![Vec::new(); ctx.sequences.len()],
                        },
                        n_samples,
                    )];
                };
                let groups = n_samples.clamp(1, 8);
                let per_group = n_samples.div_ceil(groups);
                let cov_streams = RngStreams::new(seed).child(COV_STREAM_TAG);
                let dists = pm.car_dists(ctx, origin);
                // Each group owns the stream family `cov_streams.child(g)`.
                (0..groups)
                    .map(|g| {
                        let cov = sample_covariate_future_streams(
                            &dists,
                            self.cfg.prediction_len,
                            ctx,
                            origin,
                            horizon,
                            &cov_streams.child(g as u64),
                        );
                        (cov, per_group)
                    })
                    .collect()
            }
        }
    }

    /// Decode every covariate group of every job — typically the distinct
    /// requests of one serving micro-batch, each already encoded and
    /// covariate-sampled — in one lock-step batched decode, and merge each
    /// job's trajectories, truncating the MLP variant's rounded-up group
    /// product back to `n_samples`. Every `(job, covariate group)` pair
    /// becomes a [`BatchedRun`] with its own stream family, so a job's
    /// samples are bit-identical to decoding it alone: batched rows never
    /// influence each other.
    pub(crate) fn decode_jobs_batched(
        &self,
        jobs: &[DecodeJob<'_>],
        threads: usize,
    ) -> Vec<ForecastSamples> {
        let mut runs: Vec<BatchedRun<'_>> = Vec::new();
        for job in jobs {
            let rank_streams = RngStreams::new(job.seed).child(RANK_STREAM_TAG);
            for (g, (cov, per_group)) in job.groups.iter().enumerate() {
                runs.push(BatchedRun {
                    ctx: job.ctx,
                    enc: job.enc,
                    cov,
                    origin: job.origin,
                    horizon: job.horizon,
                    rows_per: *per_group,
                    streams: rank_streams.child(g as u64),
                });
            }
        }
        let mut per_run = self
            .rank_model
            .decode_runs_batched(&runs, threads)
            .into_iter();
        jobs.iter()
            .map(|job| {
                let mut all: ForecastSamples = vec![Vec::new(); job.ctx.sequences.len()];
                for (cov_g, paths) in job.groups.iter().zip(&mut per_run) {
                    let per_group = cov_g.1;
                    for (ri, path) in paths.into_iter().enumerate() {
                        all[job.enc.cars[ri / per_group]].push(path);
                    }
                }
                for slot in all.iter_mut() {
                    slot.truncate(job.n_samples);
                }
                all
            })
            .collect()
    }
}

/// One request's worth of decode work, ready to fold into a batched decode:
/// the encoder state and covariate groups are already computed; `seed` is
/// the per-call seed the rank and covariate streams derive from.
pub(crate) struct DecodeJob<'a> {
    pub ctx: &'a RaceContext,
    pub enc: &'a EncoderState,
    pub groups: &'a [(CovariateFuture, usize)],
    pub origin: usize,
    pub horizon: usize,
    pub n_samples: usize,
    pub seed: u64,
}

impl DecodeJob<'_> {
    /// Trajectory rows this job adds to a batched decode: every car times
    /// every covariate group's replicas.
    pub(crate) fn rows(&self) -> usize {
        self.enc.cars.len() * self.groups.iter().map(|(_, per)| per).sum::<usize>()
    }
}

/// Sample one joint future of the race status for every car (PitModel step
/// of Algorithm 2): pit laps from the PitModel, future TrackStatus fixed to
/// zero (§III-C), context features derived from the sampled pits. Shared by
/// the LSTM and Transformer RankNet variants.
///
/// `dists` is [`PitModel::car_dists`] at this origin, so no MLP runs here.
/// Car slot `c` draws its pit pattern from `streams.stream(c)`; the derived
/// context features (field pit counts, leader pit counts) are pure functions
/// of the sampled patterns.
pub fn sample_covariate_future_streams(
    dists: &[Option<CarPitDist>],
    prediction_len: usize,
    ctx: &RaceContext,
    origin: usize,
    horizon: usize,
    streams: &RngStreams,
) -> CovariateFuture {
    // Sample per-car future pit laps, one stream per car.
    let future_pits: Vec<Vec<bool>> = dists
        .iter()
        .enumerate()
        .map(|(c, dist)| match dist {
            Some(dist) => {
                PitModel::sample_future_pits(dist, horizon, &mut streams.stream(c as u64))
            }
            None => vec![false; horizon],
        })
        .collect();

    // Field-level context features from the sampled pits.
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
            // Scenario covariates: tyre age evolves with the sampled
            // pit pattern (tyres turn over at every stop); compound,
            // wetness and fuel pressure are held at their origin
            // values — the model knows no weather forecast, mirroring
            // the §III-C zero-future-caution treatment.
            let mut tyre = seq.tyre_age.get(origin - 1).copied().unwrap_or(0.0);
            let compound = seq.compound.get(origin - 1).copied().unwrap_or(0.0);
            let wetness = seq.track_wetness.get(origin - 1).copied().unwrap_or(0.0);
            let fuel = seq.fuel_target.get(origin - 1).copied().unwrap_or(0.0);
            (0..horizon)
                .map(|s| {
                    let pit = future_pits[c][s];
                    // Cars currently ahead that pit at this step.
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
                        track_status: 0.0, // §III-C: future cautions set to zero
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

/// Convert value samples into *rank positions* by sorting within each
/// sample (§III-C: "the final rank positions of the cars are calculated by
/// sorting the sampled outputs"). Returns `ranked[car][sample]` for the
/// chosen step; cars without samples get an empty list.
pub fn ranks_by_sorting(samples: &ForecastSamples, step: usize) -> Vec<Vec<f32>> {
    let n_cars = samples.len();
    let n_samples = samples.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut out = vec![Vec::new(); n_cars];
    for s in 0..n_samples {
        // Collect participating cars for this sample index.
        let mut vals: Vec<(usize, f32)> = (0..n_cars)
            .filter_map(|c| {
                samples[c]
                    .get(s)
                    .and_then(|path| path.get(step))
                    .map(|&v| (c, v))
            })
            .collect();
        // total_cmp: NaN-safe (NaN sorts last) — sample values come from
        // possibly-degraded decoder output, so no unwrap on partial_cmp.
        vals.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (pos, (c, _)) in vals.iter().enumerate() {
            out[*c].push((pos + 1) as f32);
        }
    }
    out
}

/// Median over each car's sorted-rank samples (empty → None).
pub fn median_ranks(ranked: &[Vec<f32>]) -> Vec<Option<f32>> {
    ranked
        .iter()
        .map(|s| {
            if s.is_empty() {
                None
            } else {
                Some(crate::metrics::quantile(s, 0.5))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_sequences;
    use rand::SeedableRng;
    use rpf_racesim::{simulate_race, Event, EventConfig};

    fn ctxs(n: u64, year: u16) -> Vec<RaceContext> {
        (0..n)
            .map(|s| {
                extract_sequences(&simulate_race(
                    &EventConfig::for_race(Event::Indy500, year),
                    s * 7 + 1,
                ))
            })
            .collect()
    }

    fn tiny_cfg() -> RankNetConfig {
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 2;
        cfg.num_samples = 6;
        cfg
    }

    #[test]
    fn fit_and_forecast_all_variants() {
        let train = ctxs(1, 2015);
        let val = ctxs(1, 2016);
        let test = &ctxs(1, 2017)[0];
        for variant in [
            RankNetVariant::Oracle,
            RankNetVariant::Mlp,
            RankNetVariant::Joint,
        ] {
            let (model, report) = RankNet::fit(train.clone(), val.clone(), tiny_cfg(), variant, 24);
            assert!(report.rank_model.best_val_loss.is_finite(), "{variant:?}");
            assert_eq!(model.pit_model.is_some(), variant == RankNetVariant::Mlp);
            let mut rng = StdRng::seed_from_u64(1);
            let samples = model.forecast(test, 70, 2, 4, &mut rng);
            let with = samples.iter().filter(|s| !s.is_empty()).count();
            assert!(with > 20, "{variant:?}: {with} cars forecasted");
            for s in samples.iter().filter(|s| !s.is_empty()) {
                assert_eq!(s.len(), 4);
                assert_eq!(s[0].len(), 2);
            }
        }
    }

    #[test]
    fn ranks_by_sorting_produces_permutations() {
        // Three cars, two samples, one step.
        let samples: ForecastSamples = vec![
            vec![vec![5.0], vec![1.0]],
            vec![vec![2.0], vec![2.0]],
            vec![vec![9.0], vec![3.0]],
        ];
        let ranked = ranks_by_sorting(&samples, 0);
        // Sample 0: car1 < car0 < car2 -> ranks 2,1,3
        assert_eq!(ranked[0][0], 2.0);
        assert_eq!(ranked[1][0], 1.0);
        assert_eq!(ranked[2][0], 3.0);
        // Sample 1: car0 < car1 < car2 -> ranks 1,2,3
        assert_eq!(ranked[0][1], 1.0);
        assert_eq!(ranked[1][1], 2.0);
        assert_eq!(ranked[2][1], 3.0);
    }

    #[test]
    fn ranks_by_sorting_skips_missing_cars() {
        let samples: ForecastSamples = vec![
            vec![vec![5.0]],
            Vec::new(), // retired car
            vec![vec![1.0]],
        ];
        let ranked = ranks_by_sorting(&samples, 0);
        assert_eq!(ranked[0], vec![2.0]);
        assert!(ranked[1].is_empty());
        assert_eq!(ranked[2], vec![1.0]);
        let med = median_ranks(&ranked);
        assert_eq!(med[0], Some(2.0));
        assert_eq!(med[1], None);
    }
}

/// Learning-rate multiplier for fine-tuning a trained model, shared by
/// [`RankNet::fine_tune`] and the online tuner
/// ([`crate::lifecycle::OnlineFineTuner`]).
pub(crate) const FINE_TUNE_LR_SCALE: f32 = 0.3;

impl RankNet {
    /// Transfer learning — the paper's §VI future-work direction: adapt a
    /// model trained on one event to another by fine-tuning on the new
    /// event's races at a reduced learning rate. The PitModel (if any) is
    /// also refreshed, since stint lengths are track-specific.
    pub fn fine_tune(
        &mut self,
        new_train: Vec<RaceContext>,
        new_val: Vec<RaceContext>,
        epochs: usize,
        stride: usize,
    ) -> TrainReport {
        if let Some(pm) = self.pit_model.as_mut() {
            let mut cfg = self.cfg.clone();
            cfg.max_epochs = epochs.max(5);
            let _ = pm.train(&new_train, &cfg);
        }
        let ts = TrainingSet::build(new_train, &self.cfg, stride);
        let val = TrainingSet::build(new_val, &self.cfg, (stride * 2).max(4));
        let (old_epochs, old_lr) = (
            self.rank_model.cfg.max_epochs,
            self.rank_model.cfg.learning_rate,
        );
        self.rank_model.cfg.max_epochs = epochs;
        self.rank_model.cfg.learning_rate = old_lr * FINE_TUNE_LR_SCALE;
        let report = self.rank_model.train(&ts, &val);
        self.rank_model.cfg.max_epochs = old_epochs;
        self.rank_model.cfg.learning_rate = old_lr;
        report
    }
}

#[cfg(test)]
mod transfer_tests {
    use super::*;
    use crate::features::extract_sequences;
    use rand::SeedableRng;
    use rpf_racesim::{simulate_race, Event, EventConfig};

    #[test]
    fn fine_tune_keeps_model_usable_and_changes_weights() {
        let indy = extract_sequences(&simulate_race(
            &EventConfig::for_race(Event::Indy500, 2016),
            1,
        ));
        let texas = extract_sequences(&simulate_race(
            &EventConfig::for_race(Event::Texas, 2016),
            2,
        ));
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 1;
        let (mut model, _) = RankNet::fit(
            vec![indy.clone()],
            vec![indy.clone()],
            cfg,
            RankNetVariant::Mlp,
            40,
        );
        let before = model.rank_model.store.snapshot();
        let report = model.fine_tune(vec![texas.clone()], vec![texas.clone()], 1, 40);
        assert!(report.best_val_loss.is_finite());
        let after = model.rank_model.store.snapshot();
        let changed = before
            .iter()
            .zip(&after)
            .any(|(a, b)| a.as_slice() != b.as_slice());
        assert!(changed, "fine-tuning must move the weights");

        // Still forecasts on the new event.
        let mut rng = StdRng::seed_from_u64(3);
        let samples = RankNet::forecast(&model, &texas, 60, 2, 3, &mut rng);
        assert!(samples.iter().filter(|s| !s.is_empty()).count() > 15);
    }
}
