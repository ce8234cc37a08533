//! The PitModel: an MLP with probabilistic output that predicts the lap of
//! the next pit stop (paper Fig 5b).
//!
//! §III-C: "For efficiency, instead of sequences input and output, PitModel
//! ... use CautionLaps and PitAge as input, and output a scalar of the lap
//! number of the next pit stop." The output is Gaussian — sampling it is
//! what propagates pit-timing uncertainty into the rank forecast.
//!
//! Following the paper's §III-A analysis ("modeling the normal pit data and
//! removing the short distance section is more stable"), training drops
//! stints shorter than a floor.

use crate::config::RankNetConfig;
use crate::features::{CarSequence, RaceContext};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rpf_autodiff::{Tape, Var};
use rpf_nn::gaussian::{gaussian_nll, GaussianParams, SIGMA_FLOOR};
use rpf_nn::mlp::Activation;
use rpf_nn::train::{train, TrainConfig, TrainReport};
use rpf_nn::{Binding, Mlp, ParamStore};
use rpf_tensor::Matrix;

/// Training floor on stint length: the paper identifies the <10% short-pit
/// tail (mechanical issues) as noise for the pit model.
const MIN_TRAIN_STINT: f32 = 5.0;

/// One training example: a car's state at a lap, laps until its next pit.
#[derive(Clone, Copy, Debug)]
struct PitExample {
    state: PitState,
    laps_to_pit: f32,
}

/// Everything the pit model can condition on at one lap. Legacy callers
/// populate only the first two fields; the scenario covariates default to
/// the single-compound dry-race values.
#[derive(Clone, Copy, Debug, Default)]
pub struct PitState {
    /// Caution laps since this car's last stop.
    pub caution_laps: f32,
    /// Laps since this car's last stop.
    pub pit_age: f32,
    /// Laps on the current tyre set (equals `pit_age` when tyres turn over
    /// at every stop).
    pub tyre_age: f32,
    /// Track wetness in `[0, 1]`.
    pub track_wetness: f32,
}

impl PitState {
    /// The legacy two-feature state: tyre age rides along with pit age,
    /// bone-dry track.
    pub fn legacy(caution_laps: f32, pit_age: f32) -> PitState {
        PitState {
            caution_laps,
            pit_age,
            tyre_age: pit_age,
            track_wetness: 0.0,
        }
    }
}

/// The normalised input row for a pit state under the given input width.
/// Shared by training and serving so the two paths cannot drift.
fn feature_row(input_dim: usize, scale: f32, state: &PitState) -> Vec<f32> {
    let mut row = vec![state.caution_laps / 10.0, state.pit_age / scale];
    if input_dim == 4 {
        row.push(state.tyre_age / scale);
        row.push(state.track_wetness);
    }
    row
}

/// The probabilistic next-pit-lap model.
#[derive(Clone)]
pub struct PitModel {
    store: ParamStore,
    mu_net: Mlp,
    sigma_net: Mlp,
    /// Normalisation constant for ages (the fuel window).
    scale: f32,
    /// Input width: 2 (paper: CautionLaps, PitAge) or 4 (+TyreAge,
    /// TrackWetness under `use_scenario_features`).
    input_dim: usize,
}

impl PitModel {
    /// The paper's two-feature model (CautionLaps, PitAge). Weight names,
    /// shapes and initialisation are unchanged from before the scenario
    /// covariates existed, so v2 artifacts import bit-identically.
    pub fn new(seed: u64, fuel_window: f32) -> PitModel {
        Self::with_features(seed, fuel_window, false)
    }

    /// Constructor parameterised on the feature schema: with
    /// `scenario_features` the input widens to `[CautionLaps, PitAge,
    /// TyreAge, TrackWetness]` — the same covariates the RankModel encoder
    /// receives under `use_scenario_features`.
    pub fn with_features(seed: u64, fuel_window: f32, scenario_features: bool) -> PitModel {
        let d = if scenario_features { 4 } else { 2 };
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9177);
        let mu_net = Mlp::new(
            &mut store,
            &mut rng,
            "pit.mu",
            &[d, 16, 16, 1],
            Activation::Relu,
        );
        let sigma_net = Mlp::new(
            &mut store,
            &mut rng,
            "pit.sigma",
            &[d, 16, 1],
            Activation::Relu,
        );
        PitModel {
            store,
            mu_net,
            sigma_net,
            scale: fuel_window,
            input_dim: d,
        }
    }

    /// Input width (2 legacy, 4 scenario).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Normalised `(mu, sigma)` for each state, one row per state, on
    /// `bind`'s tape: the one forward that training, validation and serving
    /// all run.
    fn forward<'s>(
        &self,
        bind: &Binding<'_>,
        states: impl ExactSizeIterator<Item = &'s PitState>,
    ) -> GaussianParams {
        let tape = bind.tape();
        let n = states.len();
        let rows = states
            .flat_map(|s| feature_row(self.input_dim, self.scale, s))
            .collect();
        let x = tape.leaf(Matrix::from_vec(n, self.input_dim, rows));
        let mu = self.mu_net.forward(bind, x);
        let sigma = tape.add_scalar(tape.softplus(self.sigma_net.forward(bind, x)), SIGMA_FLOOR);
        GaussianParams { mu, sigma }
    }

    /// Gaussian NLL of the examples' normalised laps-to-pit.
    fn nll(&self, bind: &Binding<'_>, examples: &[&PitExample]) -> Var {
        let tape = bind.tape();
        let params = self.forward(bind, examples.iter().map(|e| &e.state));
        let target = examples.iter().map(|e| e.laps_to_pit / self.scale);
        let target = tape.leaf(Matrix::from_vec(examples.len(), 1, target.collect()));
        gaussian_nll(bind, params, target, None)
    }

    fn examples(sequences: &[&CarSequence]) -> Vec<PitExample> {
        let mut out = Vec::new();
        for seq in sequences {
            // Next pit lap index for each position.
            let pit_indices: Vec<usize> = (0..seq.len())
                .filter(|&i| seq.lap_status[i] == 1.0)
                .collect();
            for (k, &pit_idx) in pit_indices.iter().enumerate() {
                // Stint start: previous pit (exclusive) or sequence start.
                let start = if k == 0 { 0 } else { pit_indices[k - 1] + 1 };
                let stint_len = (pit_idx - start) as f32;
                if stint_len < MIN_TRAIN_STINT {
                    continue; // drop the short-failure tail (§III-A)
                }
                for i in start..pit_idx {
                    out.push(PitExample {
                        state: PitState {
                            caution_laps: seq.caution_laps[i],
                            pit_age: seq.pit_age[i],
                            tyre_age: seq.tyre_age.get(i).copied().unwrap_or(seq.pit_age[i]),
                            track_wetness: seq.track_wetness.get(i).copied().unwrap_or(0.0),
                        },
                        laps_to_pit: (pit_idx - i) as f32,
                    });
                }
            }
        }
        out
    }

    /// Train on every stint in the given races.
    pub fn train(&mut self, contexts: &[RaceContext], cfg: &RankNetConfig) -> TrainReport {
        let seqs: Vec<&CarSequence> = contexts.iter().flat_map(|c| c.sequences.iter()).collect();
        let examples = Self::examples(&seqs);
        assert!(!examples.is_empty(), "no pit stops in training data");

        // Deterministic split for early stopping.
        let n_val = (examples.len() / 10).max(1);
        let (train_ex, val_ex) = examples.split_at(examples.len() - n_val);

        let mut store = std::mem::take(&mut self.store);
        let this: &PitModel = self;
        let train_cfg = TrainConfig {
            max_epochs: cfg.max_epochs.max(10),
            batch_size: 256,
            lr: 2e-3,
            seed: cfg.seed,
            ..Default::default()
        };
        let report = train(
            &mut store,
            train_ex.len(),
            &train_cfg,
            |store, batch| {
                let tape = Tape::new();
                let bind = Binding::new(&tape, store);
                let batch: Vec<&PitExample> = batch.iter().map(|&bi| &train_ex[bi]).collect();
                let nll = this.nll(&bind, &batch);
                let loss = tape.scalar(nll);
                let g = bind.into_grads(nll);
                store.apply_grads(g);
                loss
            },
            |store| {
                let tape = Tape::new();
                let bind = Binding::new(&tape, store);
                tape.scalar(this.nll(&bind, &val_ex.iter().collect::<Vec<_>>()))
            },
        );
        self.store = store;
        report
    }

    /// Normalisation scale (the fuel window this model was built with).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Export weights for persistence.
    pub fn export(&self) -> Vec<(String, rpf_tensor::Matrix)> {
        self.store.export()
    }

    /// Import weights exported by [`PitModel::export`] into a model built
    /// with the same constructor arguments.
    pub fn import(&mut self, entries: &[(String, rpf_tensor::Matrix)]) -> Result<(), String> {
        self.store.import(entries)
    }

    /// Distribution over laps-until-next-pit for a car with the given state,
    /// on the same tape forward (`softplus` floor included) that trains the
    /// nets.
    pub fn predict(&self, caution_laps: f32, pit_age: f32) -> (f32, f32) {
        self.predict_state(&PitState::legacy(caution_laps, pit_age))
    }

    /// [`PitModel::predict`] on a full [`PitState`]. On a legacy (2-input)
    /// model the scenario fields are ignored, so the two entry points agree
    /// bit-for-bit.
    pub fn predict_state(&self, state: &PitState) -> (f32, f32) {
        self.predict_states(std::slice::from_ref(state))[0]
    }

    /// [`PitModel::predict_state`] for many states in one `n`-row forward
    /// of each net. Row `i` is bit-identical to `predict_state(&states[i])`:
    /// the tape's `matmul` accumulates every element in the same
    /// ascending-`k` order whatever the row count, and the rest is
    /// elementwise.
    pub fn predict_states(&self, states: &[PitState]) -> Vec<(f32, f32)> {
        let tape = Tape::new();
        let bind = Binding::new(&tape, &self.store);
        let p = self.forward(&bind, states.iter());
        let (mu, sigma) = (tape.value(p.mu), tape.value(p.sigma));
        (0..states.len())
            .map(|i| (mu.get(i, 0) * self.scale, sigma.get(i, 0) * self.scale))
            .collect()
    }

    /// Every car's next-pit distributions at a forecast origin, from one
    /// [`PitModel::predict_states`] call over two rows per running car: its
    /// state at lap `origin - 1`, and the fresh state it restarts from after
    /// a stop (pit age, tyre age and caution credit zero; track wetness held
    /// at its origin value, exactly as the rank decoder holds weather).
    /// Cars retired before the origin (`seq.len() < origin`) get `None`.
    pub fn car_dists(&self, ctx: &RaceContext, origin: usize) -> Vec<Option<CarPitDist>> {
        let mut states = Vec::new();
        for seq in ctx.sequences.iter().filter(|seq| seq.len() >= origin) {
            let i = origin - 1;
            let track_wetness = seq.track_wetness.get(i).copied().unwrap_or(0.0);
            states.push(PitState {
                caution_laps: seq.caution_laps[i],
                pit_age: seq.pit_age[i],
                tyre_age: seq.tyre_age.get(i).copied().unwrap_or(seq.pit_age[i]),
                track_wetness,
            });
            states.push(PitState {
                track_wetness,
                ..PitState::default()
            });
        }
        let dists = self.predict_states(&states);
        let mut pairs = dists.chunks_exact(2);
        ctx.sequences
            .iter()
            .map(|seq| {
                if seq.len() < origin {
                    return None;
                }
                pairs.next().map(|p| CarPitDist {
                    origin: p[0],
                    fresh: p[1],
                })
            })
            .collect()
    }

    /// Sample a full future pit-lap pattern for one car: `horizon` booleans,
    /// resampling from the fresh distribution after each predicted stop
    /// (Algorithm 2 step 1). Each draw is one Box–Muller normal, rounded and
    /// floored at one lap.
    pub fn sample_future_pits(dist: &CarPitDist, horizon: usize, rng: &mut StdRng) -> Vec<bool> {
        let mut draw = |(mu, sigma): (f32, f32)| {
            let u1: f32 = rng.gen_range(1e-7..1.0f32);
            let u2: f32 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            (mu + sigma * z).round().max(1.0) as usize
        };
        let mut pits = vec![false; horizon];
        // Countdown to the next stop; aging is implicit in the countdown, so
        // only the origin and fresh distributions are ever drawn from.
        let mut next = draw(dist.origin);
        for slot in pits.iter_mut() {
            if next == 0 {
                *slot = true;
                // A freshly sampled stint must be at least one lap.
                next = draw(dist.fresh).max(1);
            }
            next = next.saturating_sub(1);
        }
        pits
    }
}

/// One car's next-pit distributions at a forecast origin, as `(mu, sigma)`
/// in laps: `origin` from its state at the origin, `fresh` from the state it
/// restarts from after a sampled stop. Built by [`PitModel::car_dists`].
#[derive(Clone, Copy, Debug)]
pub struct CarPitDist {
    pub origin: (f32, f32),
    pub fresh: (f32, f32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract_sequences;
    use rpf_racesim::{simulate_race, Event, EventConfig};

    fn contexts() -> Vec<RaceContext> {
        (0..2u64)
            .map(|s| {
                extract_sequences(&simulate_race(
                    &EventConfig::for_race(Event::Indy500, 2015),
                    s,
                ))
            })
            .collect()
    }

    #[test]
    fn examples_have_positive_targets() {
        let ctxs = contexts();
        let seqs: Vec<&CarSequence> = ctxs.iter().flat_map(|c| c.sequences.iter()).collect();
        let ex = PitModel::examples(&seqs);
        assert!(ex.len() > 1000);
        for e in &ex {
            assert!(e.laps_to_pit >= 1.0);
            assert!(e.state.pit_age >= 0.0);
        }
    }

    #[test]
    fn training_learns_the_fuel_window() {
        let ctxs = contexts();
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 15;
        let mut model = PitModel::new(1, 50.0);
        let report = model.train(&ctxs, &cfg);
        assert!(report.best_val_loss.is_finite());

        // Fresh tyres, no cautions: expect a stint in the 20–45 lap range.
        let (mu, sigma) = model.predict(0.0, 0.0);
        assert!(
            (12.0..48.0).contains(&mu),
            "fresh-stint prediction {mu} should be near the ~32 lap mean"
        );
        assert!(sigma > 0.0);

        // Late in the stint the next pit must be close.
        let (mu_late, _) = model.predict(0.0, 45.0);
        assert!(
            mu_late < mu,
            "at pit age 45 the next stop ({mu_late}) must be nearer than at age 0 ({mu})"
        );
    }

    #[test]
    fn sampled_pits_respect_horizon_and_restart() {
        let ctxs = contexts();
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 5;
        let mut model = PitModel::new(2, 50.0);
        let _ = model.train(&ctxs, &cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let dist = CarPitDist {
            origin: model.predict(0.0, 30.0),
            fresh: model.predict(0.0, 0.0),
        };
        // Deep into a stint, a long horizon should almost surely contain a
        // pit stop.
        let mut any_pit = 0;
        for _ in 0..20 {
            let pits = PitModel::sample_future_pits(&dist, 40, &mut rng);
            assert_eq!(pits.len(), 40);
            if pits.iter().any(|&p| p) {
                any_pit += 1;
            }
        }
        assert!(
            any_pit >= 15,
            "expected pits in most 40-lap windows, got {any_pit}/20"
        );
    }

    /// Tape reference for `predict`: the exact graph `train` optimises.
    fn predict_tape(model: &PitModel, caution: f32, age: f32) -> (f32, f32) {
        let tape = Tape::new();
        let bind = Binding::new(&tape, &model.store);
        let x = tape.leaf(Matrix::from_vec(
            1,
            model.input_dim,
            feature_row(
                model.input_dim,
                model.scale,
                &PitState::legacy(caution, age),
            ),
        ));
        let mu = model.mu_net.forward(&bind, x);
        let sigma = tape.add_scalar(
            tape.softplus(model.sigma_net.forward(&bind, x)),
            SIGMA_FLOOR,
        );
        (
            tape.value(mu).get(0, 0) * model.scale,
            tape.value(sigma).get(0, 0) * model.scale,
        )
    }

    #[test]
    fn predict_matches_tape_reference_and_refreshes_after_train() {
        let ctxs = contexts();
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 2;
        let mut model = PitModel::new(7, 50.0);
        let _ = model.train(&ctxs, &cfg);
        for (caution, age) in [(0.0f32, 0.0f32), (3.0, 20.0), (8.0, 45.0)] {
            let (mu, sigma) = model.predict(caution, age);
            let (mu_t, sigma_t) = predict_tape(&model, caution, age);
            assert_eq!(mu.to_bits(), mu_t.to_bits(), "mu at ({caution}, {age})");
            assert_eq!(
                sigma.to_bits(),
                sigma_t.to_bits(),
                "sigma at ({caution}, {age})"
            );
        }
        // Retraining must not serve stale weights: predict after a second
        // train still matches the tape on the *new* store.
        cfg.max_epochs = 4;
        let _ = model.train(&ctxs, &cfg);
        let (mu, sigma) = model.predict(2.0, 15.0);
        let (mu_t, sigma_t) = predict_tape(&model, 2.0, 15.0);
        assert_eq!(mu.to_bits(), mu_t.to_bits());
        assert_eq!(sigma.to_bits(), sigma_t.to_bits());
    }

    #[test]
    fn scenario_model_widens_input_and_stays_compatible() {
        // The 4-input model trains and serves on the same call paths; the
        // legacy entry points keep working on it (scenario fields default
        // to the dry single-compound values).
        let ctxs = contexts();
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 3;
        let mut model = PitModel::with_features(9, 50.0, true);
        assert_eq!(model.input_dim(), 4);
        let report = model.train(&ctxs, &cfg);
        assert!(report.best_val_loss.is_finite());
        let (mu, sigma) = model.predict(0.0, 10.0);
        assert!(mu.is_finite() && sigma > 0.0);
        // A wet track is a real input on the 4-dim model: the prediction
        // may move, but must stay finite and positive-sigma.
        let (mu_wet, sigma_wet) = model.predict_state(&PitState {
            caution_laps: 0.0,
            pit_age: 10.0,
            tyre_age: 10.0,
            track_wetness: 0.9,
        });
        assert!(mu_wet.is_finite() && sigma_wet > 0.0);
        // Export/import round-trips the widened shapes.
        let entries = model.export();
        let mut fresh = PitModel::with_features(1234, 50.0, true);
        fresh.import(&entries).unwrap();
        let (a, b) = fresh.predict(3.0, 20.0);
        let (c, d) = model.predict(3.0, 20.0);
        assert_eq!(a.to_bits(), c.to_bits());
        assert_eq!(b.to_bits(), d.to_bits());
    }

    #[test]
    fn legacy_model_ignores_scenario_fields() {
        let model = PitModel::new(11, 50.0);
        assert_eq!(model.input_dim(), 2);
        let (mu_dry, sig_dry) = model.predict_state(&PitState::legacy(2.0, 15.0));
        let (mu_wet, sig_wet) = model.predict_state(&PitState {
            caution_laps: 2.0,
            pit_age: 15.0,
            tyre_age: 40.0,
            track_wetness: 1.0,
        });
        assert_eq!(mu_dry.to_bits(), mu_wet.to_bits());
        assert_eq!(sig_dry.to_bits(), sig_wet.to_bits());
    }

    #[test]
    fn sample_next_pit_is_at_least_one() {
        let mut model = PitModel::new(4, 50.0);
        let ctxs = contexts();
        let mut cfg = RankNetConfig::tiny();
        cfg.max_epochs = 2;
        let _ = model.train(&ctxs, &cfg);
        let mut rng = StdRng::seed_from_u64(5);
        let dist = CarPitDist {
            origin: model.predict(5.0, 49.0),
            fresh: model.predict(0.0, 0.0),
        };
        for _ in 0..50 {
            // The first sampled stop's slot is the drawn lap offset.
            let pits = PitModel::sample_future_pits(&dist, 64, &mut rng);
            let next_pit = pits.iter().position(|&p| p).unwrap_or(64);
            assert!(next_pit >= 1);
        }
    }
}
