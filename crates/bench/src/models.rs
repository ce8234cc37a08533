//! Model training shared by the experiment targets, with fast / full
//! profiles.

use ranknet_core::baseline_adapters::{DeepArForecaster, RegKind, RegressionForecaster};
use ranknet_core::eval::EvalConfig;
use ranknet_core::features::RaceContext;
use ranknet_core::instances::TrainingSet;
use ranknet_core::rank_model::{RankModel, TargetKind};
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::transformer_model::TransformerModel;
use ranknet_core::RankNetConfig;

/// Experiment scale knobs.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Window stride for deep-model training sets (paper: 1).
    pub stride: usize,
    /// Deep-model training epochs.
    pub epochs: usize,
    /// Monte-Carlo samples at evaluation (paper: 100).
    pub n_samples: usize,
    /// Forecast-origin stride during evaluation (paper: 1).
    pub origin_step: usize,
    /// Transformer training-set stride (Transformer is per-sequence and
    /// slower; it gets a sparser set).
    pub tx_stride: usize,
    pub tx_epochs: usize,
}

impl Profile {
    /// Minutes-scale runs for the default harness.
    pub fn fast() -> Profile {
        Profile {
            stride: 6,
            epochs: 18,
            n_samples: 30,
            origin_step: 6,
            tx_stride: 48,
            tx_epochs: 6,
        }
    }

    /// The paper's settings (hours-scale).
    pub fn full() -> Profile {
        Profile {
            stride: 1,
            epochs: 60,
            n_samples: 100,
            origin_step: 1,
            tx_stride: 8,
            tx_epochs: 30,
        }
    }

    pub fn model_cfg(&self) -> RankNetConfig {
        RankNetConfig {
            max_epochs: self.epochs,
            ..Default::default()
        }
    }

    pub fn eval_cfg(&self) -> EvalConfig {
        EvalConfig {
            horizon: 2,
            n_samples: self.n_samples,
            origin_start: 25,
            origin_step: self.origin_step,
            seed: 7,
        }
    }
}

/// Train a RankNet variant on the given contexts.
pub fn train_ranknet(
    profile: &Profile,
    train: &[RaceContext],
    val: &[RaceContext],
    variant: RankNetVariant,
) -> RankNet {
    let cfg = profile.model_cfg();
    let (model, report) = RankNet::fit(train.to_vec(), val.to_vec(), cfg, variant, profile.stride);
    eprintln!(
        "  [train] {} epochs={} best_val={:.4} ({:.1}s, {:.1} us/sample)",
        variant.name(),
        report.rank_model.epochs_run,
        report.rank_model.best_val_loss,
        report.rank_model.wall_s,
        report.rank_model.us_per_sample
    );
    model
}

/// Train the plain DeepAR baseline.
pub fn train_deepar(
    profile: &Profile,
    train: &[RaceContext],
    val: &[RaceContext],
) -> DeepArForecaster {
    let cfg = profile.model_cfg().deepar();
    let ts = TrainingSet::build(train.to_vec(), &cfg, profile.stride);
    let vs = TrainingSet::build(val.to_vec(), &cfg, (profile.stride * 2).max(4));
    let mut model = RankModel::new(cfg, TargetKind::RankOnly, ts.max_car_id.max(vs.max_car_id));
    let report = model.train(&ts, &vs);
    eprintln!(
        "  [train] DeepAR epochs={} best_val={:.4} ({:.1}s)",
        report.epochs_run, report.best_val_loss, report.wall_s
    );
    DeepArForecaster(model)
}

/// Train the Transformer variant with Oracle or MLP covariate handling
/// decided at forecast time by the caller (the network itself is shared).
pub fn train_transformer(
    profile: &Profile,
    train: &[RaceContext],
    val: &[RaceContext],
) -> TransformerModel {
    let mut cfg = profile.model_cfg();
    cfg.max_epochs = profile.tx_epochs;
    let ts = TrainingSet::build(train.to_vec(), &cfg, profile.tx_stride);
    let vs = TrainingSet::build(val.to_vec(), &cfg, (profile.tx_stride * 2).max(8));
    let mut model = TransformerModel::new(cfg, ts.max_car_id.max(vs.max_car_id));
    let report = model.train(&ts, &vs);
    eprintln!(
        "  [train] Transformer epochs={} best_val={:.4} ({:.1}s)",
        report.epochs_run, report.best_val_loss, report.wall_s
    );
    model
}

/// Fit the three classical regressors.
pub fn train_regressors(
    profile: &Profile,
    train: &[RaceContext],
    max_horizon: usize,
) -> Vec<RegressionForecaster> {
    let stride = (profile.stride * 2).max(4);
    [RegKind::Forest, RegKind::Svr, RegKind::Gbt]
        .into_iter()
        .map(|kind| {
            let m = RegressionForecaster::fit(kind, train, max_horizon, stride, 0);
            eprintln!("  [train] {}", m.name());
            m
        })
        .collect()
}

use ranknet_core::baseline_adapters::Forecaster;

// ---- model cache ------------------------------------------------------------
//
// `repro all` runs many targets that need the same trained models (Table V,
// Table VI, Fig 8, Fig 9 all want the Indy500 RankNet variants). Training is
// the expensive part, so share one instance per (event, variant, profile).

use rpf_racesim::Event;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

fn profile_key(p: &Profile) -> String {
    format!("s{}e{}", p.stride, p.epochs)
}

type Cache<T> = OnceLock<Mutex<HashMap<String, Arc<T>>>>;

static RANKNET_CACHE: Cache<RankNet> = OnceLock::new();
static DEEPAR_CACHE: Cache<DeepArForecaster> = OnceLock::new();
static REG_CACHE: Cache<Vec<RegressionForecaster>> = OnceLock::new();

/// The entry for `key`, built on a miss. The lock is not held while
/// building, and a poisoned lock is recovered: entries are inserted whole,
/// so a panic elsewhere never leaves the map half-written.
fn cached<T>(cache: &Cache<T>, key: String, build: impl FnOnce() -> T) -> Arc<T> {
    let map = cache.get_or_init(Default::default);
    let lock = || map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(m) = lock().get(&key) {
        return m.clone();
    }
    let value = Arc::new(build());
    lock().insert(key, value.clone());
    value
}

/// Cached [`train_ranknet`] keyed by event + variant + profile.
pub fn ranknet_for(
    profile: &Profile,
    event: Event,
    train: &[RaceContext],
    val: &[RaceContext],
    variant: RankNetVariant,
) -> Arc<RankNet> {
    let key = format!(
        "{}-{}-{}",
        event.name(),
        variant.name(),
        profile_key(profile)
    );
    cached(&RANKNET_CACHE, key, || {
        train_ranknet(profile, train, val, variant)
    })
}

/// Cached [`train_deepar`].
pub fn deepar_for(
    profile: &Profile,
    event: Event,
    train: &[RaceContext],
    val: &[RaceContext],
) -> Arc<DeepArForecaster> {
    let key = format!("{}-{}", event.name(), profile_key(profile));
    cached(&DEEPAR_CACHE, key, || train_deepar(profile, train, val))
}

/// Cached [`train_regressors`] (keyed by max horizon too).
pub fn regressors_for(
    profile: &Profile,
    event: Event,
    train: &[RaceContext],
    max_horizon: usize,
) -> Arc<Vec<RegressionForecaster>> {
    let key = format!("{}-h{}-{}", event.name(), max_horizon, profile_key(profile));
    cached(&REG_CACHE, key, || {
        train_regressors(profile, train, max_horizon)
    })
}
