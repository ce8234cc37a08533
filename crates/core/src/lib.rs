//! RankNet — rank position forecasting in car racing, with cause–effect
//! decomposition and probabilistic outputs.
//!
//! This is the paper's primary contribution (Peng et al., IPDPS 2021),
//! reproduced in full:
//!
//! * [`features`] — Table I's feature set extracted from race timing
//!   records, plus the Fig 7 optimization features (`LeaderPitCount`,
//!   `TotalPitCount`, shifted race status),
//! * [`instances`] — sliding-window training instances with the
//!   rank-change loss weighting of Fig 7 step 1,
//! * [`rank_model`] — the DeepAR-style probabilistic LSTM encoder–decoder
//!   (Fig 5c, Algorithms 1–2); doubles as the DeepAR baseline when race
//!   status covariates are disabled, and as RankNet-Joint when trained with
//!   the multivariate `[Rank, LapStatus, TrackStatus]` target,
//! * [`pit_model`] — the MLP with probabilistic output that forecasts the
//!   lap of the next pit stop from `CautionLaps`/`PitAge` (Fig 5b),
//! * [`ranknet`] — the composition: PitModel → future race status →
//!   RankModel → sampled rank trajectories (Fig 5a), in Oracle / MLP /
//!   Joint variants (Table III),
//! * [`transformer_model`] — the Transformer encoder–decoder variant of
//!   §IV-I,
//! * [`baseline_adapters`] — CurRank / ARIMA / RandomForest / SVR / XGBoost
//!   wrapped in the common forecasting interface,
//! * [`metrics`] — MAE, Top1Acc, SignAcc and the quantile ρ-risk,
//! * [`eval`] — the experiment runners that regenerate Tables V–VII and
//!   Figs 7–9.

pub mod baseline_adapters;
pub mod config;
pub mod engine;
pub mod eval;
pub mod features;
pub mod instances;
pub mod lifecycle;
pub mod metrics;
pub mod persist;
pub mod pit_model;
pub mod rank_model;
pub mod ranknet;
pub mod transformer_model;

pub use config::{EngineConfig, RankNetConfig};
pub use engine::{
    currank_forecast, EngineError, EngineForecast, ForecastEngine, ForecastRequest, PhaseTimings,
};
pub use features::{extract_sequences, CarSequence, RaceContext};
pub use lifecycle::{
    rank_divergence_milli, FineTuneConfig, LifecycleError, Manifest, ModelSlot, ModelStore,
    OnlineFineTuner, VersionedModel,
};
pub use pit_model::{PitModel, PitState};
pub use rank_model::RankModel;
pub use ranknet::{RankNet, RankNetVariant};
