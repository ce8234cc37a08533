//! Model hyper-parameters (the paper's Table IV).

use serde::{Deserialize, Serialize};

/// Output likelihood of the RankModel's probabilistic head.
///
/// The paper uses a Gaussian (§III-B); Student-t is this reproduction's
/// robustness ablation — heavy tails fit the rare large rank jumps at pit
/// stops without inflating sigma everywhere else.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Likelihood {
    Gaussian,
    /// Student-t with the given degrees of freedom (must be > 2).
    StudentT(f32),
}

/// Hyper-parameters for RankNet and its ablations. Defaults reproduce
/// Table IV; tests shrink them for speed.
///
/// `Deserialize` is hand-written (see below): `use_scenario_features` was
/// added in saved-model format v3, and configs stored by v2 artifacts must
/// keep loading with the flag defaulted off so their weight shapes match.
#[derive(Clone, Debug, Serialize)]
pub struct RankNetConfig {
    /// Encoder (context) length `C = L0 - 1`. Table IV / Fig 7 step 2: 60.
    pub context_len: usize,
    /// Decoder (prediction) length `k`. Table IV: 2.
    pub prediction_len: usize,
    /// Loss weight applied to instances whose decoder window contains a
    /// rank change (Fig 7 step 1; tuned optimum 9, range 1–10).
    pub loss_weight: f32,
    /// LSTM hidden units per layer (Table IV: 40).
    pub hidden_dim: usize,
    /// Stacked LSTM layers (Table IV: 2).
    pub num_layers: usize,
    /// CarId embedding dimension.
    pub embedding_dim: usize,
    /// Monte-Carlo samples per forecast (paper: 100).
    pub num_samples: usize,
    /// Use race-status covariates (off = the plain DeepAR baseline).
    pub use_race_status: bool,
    /// Use the Fig 7 step-3 context features (LeaderPitCount, TotalPitCount).
    pub use_context_features: bool,
    /// Use the Fig 7 step-4 shift features (race status at lap A+k).
    pub use_shift_features: bool,
    /// Use the scenario covariates (compound, tyre age, track wetness,
    /// fuel target) fed by the scenario engine. Off by default: the
    /// IndyCar baseline carries them as all-zero columns, so enabling the
    /// flag only pays off on scenario-family data. Feature-schema v2.
    pub use_scenario_features: bool,
    /// Training epochs cap.
    pub max_epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub seed: u64,
    /// Output distribution (paper: Gaussian).
    pub likelihood: Likelihood,
}

/// Default [`EngineConfig::encoder_cache_capacity`]: enough for every
/// origin of a handful of concurrently-live races, small enough that a
/// season-long soak stays bounded.
pub const DEFAULT_ENCODER_CACHE_CAPACITY: usize = 1024;

/// Runtime tuning for [`crate::engine::ForecastEngine`] — deliberately
/// separate from [`RankNetConfig`] (model hyper-parameters): these knobs
/// change scheduling and memory footprint, never a sampled value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Base seed of the engine's counter-derived RNG streams.
    pub seed: u64,
    /// Decoder worker threads; `None` picks the machine's default.
    pub threads: Option<usize>,
    /// Encoder cache capacity in `(race, origin)` entries, enforced by LRU
    /// eviction; 0 disables caching entirely. Bounds resident encoder
    /// states on long multi-race soaks.
    pub encoder_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0,
            threads: None,
            encoder_cache_capacity: DEFAULT_ENCODER_CACHE_CAPACITY,
        }
    }
}

impl Default for RankNetConfig {
    fn default() -> Self {
        RankNetConfig {
            context_len: 60,
            prediction_len: 2,
            loss_weight: 9.0,
            hidden_dim: 40,
            num_layers: 2,
            embedding_dim: 4,
            num_samples: 100,
            use_race_status: true,
            use_context_features: true,
            use_shift_features: true,
            use_scenario_features: false,
            max_epochs: 60,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: 42,
            likelihood: Likelihood::Gaussian,
        }
    }
}

impl RankNetConfig {
    /// A configuration small enough for unit tests (shorter context, fewer
    /// units, few epochs) while preserving every architectural feature.
    pub fn tiny() -> Self {
        RankNetConfig {
            context_len: 20,
            prediction_len: 2,
            hidden_dim: 16,
            num_layers: 2,
            embedding_dim: 2,
            num_samples: 20,
            max_epochs: 5,
            batch_size: 32,
            ..Default::default()
        }
    }

    /// The plain DeepAR baseline: same network, no race-status covariates
    /// (Table III row "DeepAR").
    pub fn deepar(mut self) -> Self {
        self.use_race_status = false;
        self.use_context_features = false;
        self.use_shift_features = false;
        self.use_scenario_features = false;
        self
    }

    /// Version of the feature schema this config encodes rows under:
    /// 1 = the paper's Table I + Fig 7 layout, 2 = with the scenario
    /// covariate block appended. Stored artifacts record the input dims
    /// implicitly through their weight shapes; this labels them for docs
    /// and diagnostics.
    pub fn feature_schema(&self) -> u32 {
        if self.use_scenario_features {
            2
        } else {
            1
        }
    }
}

// Backward-compatible by hand: v2 artifacts predate
// `use_scenario_features`, which must default to `false` (schema v1) so
// stored weight shapes keep matching the encoder the config rebuilds. The
// vendored derive errors on missing fields, hence the explicit impl over
// `take_field_or`.
impl<'de> Deserialize<'de> for RankNetConfig {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match serde::Deserializer::deserialize_content(deserializer)? {
            serde::Content::Map(mut fields) => Ok(RankNetConfig {
                context_len: serde::de::take_field(&mut fields, "context_len")?,
                prediction_len: serde::de::take_field(&mut fields, "prediction_len")?,
                loss_weight: serde::de::take_field(&mut fields, "loss_weight")?,
                hidden_dim: serde::de::take_field(&mut fields, "hidden_dim")?,
                num_layers: serde::de::take_field(&mut fields, "num_layers")?,
                embedding_dim: serde::de::take_field(&mut fields, "embedding_dim")?,
                num_samples: serde::de::take_field(&mut fields, "num_samples")?,
                use_race_status: serde::de::take_field(&mut fields, "use_race_status")?,
                use_context_features: serde::de::take_field(&mut fields, "use_context_features")?,
                use_shift_features: serde::de::take_field(&mut fields, "use_shift_features")?,
                use_scenario_features: serde::de::take_field_or(
                    &mut fields,
                    "use_scenario_features",
                    false,
                )?,
                max_epochs: serde::de::take_field(&mut fields, "max_epochs")?,
                batch_size: serde::de::take_field(&mut fields, "batch_size")?,
                learning_rate: serde::de::take_field(&mut fields, "learning_rate")?,
                seed: serde::de::take_field(&mut fields, "seed")?,
                likelihood: serde::de::take_field(&mut fields, "likelihood")?,
            }),
            other => Err(<D::Error as serde::de::Error>::custom(format!(
                "expected map for struct RankNetConfig, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table4() {
        let c = RankNetConfig::default();
        assert_eq!(c.context_len, 60);
        assert_eq!(c.prediction_len, 2);
        assert_eq!(c.hidden_dim, 40);
        assert_eq!(c.num_layers, 2);
        assert_eq!(c.num_samples, 100);
        assert!((c.learning_rate - 1e-3).abs() < 1e-9);
        assert!((1.0..=10.0).contains(&c.loss_weight));
    }

    #[test]
    fn deepar_disables_covariates() {
        let c = RankNetConfig::default().deepar();
        assert!(!c.use_race_status);
        assert!(!c.use_context_features);
        assert!(!c.use_shift_features);
    }

    #[test]
    fn likelihood_serde_roundtrip() {
        let cfg = RankNetConfig {
            likelihood: Likelihood::StudentT(5.0),
            ..Default::default()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: RankNetConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.likelihood, Likelihood::StudentT(5.0));
        assert_eq!(RankNetConfig::default().likelihood, Likelihood::Gaussian);
    }

    #[test]
    fn config_deserializes_pre_scenario_payloads() {
        // A config serialized before `use_scenario_features` existed (v2
        // artifacts): the flag must default off = feature schema v1.
        let json = serde_json::to_string(&RankNetConfig::default()).unwrap();
        let stripped = json
            .replace("\"use_scenario_features\":false,", "")
            .replace(",\"use_scenario_features\":false", "");
        assert_ne!(json, stripped, "test must actually remove the field");
        let back: RankNetConfig = serde_json::from_str(&stripped).unwrap();
        assert!(!back.use_scenario_features);
        assert_eq!(back.feature_schema(), 1);
        assert_eq!(back.context_len, 60);
    }

    #[test]
    fn feature_schema_tracks_scenario_flag() {
        assert_eq!(RankNetConfig::default().feature_schema(), 1);
        let scen = RankNetConfig {
            use_scenario_features: true,
            ..Default::default()
        };
        assert_eq!(scen.feature_schema(), 2);
    }

    #[test]
    fn tiny_is_smaller_but_complete() {
        let c = RankNetConfig::tiny();
        assert!(c.context_len < 60);
        assert!(c.use_race_status);
        assert_eq!(c.num_layers, 2);
    }
}
