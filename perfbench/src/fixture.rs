//! The served fixture and the benchmark's set-up phase.
//!
//! Everything derives from the workload seed: the simulated Indy500
//! season (five training races, the 2018 validation race and the 2019
//! test race), the RankNet-MLP fixture trained on it at the paper's
//! architecture (`RankNetConfig::default`: hidden 40, 2 layers, batch
//! 64), the fixed training set `train_epochs` trains on, and the default
//! `ForecastEngine` that serves the fixture.

use crate::report::median;
use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::{extract_sequences, RaceContext};
use ranknet_core::instances::TrainingSet;
use ranknet_core::rank_model::TargetKind;
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::{RankModel, RankNetConfig};
use rpf_nn::train::TrainReport;
use rpf_racesim::{Dataset, Event, Split};
use std::sync::Arc;
use std::time::Instant;

/// Epochs the fixture is trained for: enough for a working PitModel and a
/// rank model that beats noise, small enough that set-up stays ~1 s.
const FIXTURE_EPOCHS: usize = 2;
/// Training-window stride for the fixture and for `train_epochs` (1 is
/// the paper's setting; 40 keeps ~600 windows from five races).
const TRAIN_STRIDE: usize = 40;
/// How many times a run repeats set-up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

pub struct Fixture {
    /// The season's races as served: index 0 is the 2018 validation race,
    /// 1 the 2019 test race, 2.. the training races.
    pub races: Vec<RaceContext>,
    pub model: Arc<RankNet>,
    /// The fixture's rank-model training report.
    pub fit: TrainReport,
    /// `train_epochs` input: the training races' windows at
    /// [`TRAIN_STRIDE`], the validation race for early stopping, and the
    /// untrained model every measured call starts from.
    pub train_set: TrainingSet,
    pub val_set: TrainingSet,
    pub init_model: RankModel,
    pub engine: ForecastEngine,
}

impl Fixture {
    pub fn test_race(&self) -> &RaceContext {
        &self.races[1]
    }
}

/// One full set-up: simulate, featurize, train the fixture, build the
/// engine, then let `warm` fill whatever caches the workload relies on.
pub fn set_up(seed: u64, warm: &dyn Fn(&Fixture)) -> Fixture {
    let dataset = Dataset::generate_event(Event::Indy500, seed);
    let contexts = |split| -> Vec<RaceContext> {
        dataset
            .split(Event::Indy500, split)
            .iter()
            .map(|(_, race)| extract_sequences(race))
            .collect()
    };
    let train = contexts(Split::Training);
    let val = contexts(Split::Validation);
    let test = contexts(Split::Test);

    let cfg = RankNetConfig {
        max_epochs: FIXTURE_EPOCHS,
        seed,
        ..RankNetConfig::default()
    };
    let (model, report) = RankNet::fit(
        train.clone(),
        val.clone(),
        cfg.clone(),
        RankNetVariant::Mlp,
        TRAIN_STRIDE,
    );

    let mut races = val.clone();
    races.extend(test);
    races.extend(train.iter().cloned());
    let train_set = TrainingSet::build(train, &cfg, TRAIN_STRIDE);
    let val_set = TrainingSet::build(val.clone(), &cfg, TRAIN_STRIDE);
    let max_car_id = train_set.max_car_id.max(val_set.max_car_id);
    let init_model = RankModel::new(cfg.clone(), TargetKind::RankOnly, max_car_id);

    let model = Arc::new(model);
    let engine = ForecastEngine::new(Arc::clone(&model), seed ^ 0x5EED);
    let fixture = Fixture {
        races,
        model,
        fit: report.rank_model,
        train_set,
        val_set,
        init_model,
        engine,
    };
    warm(&fixture);
    fixture
}

/// Run [`set_up`] [`SETUP_REPEATS`] times; returns the last fixture, the
/// median set-up seconds, and whether every repeat trained bit-identical
/// fixture losses (training is a pure function of the seed).
pub fn set_up_repeated(seed: u64, warm: &dyn Fn(&Fixture)) -> (Fixture, f64, bool) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture: Option<Fixture> = None;
    let mut deterministic = true;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let next = set_up(seed, warm);
        times.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = &fixture {
            deterministic &= loss_bits(&prev.fit) == loss_bits(&next.fit);
        }
        fixture = Some(next);
    }
    let fixture = fixture.expect("SETUP_REPEATS is at least one");
    (fixture, median(&times), deterministic)
}

/// Every epoch's `(train, val)` loss as raw bits.
pub fn loss_bits(report: &TrainReport) -> Vec<(u32, u32)> {
    report
        .epoch_losses
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}
