//! Kill–resume bit-identity at the model level: training a RankModel with
//! on-disk checkpoints, "killing" it mid-run and resuming in a fresh model
//! must end with weights bit-identical to an uninterrupted run. The online
//! fine-tuner's rounds are held to the same contract.

use ranknet_core::features::extract_sequences;
use ranknet_core::instances::TrainingSet;
use ranknet_core::lifecycle::{LifecycleError, OnlineFineTuner};
use ranknet_core::rank_model::{RankModel, TargetKind};
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::RankNetConfig;
use rpf_racesim::{simulate_race, Event, EventConfig};
use rpf_tensor::Matrix;

fn bits(snapshot: &[Matrix]) -> Vec<Vec<u32>> {
    snapshot
        .iter()
        .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn killed_and_resumed_training_is_bit_identical() {
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2016),
        5,
    ));
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 4;
    let ts = TrainingSet::build(vec![ctx.clone()], &cfg, 24);
    let val = TrainingSet::build(vec![ctx], &cfg, 48);

    let dir = std::env::temp_dir().join("ranknet_resume_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("ckpt_{:x}.json", std::process::id()));
    std::fs::remove_file(&path).ok();

    // Reference: 4 epochs, no interruption, no checkpoint file involved.
    let mut reference = RankModel::new(cfg.clone(), TargetKind::RankOnly, 40);
    reference
        .train_resumable(&ts, &val, None, None)
        .expect("reference run");

    // "Killed" run: same model, but only 2 epochs before the process dies,
    // checkpointing every epoch.
    let mut short_cfg = cfg.clone();
    short_cfg.max_epochs = 2;
    let mut killed = RankModel::new(short_cfg, TargetKind::RankOnly, 40);
    killed
        .train_checkpointed(&ts, &val, &path, 1)
        .expect("pre-kill run");
    assert!(path.exists(), "checkpoint must be on disk after the kill");

    // Resume: a brand-new process state (fresh model, fresh optimizer)
    // picks the checkpoint up and finishes the remaining epochs.
    let mut resumed = RankModel::new(cfg, TargetKind::RankOnly, 40);
    let report = resumed
        .train_checkpointed(&ts, &val, &path, 1)
        .expect("resumed run");
    assert_eq!(report.epochs_run, 4, "resume must complete all epochs");

    assert_eq!(
        bits(&reference.store.snapshot()),
        bits(&resumed.store.snapshot()),
        "resumed weights must be bit-identical to the uninterrupted run"
    );
    std::fs::remove_file(&path).ok();
}

/// The online tuner's rounds resume one training trajectory: three
/// one-epoch `round()`s land on weights bit-identical to one 3-epoch
/// `train_resumable` run at the tuner's learning-rate scale (0.3) and
/// window strides (1 for training, 4 for validation).
#[test]
fn fine_tune_rounds_equal_one_long_run() {
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2016),
        5,
    ));
    let cfg = RankNetConfig::tiny();
    let base = RankNet {
        variant: RankNetVariant::Oracle,
        cfg: cfg.clone(),
        rank_model: RankModel::new(cfg.clone(), TargetKind::RankOnly, 40),
        pit_model: None,
    };

    let mut tuner = OnlineFineTuner::new(&base, None);
    assert!(
        matches!(tuner.round(), Err(LifecycleError::Invalid(_))),
        "round() before ingest() must fail"
    );
    tuner.ingest(vec![ctx.clone()], vec![ctx.clone()]);
    for _ in 0..3 {
        tuner.round().expect("fine-tune round");
    }

    let mut reference = base.rank_model.clone();
    reference.cfg.learning_rate *= 0.3;
    reference.cfg.max_epochs = 3;
    let ts = TrainingSet::build(vec![ctx.clone()], &cfg, 1);
    let val = TrainingSet::build(vec![ctx], &cfg, 4);
    reference
        .train_resumable(&ts, &val, None, None)
        .expect("reference run");

    assert_eq!(
        bits(&tuner.candidate().rank_model.store.snapshot()),
        bits(&reference.store.snapshot()),
        "three rounds must be bit-identical to one 3-epoch run"
    );
}
