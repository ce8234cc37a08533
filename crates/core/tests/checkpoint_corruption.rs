//! Checkpoint corruption matrix: a truncated, bit-flipped or tampered
//! model/training checkpoint must come back as a clean `Err` — never a
//! panic, never a silently-wrong model (DESIGN.md §9).

use ranknet_core::features::extract_sequences;
use ranknet_core::instances::TrainingSet;
use ranknet_core::persist::{load_train_checkpoint, save_train_checkpoint};
use ranknet_core::rank_model::{RankModel, TargetKind};
use ranknet_core::{RankNet, RankNetConfig, RankNetVariant};
use rpf_racesim::{simulate_race, Event, EventConfig};
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ranknet_corruption_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn trained_model() -> RankNet {
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2016),
        3,
    ));
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    RankNet::fit(
        vec![ctx.clone()],
        vec![ctx],
        cfg,
        RankNetVariant::Oracle,
        40,
    )
    .0
}

/// Swap the first digit of the weight payload for a different digit: the
/// JSON stays parseable, but the content no longer matches its checksum.
fn corrupt_one_digit(path: &PathBuf) {
    let text = std::fs::read_to_string(path).expect("read checkpoint");
    let start = text.find("\"data\":[").expect("weight payload") + "\"data\":[".len();
    let rel = text[start..]
        .find(|c: char| c.is_ascii_digit())
        .expect("digit in payload");
    let mut bytes = text.into_bytes();
    let i = start + rel;
    bytes[i] = if bytes[i] == b'9' { b'1' } else { bytes[i] + 1 };
    std::fs::write(path, bytes).expect("write corrupted checkpoint");
}

#[test]
fn truncated_model_file_is_a_clean_error() {
    let model = trained_model();
    let path = temp_path("model_truncated.json");
    model.save(&path).expect("save");
    let len = std::fs::metadata(&path).expect("metadata").len();

    // A torn write: keep only the first half of the bytes.
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open");
    f.set_len(len / 2).expect("truncate");
    drop(f);

    let err = RankNet::load(&path).err().expect("load must fail");
    assert!(!err.is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flipped_model_file_is_a_clean_error() {
    let model = trained_model();
    let path = temp_path("model_bitflip.json");
    model.save(&path).expect("save");
    corrupt_one_digit(&path);

    let err = RankNet::load(&path).err().expect("load must fail");
    assert!(
        err.contains("checksum") || err.contains("expected"),
        "corruption must surface as checksum/parse error, got: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn non_finite_weights_are_rejected() {
    let model = trained_model();
    let mut saved = model.to_saved();
    saved.rank_weights[0].1.as_mut_slice()[0] = f32::NAN;
    // Refresh the checksum so the non-finite check itself is what fires.
    saved.checksum = saved.content_checksum();
    let err = RankNet::from_saved(&saved).err().expect("must fail");
    assert!(err.contains("non-finite"), "got: {err}");
}

fn checkpointed_training() -> (RankModel, TrainingSet, PathBuf) {
    let ctx = extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2016),
        7,
    ));
    let mut cfg = RankNetConfig::tiny();
    cfg.max_epochs = 1;
    let ts = TrainingSet::build(vec![ctx], &cfg, 40);
    let mut model = RankModel::new(cfg, TargetKind::RankOnly, 40);
    let path = temp_path(&format!("train_ckpt_{:x}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    model
        .train_checkpointed(&ts, &ts, &path, 1)
        .expect("checkpointed training");
    (model, ts, path)
}

#[test]
fn corrupted_training_checkpoint_is_a_clean_error() {
    let (_, _, path) = checkpointed_training();
    assert!(path.exists(), "training must have written a checkpoint");

    // Pristine file loads.
    let ckpt = load_train_checkpoint(&path).expect("pristine checkpoint loads");
    assert_eq!(ckpt.next_epoch, 1);

    // Bit-flip: clean checksum error.
    corrupt_one_digit(&path);
    let err = load_train_checkpoint(&path).expect_err("must fail");
    assert!(
        err.contains("checksum") || err.contains("expected"),
        "got: {err}"
    );

    // Truncation: clean parse error.
    save_train_checkpoint(&path, &ckpt).expect("rewrite");
    let len = std::fs::metadata(&path).expect("metadata").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open");
    f.set_len(len / 3).expect("truncate");
    drop(f);
    assert!(load_train_checkpoint(&path).is_err());

    // Missing file: clean IO error.
    std::fs::remove_file(&path).ok();
    assert!(load_train_checkpoint(&path).is_err());
}

#[test]
fn tampered_training_checkpoint_checksum_is_rejected() {
    let (_, _, path) = checkpointed_training();
    let ckpt = load_train_checkpoint(&path).expect("load");

    let mut saved = ranknet_core::persist::SavedTrainCheckpoint::from_checkpoint(&ckpt);
    saved.samples_seen += 1; // mutate content, keep the stale checksum
    let err = saved.into_checkpoint().expect_err("must fail");
    assert!(err.contains("checksum"), "got: {err}");
    std::fs::remove_file(&path).ok();
}

/// A hostile model file nested far past any real artifact must come back
/// as a parse error before the checksum is ever consulted, not overflow
/// the stack.
#[test]
fn deeply_nested_model_file_is_a_clean_error() {
    let path = temp_path("model_deep_nesting.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write");
    let err = RankNet::load(&path).err().expect("load must fail");
    assert!(err.contains("recursion limit"), "got: {err}");
    std::fs::remove_file(&path).ok();
}
