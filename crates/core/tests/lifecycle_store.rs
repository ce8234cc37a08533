//! Versioned model-artifact store (DESIGN.md §14): atomic publication,
//! checksummed round-trips, torn-artifact recovery, quarantine semantics,
//! and monotone version ids that survive quarantines. Everything here runs
//! without the fault-inject feature — torn and corrupt artifacts are built
//! by hand, exactly as a crash or bit rot would leave them.

use ranknet_core::engine::ForecastEngine;
use ranknet_core::features::{extract_sequences, RaceContext};
use ranknet_core::lifecycle::{LifecycleError, ModelStore};
use ranknet_core::ranknet::{RankNet, RankNetVariant};
use ranknet_core::RankNetConfig;
use rpf_racesim::{simulate_race, Event, EventConfig};
use std::path::PathBuf;
use std::sync::OnceLock;

fn race_ctx(seed: u64) -> RaceContext {
    extract_sequences(&simulate_race(
        &EventConfig::for_race(Event::Indy500, 2017),
        seed,
    ))
}

fn fixture() -> &'static (RankNet, RaceContext) {
    static FIX: OnceLock<(RankNet, RaceContext)> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg = RankNetConfig {
            max_epochs: 1,
            ..RankNetConfig::tiny()
        };
        let train = vec![race_ctx(201)];
        let (model, _) = RankNet::fit(train.clone(), train, cfg, RankNetVariant::Oracle, 42);
        (model, race_ctx(202))
    })
}

fn store_root(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rpf_lifecycle_store_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Forecast bits on a fixed request — the round-trip oracle: two models
/// with identical weights must produce identical bits.
fn forecast_bits(model: &RankNet) -> Vec<u32> {
    let (_, ctx) = fixture();
    let engine = ForecastEngine::new(model, 9).with_threads(1);
    let f = engine
        .try_forecast_keyed(0, ctx, 60, 2, 3)
        .expect("valid request");
    f.samples
        .iter()
        .flat_map(|car| car.iter().flat_map(|path| path.iter().map(|v| v.to_bits())))
        .collect()
}

#[test]
fn publish_load_round_trip_is_bit_exact() {
    let (model, _) = fixture();
    let root = store_root("round_trip");
    let store = ModelStore::open(&root).expect("store opens");

    let manifest = store.publish(model, None, "baseline").expect("publish");
    assert_eq!(manifest.version, 1);
    assert_eq!(manifest.parent, None);
    assert!(manifest.bytes > 0);

    let (loaded, loaded_manifest) = store.load(manifest.version).expect("load");
    assert_eq!(loaded_manifest.checksum, manifest.checksum);
    assert_eq!(forecast_bits(&loaded), forecast_bits(model));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn version_ids_are_monotone_and_never_reused_after_quarantine() {
    let (model, _) = fixture();
    let root = store_root("monotone");
    let store = ModelStore::open(&root).expect("store opens");

    let v1 = store.publish(model, None, "one").expect("publish").version;
    let v2 = store
        .publish(model, Some(v1), "two")
        .expect("publish")
        .version;
    assert_eq!((v1, v2), (1, 2));

    store.quarantine(v2, "test").expect("quarantine");
    assert_eq!(store.versions().expect("readable"), vec![v1]);
    // The quarantined id is burnt: the next publish must skip past it.
    let v3 = store
        .publish(model, Some(v1), "three")
        .expect("publish")
        .version;
    assert_eq!(v3, 3, "ids in quarantine must still count");
    assert_eq!(store.latest().expect("readable"), Some(v3));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn current_pointer_follows_promotions_and_clears_on_quarantine() {
    let (model, _) = fixture();
    let root = store_root("current");
    let store = ModelStore::open(&root).expect("store opens");

    assert_eq!(store.current().expect("readable"), None);
    assert!(matches!(
        store.set_current(7),
        Err(LifecycleError::NotFound(7))
    ));

    let v1 = store.publish(model, None, "one").expect("publish").version;
    store.set_current(v1).expect("promote");
    assert_eq!(store.current().expect("readable"), Some(v1));
    let (loaded, m) = store.load_current().expect("load current");
    assert_eq!(m.version, v1);
    assert_eq!(forecast_bits(&loaded), forecast_bits(model));

    // Quarantining the current version must clear the pointer — a store
    // must never point at an artifact that cannot be loaded.
    store.quarantine(v1, "suspect").expect("quarantine");
    assert_eq!(store.current().expect("readable"), None);
    assert!(store.load_current().is_err());
    let _ = std::fs::remove_dir_all(&root);
}

/// A torn artifact — model bytes on disk, no committed manifest, exactly
/// what a crash between the two writes leaves — is swept to quarantine on
/// the next open and can never be loaded or promoted.
#[test]
fn torn_artifact_is_swept_to_quarantine_on_open() {
    let (model, _) = fixture();
    let root = store_root("torn");
    let store = ModelStore::open(&root).expect("store opens");
    let v1 = store.publish(model, None, "good").expect("publish").version;

    // Hand-build the torn directory the crash would leave behind.
    let torn_dir = root.join("versions").join("v000002");
    std::fs::create_dir_all(&torn_dir).expect("mkdir");
    std::fs::write(torn_dir.join("model.json"), b"{\"partial\":").expect("write");

    assert!(matches!(
        store.set_current(2),
        Err(LifecycleError::Torn { version: 2 })
    ));

    let store = ModelStore::open(&root).expect("reopen sweeps");
    assert_eq!(store.versions().expect("readable"), vec![v1]);
    let quarantined = store.quarantined().expect("readable");
    assert!(
        quarantined.iter().any(|q| q.starts_with("v000002-torn")),
        "sweep must quarantine the torn artifact, saw {quarantined:?}"
    );
    assert!(matches!(store.load(2), Err(LifecycleError::NotFound(2))));
    // The good neighbour is untouched.
    assert!(store.load(v1).is_ok());
    let _ = std::fs::remove_dir_all(&root);
}

/// Checksum mismatch (bit rot after commit): load refuses the artifact,
/// quarantines it, and a second load reports NotFound — the corrupt bytes
/// are hit at most once.
#[test]
fn checksum_mismatch_quarantines_the_artifact() {
    let (model, _) = fixture();
    let root = store_root("corrupt");
    let store = ModelStore::open(&root).expect("store opens");
    let v1 = store.publish(model, None, "good").expect("publish").version;

    let artifact = root.join("versions").join("v000001").join("model.json");
    let mut bytes = std::fs::read(&artifact).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&artifact, &bytes).expect("writable");

    match store.load(v1) {
        Err(LifecycleError::Corrupt { version, .. }) => assert_eq!(version, v1),
        Err(other) => panic!("expected corrupt, got {other:?}"),
        Ok(_) => panic!("corrupt artifact must not load"),
    }
    let quarantined = store.quarantined().expect("readable");
    assert!(
        quarantined.iter().any(|q| q.starts_with("v000001-corrupt")),
        "corrupt artifact must be quarantined, saw {quarantined:?}"
    );
    assert!(matches!(store.load(v1), Err(LifecycleError::NotFound(_))));
    let _ = std::fs::remove_dir_all(&root);
}

/// Quarantine name collisions get a numeric suffix instead of clobbering
/// the earlier post-mortem evidence.
#[test]
fn quarantine_keeps_colliding_post_mortems_apart() {
    let root = store_root("collide");
    let store = ModelStore::open(&root).expect("store opens");

    for _ in 0..2 {
        // Hand-build version dir 1 (twice) so the same (version, reason)
        // pair collides in quarantine.
        let dir = root.join("versions").join("v000001");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("model.json"), b"x").expect("write");
        store.quarantine(1, "bad").expect("quarantine");
    }
    let quarantined = store.quarantined().expect("readable");
    assert_eq!(
        quarantined,
        vec!["v000001-bad".to_string(), "v000001-bad-1".to_string()]
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A manifest nested far past any real one is parsed before any checksum
/// check: it must surface as `Corrupt`, not overflow the stack, and `load`
/// quarantines it so the corrupt manifest is parsed at most once.
#[test]
fn deeply_nested_manifest_is_corrupt() {
    let root = store_root("deep_manifest");
    let store = ModelStore::open(&root).expect("store opens");
    let dir = root.join("versions").join("v000001");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("model.json"), b"x").expect("write");
    std::fs::write(dir.join("manifest.json"), "{\"a\":".repeat(200_000)).expect("write");
    for result in [store.manifest(1).err(), store.load(1).err()] {
        match result {
            Some(LifecycleError::Corrupt { version, detail }) => {
                assert_eq!(version, 1);
                assert!(detail.contains("recursion limit"), "got: {detail}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }
    let quarantined = store.quarantined().expect("readable");
    assert!(
        quarantined.iter().any(|q| q.starts_with("v000001-corrupt")),
        "corrupt manifest must be quarantined, saw {quarantined:?}"
    );
    assert!(matches!(store.load(1), Err(LifecycleError::NotFound(1))));
    let _ = std::fs::remove_dir_all(&root);
}
