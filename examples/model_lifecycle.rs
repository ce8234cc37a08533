//! Model-lifecycle walkthrough — the full zero-downtime loop from
//! DESIGN.md §14: train a base model, **publish** it as a versioned
//! artifact, **fine-tune** online on newly arrived laps, **stage** the
//! candidate for shadow evaluation under live traffic, watch it get
//! **promoted** by an atomic hot-swap, then stage a divergent candidate
//! and watch the gate **roll it back** into quarantine. Ends with a
//! crash-recovery vignette: a torn artifact swept aside on store open.
//!
//! ```text
//! cargo run --release --example model_lifecycle
//! ```
//!
//! Nothing here blocks serving: a swap is a pointer replace under the
//! model slot's one short lock, in-flight batches finish on the version
//! they loaded, and a failed candidate leaves the old version serving
//! untouched.

use ranknet::core::engine::ForecastEngine;
use ranknet::core::features::extract_sequences;
use ranknet::core::lifecycle::{ModelSlot, ModelStore, OnlineFineTuner, VersionedModel};
use ranknet::core::ranknet::{RankNet, RankNetVariant};
use ranknet::core::RankNetConfig;
use ranknet::racesim::{simulate_race, Event, EventConfig};
use ranknet::serve::{
    serve_with_lifecycle, LifecycleConfig, LifecycleController, ServeConfig, ServeRequest,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let ctx = |seed| {
        extract_sequences(&simulate_race(
            &EventConfig::for_race(Event::Indy500, 2018),
            seed,
        ))
    };

    // ---- 1. Train the base model and publish it as version 1 -----------
    let cfg = RankNetConfig {
        max_epochs: 2,
        ..RankNetConfig::tiny()
    };
    println!("Training the base RankNet ...");
    let train = vec![ctx(1)];
    let (base, _) = RankNet::fit(train.clone(), train, cfg, RankNetVariant::Oracle, 33);

    let root = std::env::temp_dir().join(format!("rpf_lifecycle_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ModelStore::open(&root).expect("store opens");
    let v1 = store.publish(&base, None, "base model").expect("publish");
    store.set_current(v1.version).expect("promote");
    println!(
        "Published v{} ({} bytes, checksum {:#018x}); CURRENT -> v{}",
        v1.version, v1.bytes, v1.checksum, v1.version
    );

    // ---- 2. Fine-tune online on newly arrived laps ---------------------
    // One epoch per round at 0.3x the base learning rate; the rounds
    // resume one training trajectory, so two rounds equal one 2-epoch run.
    println!("\nFine-tuning on fresh laps ...");
    let mut tuner = OnlineFineTuner::new(&base, Some(v1.version));
    tuner.ingest(vec![ctx(3)], vec![ctx(4)]);
    for round in 0..2 {
        let report = tuner.round().expect("fine-tune round");
        println!(
            "  round {round}: {} epochs run, val loss {:.4}",
            report.epochs_run, report.best_val_loss
        );
    }
    let v2 = tuner
        .publish(&store, "fine-tuned on laps 3-4")
        .expect("publish");
    println!(
        "Published candidate v{} (parent v{})",
        v2.version,
        v2.parent.expect("fine-tune candidates carry a parent")
    );

    // ---- 3. Shadow-evaluate and hot-swap under live traffic ------------
    // Serve from the store's CURRENT version on a versioned slot, so every
    // response carries the version that produced it.
    let (current, current_manifest) = store.load_current().expect("load current");
    let engine = ForecastEngine::with_slot(
        ModelSlot::new(VersionedModel::new(
            current_manifest.version,
            Arc::new(current),
        )),
        42,
    );
    let live_race = ctx(2);
    let serve_cfg = ServeConfig {
        workers: 2,
        max_batch: 8,
        max_delay: Duration::from_micros(300),
        queue_capacity: 256,
    };

    // Shadow every request; decide after 6 comparisons. Two fine-tune
    // rounds on unseen races genuinely move this tiny model (several rank
    // positions of drift), so the promotion gate must budget for the
    // drift the retrain was *supposed* to cause — here up to 15 positions.
    // The zero-tolerance gate below shows the other side.
    let promote_gate = LifecycleController::new(LifecycleConfig {
        shadow_sample_every: 1,
        shadow_min_samples: 6,
        max_divergence_milli: 15_000,
    })
    .with_store(ModelStore::open(&root).expect("store opens"));

    let candidate = Arc::new(store.load(v2.version).expect("load").0);
    println!("\nServing on v1 with candidate v2 in shadow ...");
    let (_, metrics) = serve_with_lifecycle(
        &engine,
        &[&live_race],
        &serve_cfg,
        &promote_gate,
        |client| {
            promote_gate.stage_candidate(&engine, v2.version, Arc::clone(&candidate));
            for i in 0..8u64 {
                let resp = client
                    .forecast(ServeRequest::new(0, 60 + i as usize, 2, 8))
                    .expect("accepted")
                    .expect("valid");
                println!(
                    "  request {i}: served on v{} (batch of {})",
                    resp.forecast.model_version, resp.batch_size
                );
            }
        },
    );
    for d in promote_gate.decisions() {
        println!("decision: {d:?}");
    }
    println!(
        "region: {} swaps, {} shadow comparisons; serving v{}",
        metrics.swaps, metrics.shadow_comparisons, metrics.model_version
    );
    assert_eq!(engine.model_version(), v2.version);

    // ---- 4. A divergent candidate is rolled back and quarantined -------
    println!("\nStaging a deliberately divergent candidate ...");
    let cfg = RankNetConfig {
        max_epochs: 1,
        ..RankNetConfig::tiny()
    };
    let other = vec![ctx(9)];
    let (divergent, _) = RankNet::fit(other.clone(), other, cfg, RankNetVariant::Oracle, 77);
    let v3 = store
        .publish(&divergent, None, "unrelated weights")
        .expect("publish");

    let rollback_gate = LifecycleController::new(LifecycleConfig {
        shadow_sample_every: 1,
        shadow_min_samples: 4,
        max_divergence_milli: 0, // zero tolerance: any drift rolls back
    })
    .with_store(ModelStore::open(&root).expect("store opens"));
    let (_, metrics) = serve_with_lifecycle(
        &engine,
        &[&live_race],
        &serve_cfg,
        &rollback_gate,
        |client| {
            rollback_gate.stage_candidate(&engine, v3.version, Arc::new(divergent.clone()));
            for i in 0..5u64 {
                let _ = client
                    .forecast(ServeRequest::new(0, 70 + i as usize, 2, 8))
                    .expect("accepted")
                    .expect("valid");
            }
        },
    );
    for d in rollback_gate.decisions() {
        println!("decision: {d:?}");
    }
    println!(
        "region: {} rollbacks; still serving v{}",
        metrics.rollbacks, metrics.model_version
    );
    assert_eq!(
        engine.model_version(),
        v2.version,
        "old version keeps serving"
    );

    // ---- 5. Crash recovery: a torn artifact is swept on open -----------
    println!("\nSimulating a crash between artifact write and manifest commit ...");
    let torn_dir = root.join("versions").join("v000099");
    std::fs::create_dir_all(&torn_dir).expect("mkdir");
    std::fs::write(torn_dir.join("model.json"), b"{\"partial\":").expect("write");
    let store = ModelStore::open(&root).expect("reopen sweeps torn artifacts");
    println!(
        "committed versions: {:?}",
        store.versions().expect("readable")
    );
    println!(
        "quarantine:         {:?}",
        store.quarantined().expect("readable")
    );

    let _ = std::fs::remove_dir_all(&root);
}
