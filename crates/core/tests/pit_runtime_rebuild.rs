//! Regression: `PitModel` predicts on the tape over its own `ParamStore`,
//! with no serving cache beside it. Any weight mutation after a predict —
//! an `import` of other weights, a clone that later imports — must show in
//! the next predict, and a clone must not share state with its source.
//! These tests pin both, so a cache added later cannot serve stale weights.

use ranknet_core::PitModel;

/// Two differently-seeded models disagree; after importing B's weights
/// into an A that has already predicted, A must predict exactly like B.
#[test]
fn import_after_predict_rebuilds_the_serving_runtime() {
    let mut a = PitModel::new(3, 40.0);
    let b = PitModel::new(4, 40.0);

    let a_before = a.predict(2.0, 10.0); // predict before mutating
    let b_fresh = b.predict(2.0, 10.0);
    assert_ne!(
        a_before, b_fresh,
        "differently-seeded models must disagree for this test to bite"
    );

    a.import(&b.export()).expect("matching architectures");
    assert_eq!(
        a.predict(2.0, 10.0),
        b_fresh,
        "predict after import must use the imported weights, not the cached runtime"
    );
}

/// A clone taken after the original has predicted must not share its
/// weights: importing into the clone changes only the clone, and the
/// original keeps its own weights.
#[test]
fn clone_does_not_share_the_cached_runtime() {
    let a = PitModel::new(5, 45.0);
    let b = PitModel::new(6, 45.0);

    let a_pred = a.predict(1.0, 8.0); // predict before cloning
    let mut c = a.clone();
    assert_eq!(c.predict(1.0, 8.0), a_pred, "a clone starts bit-identical");

    c.import(&b.export()).expect("matching architectures");
    assert_eq!(
        c.predict(1.0, 8.0),
        b.predict(1.0, 8.0),
        "the clone must serve the imported weights"
    );
    assert_eq!(
        a.predict(1.0, 8.0),
        a_pred,
        "importing into the clone must not touch the original"
    );
}

/// Export taken *after* an import (with a predict in between) carries
/// the imported weights: a restored model predicts bit-identically to the
/// mutated source — the path every artifact publish exercises.
#[test]
fn export_after_import_round_trips_the_new_weights() {
    let mut a = PitModel::new(7, 40.0);
    let b = PitModel::new(8, 40.0);
    let _ = a.predict(3.0, 12.0); // predict before mutating
    a.import(&b.export()).expect("matching architectures");

    let mut restored = PitModel::new(7, 40.0);
    restored
        .import(&a.export())
        .expect("matching architectures");
    assert_eq!(restored.predict(3.0, 12.0), a.predict(3.0, 12.0));
    assert_eq!(restored.predict(3.0, 12.0), b.predict(3.0, 12.0));
}
