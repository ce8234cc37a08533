//! Property-based parity suite for the batched serving kernels: for
//! arbitrary weight seeds (→ arbitrary `ParamStore` contents) and arbitrary
//! inputs, the LSTM step and the batched Gaussian head are pinned against
//! the tape forward of the layer they serve for. Both run FMA kernels, so
//! the contract is a pinned tolerance, plus bit-determinism and row
//! independence in their own right.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpf_autodiff::Tape;
use rpf_nn::{
    BatchScratch, Binding, GaussianHead, InferGaussianHead, InferStackedLstm, ParamStore,
    StackedLstm,
};
use rpf_tensor::Matrix;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn assert_bits(got: &Matrix, want: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
    }
    Ok(())
}

/// Pinned batched-vs-tape bound. Headroom decomposition: the fast
/// tanh/sigmoid rationals are within 2e-6 of libm, FMA contraction differs
/// from separate mul/add by a few ulps per dot product, and the LSTM state
/// feedback compounds those over `STEPS` steps — comfortably under 1e-4
/// for unit-scale activations. Tightening kernels may never loosen this.
const BATCH_TOL: f32 = 1e-4;

/// Recurrent steps run in the batched parity tests (feedback compounds any
/// first-step divergence, so multi-step agreement pins the recurrence).
const STEPS: usize = 3;

const IN_DIM: usize = 5;
const HID_DIM: usize = 4;

fn assert_close(got: &Matrix, want: &Matrix, tol: f32) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
        prop_assert!((x - y).abs() <= tol, "{} vs {} (tol {})", x, y, tol);
    }
    Ok(())
}

/// The ISSUE-pinned batch sizes plus `STEPS` input matrices for each.
fn batch_inputs() -> impl Strategy<Value = (usize, Vec<Matrix>)> {
    prop::sample::select(vec![1usize, 2, 7, 100])
        .prop_flat_map(|b| (Just(b), prop::collection::vec(matrix(b, IN_DIM), STEPS)))
}

fn head_inputs() -> impl Strategy<Value = Matrix> {
    prop::sample::select(vec![1usize, 2, 7, 100]).prop_flat_map(|b| matrix(b, 7))
}

fn lstm_fixture(seed: u64) -> (ParamStore, StackedLstm) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let stack = StackedLstm::new(&mut store, &mut rng, "s", IN_DIM, HID_DIM, 2);
    (store, stack)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn step_tracks_tape_reference(
        (b, xs) in batch_inputs(),
        seed in 0u64..1000,
    ) {
        let (store, stack) = lstm_fixture(seed);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let mut tape_states = stack.zero_state(&bind, b);
        let inf = InferStackedLstm::from_store(&store, &stack);
        let mut states = inf.zero_state(b);
        let mut scratch = BatchScratch::new();
        for x in &xs {
            let (_, new_states) = stack.step(&bind, tape.leaf(x.clone()), &tape_states);
            tape_states = new_states;
            inf.step(x, &mut states, &mut scratch);
        }
        for (l, s) in tape_states.iter().enumerate() {
            assert_close(&states[l].0, &tape.value(s.h), BATCH_TOL)?;
            assert_close(&states[l].1, &tape.value(s.c), BATCH_TOL)?;
        }
    }

    #[test]
    fn scratch_reuse_across_shapes_is_clean(
        a in matrix(2, IN_DIM),
        b in matrix(7, IN_DIM),
        seed in 0u64..1000,
    ) {
        // A scratch buffer warmed at one batch size must not leak stale
        // values into a differently-sized call.
        let (store, stack) = lstm_fixture(seed);
        let inf = InferStackedLstm::from_store(&store, &stack);
        let mut scratch = BatchScratch::new();
        inf.step(&a, &mut inf.zero_state(2), &mut scratch);
        let mut warm = inf.zero_state(7);
        inf.step(&b, &mut warm, &mut scratch);
        let mut fresh = inf.zero_state(7);
        inf.step(&b, &mut fresh, &mut BatchScratch::new());
        for l in 0..fresh.len() {
            assert_bits(&warm[l].0, &fresh[l].0)?;
            assert_bits(&warm[l].1, &fresh[l].1)?;
        }
    }

    #[test]
    fn forward_batch_tracks_reference(h in head_inputs(), seed in 0u64..1000) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let head = GaussianHead::new(&mut store, &mut rng, "g", 7);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let p = head.forward(&bind, tape.leaf(h.clone()));
        let (mu, sigma) = (tape.value(p.mu), tape.value(p.sigma));
        let inf = InferGaussianHead::from_store(&store, &head);
        let (mut mu_b, mut sigma_b) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        inf.forward_batch(&h, &mut mu_b, &mut sigma_b);
        assert_close(&mu_b, &mu, BATCH_TOL)?;
        assert_close(&sigma_b, &sigma, BATCH_TOL)?;
        // Sigma keeps the head's positivity floor through the batched path.
        for &s in sigma_b.as_slice() {
            prop_assert!(s > 0.0);
        }
    }

    #[test]
    fn step_rows_are_layout_independent(
        (b, xs) in batch_inputs(),
        seed in 0u64..1000,
    ) {
        // The serving fold depends on this: a row's bits may not change
        // when it is decoded alone vs inside a larger lock-step batch.
        let (store, stack) = lstm_fixture(seed);
        let inf = InferStackedLstm::from_store(&store, &stack);
        let mut full = inf.zero_state(b);
        let mut scratch = BatchScratch::new();
        for x in &xs {
            inf.step(x, &mut full, &mut scratch);
        }
        for r in 0..b {
            let mut solo = inf.zero_state(1);
            let mut solo_scratch = BatchScratch::new();
            for x in &xs {
                let xr = Matrix::from_vec(1, IN_DIM, x.row(r).to_vec());
                inf.step(&xr, &mut solo, &mut solo_scratch);
            }
            for l in 0..full.len() {
                for (got, want) in solo[l].0.row(0).iter().zip(full[l].0.row(r)) {
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
                for (got, want) in solo[l].1.row(0).iter().zip(full[l].1.row(r)) {
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
            }
        }
    }
}

/// Repeated batched runs at a fixed layout are bit-identical — the batched
/// contract's own determinism half (the other half, tolerance against the
/// tape, is the proptests above).
#[test]
fn batched_runs_are_bit_deterministic_for_fixed_layout() {
    let (store, stack) = lstm_fixture(7);
    let inf = InferStackedLstm::from_store(&store, &stack);
    let mut head_store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(11);
    let head = GaussianHead::new(&mut head_store, &mut rng, "g", HID_DIM);
    let inf_head = InferGaussianHead::from_store(&head_store, &head);

    let xs: Vec<Matrix> = (0..STEPS)
        .map(|s| {
            Matrix::from_vec(
                100,
                IN_DIM,
                (0..100 * IN_DIM)
                    .map(|i| ((i * 37 + s * 101) % 97) as f32 / 48.5 - 1.0)
                    .collect(),
            )
        })
        .collect();

    let run = || {
        let mut states = inf.zero_state(100);
        let mut scratch = BatchScratch::new();
        for x in &xs {
            inf.step(x, &mut states, &mut scratch);
        }
        let (mut mu, mut sigma) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        inf_head.forward_batch(&states[1].0, &mut mu, &mut sigma);
        (states, mu, sigma)
    };
    let (s1, mu1, sig1) = run();
    let (s2, mu2, sig2) = run();
    for l in 0..s1.len() {
        assert_eq!(
            s1[l]
                .0
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            s2[l]
                .0
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            s1[l]
                .1
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            s2[l]
                .1
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        mu1.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        mu2.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        sig1.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        sig2.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
    );
}
