//! Gradient-bits pin for the training tape: a 2-layer `StackedLstm` plus a
//! `GaussianHead`, unrolled 5 steps at batch 7, then one backward sweep.
//! Every parameter gradient's `f32::to_bits` is folded into one FNV-1a hash
//! that must equal [`GRAD_BITS`]. Any change to the tape's GEMMs (element
//! order, FMA contraction, the zero skip) or to the backward sweep that
//! moves a single gradient bit fails here.
//!
//! Run with `--nocapture` to print the hash this tree computes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpf_autodiff::Tape;
use rpf_nn::gaussian::gaussian_nll;
use rpf_nn::{Binding, GaussianHead, ParamStore, StackedLstm};
use rpf_tensor::Matrix;

const BATCH: usize = 7;
const STEPS: usize = 5;
const IN_DIM: usize = 6;
const HIDDEN: usize = 40;

/// FNV-1a over every parameter gradient's bits, in registration order.
/// Printed by this test on the tree before the tape GEMMs were register
/// tiled and the backward sweep stopped cloning gradients; both changes
/// must leave it unmoved.
const GRAD_BITS: u64 = 0x416d_78ba_361c_9092;

fn fnv1a(mut hash: u64, word: u32) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Uniform `[-1, 1)` entries with exact `0.0` and `-0.0` planted, so the
/// GEMMs' zero skip runs on both signs.
fn input(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let mut i = 0;
    Matrix::from_fn(rows, cols, |_, _| {
        i += 1;
        match i % 7 {
            0 => 0.0,
            3 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        }
    })
}

#[test]
fn lstm_head_gradient_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(2026);
    let mut store = ParamStore::new();
    let lstm = StackedLstm::new(&mut store, &mut rng, "lstm", IN_DIM, HIDDEN, 2);
    let head = GaussianHead::new(&mut store, &mut rng, "head", HIDDEN);

    let tape = Tape::new();
    let bind = Binding::new(&tape, &store);
    let mut states = lstm.zero_state(&bind, BATCH);
    let mut step_losses = Vec::with_capacity(STEPS);
    let mut top = None;
    for _ in 0..STEPS {
        let x = tape.leaf(input(&mut rng, BATCH, IN_DIM));
        let target = tape.leaf(input(&mut rng, BATCH, 1));
        let (h, next) = lstm.step(&bind, x, &states);
        states = next;
        step_losses.push(gaussian_nll(&bind, head.forward(&bind, h), target, None));
        top = Some(h);
    }
    let loss = step_losses[1..]
        .iter()
        .fold(step_losses[0], |acc, &l| tape.add(acc, l));

    let mut grads = tape.backward(loss);

    // Interior gradients stay readable after the sweep: each step's loss
    // feeds the root through plain adds, so its gradient is exactly 1.
    for &l in &step_losses {
        let g = grads.get(l).expect("step loss gradient");
        assert_eq!(g.get(0, 0).to_bits(), 1.0f32.to_bits());
    }
    let top = top.expect("at least one step");
    assert_eq!(
        grads.get(top).expect("top hidden gradient").shape(),
        (BATCH, HIDDEN)
    );

    let param_grads = bind.collect_grads(&mut grads);
    assert_eq!(
        param_grads.len(),
        store.len(),
        "every parameter has a gradient"
    );
    let hash = param_grads
        .iter()
        .flat_map(|(_, g)| g.as_slice())
        .fold(0xcbf2_9ce4_8422_2325, |h, v| fnv1a(h, v.to_bits()));
    println!("gradient bits hash: {hash:#018x}");
    assert_eq!(hash, GRAD_BITS, "a parameter gradient bit moved");
}
