//! Tape-free batched serving kernels: the LSTM step and the Gaussian head
//! the Monte-Carlo decode runs in lock-step.
//!
//! Training needs the autodiff tape; the batched decode (100 sampled
//! trajectories per car, each stepping the decoder autoregressively) does
//! not, and pays for it on every step: one clone of every weight matrix
//! onto the tape, node bookkeeping for each op, and a clone of every output
//! back off the tape. The `Infer*` structs here are built by a **one-shot
//! conversion** from a trained [`ParamStore`] (weights cloned once, at
//! conversion time). The LSTM steps in place on caller-owned state and a
//! caller-owned [`BatchScratch`], and the head writes into caller-owned
//! outputs, so a warm step allocates nothing.
//!
//! Every other layer (linear, MLP, embedding, the Transformer) serves on the
//! tape's own forward, so training and inference share one code path there.
//!
//! # Tolerance contract
//!
//! [`InferStackedLstm::step`] and [`InferGaussianHead::forward_batch`] run
//! the FMA / fast-activation kernels of `rpf_tensor::batched`, not the
//! tape's. They track the tape within a pinned bound (`DESIGN.md` §13,
//! `crates/nn/tests/infer_parity.rs`) and are bit-deterministic and
//! row-independent for a fixed batch layout: a row's bits do not depend on
//! which rows share its batch, so threads, shards and the wire cannot move
//! them.

use crate::gaussian::{GaussianHead, SIGMA_FLOOR};
use crate::lstm::{LstmCell, StackedLstm};
use crate::params::ParamStore;
use rpf_tensor::batched::{dual_affine_into, lstm_step_fused_batched};
use rpf_tensor::{ops, Matrix};

/// Caller-owned gate buffer for [`InferStackedLstm::step`], allocation-free
/// once warm. `gates` holds only a `4 × 4·hidden` tile: the fused step
/// kernel ([`lstm_step_fused_batched`]) runs GEMM, activation, and state
/// update tile-by-tile, so the batch-sized pre-activation block is never
/// materialised.
#[derive(Clone, Debug)]
pub struct BatchScratch {
    gates: Matrix,
}

impl BatchScratch {
    pub fn new() -> BatchScratch {
        BatchScratch {
            gates: Matrix::zeros(0, 0),
        }
    }
}

impl Default for BatchScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Forward-only LSTM cell. Gate layout `[i f g o]`, matching
/// [`LstmCell`](crate::lstm::LstmCell).
#[derive(Clone, Debug)]
pub struct InferLstmCell {
    pub w_ih: Matrix,
    pub w_hh: Matrix,
    pub bias: Matrix,
    pub input_dim: usize,
    pub hidden_dim: usize,
}

impl InferLstmCell {
    pub fn from_store(store: &ParamStore, cell: &LstmCell) -> InferLstmCell {
        InferLstmCell {
            w_ih: store.value(cell.w_ih).clone(),
            w_hh: store.value(cell.w_hh).clone(),
            bias: store.value(cell.bias).clone(),
            input_dim: cell.input_dim,
            hidden_dim: cell.hidden_dim,
        }
    }

    /// One time step, updating `h` and `c` in place, on the FMA /
    /// fast-activation kernels (`rpf_tensor::batched`). Not bit-identical
    /// to [`LstmCell::step`](crate::lstm::LstmCell::step) — within a few
    /// ulps per element — but row-independent and bit-deterministic for a
    /// fixed batch layout; see the tolerance contract in `DESIGN.md` §13.
    pub fn step(&self, x: &Matrix, h: &mut Matrix, c: &mut Matrix, scratch: &mut BatchScratch) {
        let BatchScratch { gates } = scratch;
        lstm_step_fused_batched(
            x,
            &self.w_ih,
            &self.w_hh,
            &self.bias,
            h,
            c,
            self.hidden_dim,
            gates,
        );
    }
}

/// Forward-only stack of LSTM layers; layer `k` feeds layer `k+1` its new
/// hidden output within the same time step, like
/// [`StackedLstm`](crate::lstm::StackedLstm).
#[derive(Clone, Debug)]
pub struct InferStackedLstm {
    pub layers: Vec<InferLstmCell>,
}

impl InferStackedLstm {
    pub fn from_store(store: &ParamStore, stack: &StackedLstm) -> InferStackedLstm {
        InferStackedLstm {
            layers: stack
                .layers
                .iter()
                .map(|c| InferLstmCell::from_store(store, c))
                .collect(),
        }
    }

    pub fn hidden_dim(&self) -> usize {
        self.layers[0].hidden_dim
    }

    /// Concrete zero `(h, c)` state per layer for a batch.
    pub fn zero_state(&self, batch: usize) -> Vec<(Matrix, Matrix)> {
        self.layers
            .iter()
            .map(|l| {
                (
                    Matrix::zeros(batch, l.hidden_dim),
                    Matrix::zeros(batch, l.hidden_dim),
                )
            })
            .collect()
    }

    /// One time step through the full stack, updating every layer's state in
    /// place; the top layer's hidden output is `states.last().0` afterwards.
    /// Zero per-step allocation once `scratch` is warm.
    pub fn step(&self, x: &Matrix, states: &mut [(Matrix, Matrix)], scratch: &mut BatchScratch) {
        assert_eq!(states.len(), self.layers.len(), "state count mismatch");
        {
            let (h, c) = &mut states[0];
            self.layers[0].step(x, h, c, scratch);
        }
        for l in 1..self.layers.len() {
            let (prev, rest) = states.split_at_mut(l);
            let (h, c) = &mut rest[0];
            self.layers[l].step(&prev[l - 1].0, h, c, scratch);
        }
    }
}

/// Forward-only Gaussian head on the batched kernels: `µ = W_µ h + b_µ`,
/// `σ = softplus(W_σ h + b_σ) + SIGMA_FLOOR`.
#[derive(Clone, Debug)]
pub struct InferGaussianHead {
    pub mu_w: Matrix,
    pub mu_b: Matrix,
    pub sigma_w: Matrix,
    pub sigma_b: Matrix,
}

impl InferGaussianHead {
    pub fn from_store(store: &ParamStore, head: &GaussianHead) -> InferGaussianHead {
        InferGaussianHead {
            mu_w: store.value(head.mu.w).clone(),
            mu_b: store.value(head.mu.b).clone(),
            sigma_w: store.value(head.sigma.w).clone(),
            sigma_b: store.value(head.sigma.b).clone(),
        }
    }

    /// `h` is `(batch, hidden)`; writes `(batch, 1)` `(mu, sigma)`. The
    /// mu/sigma projections run as one fused pass over the block
    /// (`dual_affine_into`) into caller-owned outputs, then softplus and
    /// the sigma floor in place. Within a few ulps of the tape's
    /// [`GaussianHead::forward`]; row-independent, so each row's output is
    /// invariant to the rest of the batch.
    pub fn forward_batch(&self, h: &Matrix, mu_out: &mut Matrix, sigma_out: &mut Matrix) {
        let _scope = rpf_obs::ops::class_scope(rpf_obs::ops::OpClass::GaussianHead);
        dual_affine_into(
            h,
            &self.mu_w,
            self.mu_b.as_slice()[0],
            &self.sigma_w,
            self.sigma_b.as_slice()[0],
            mu_out,
            sigma_out,
        );
        ops::softplus_assign(sigma_out);
        ops::add_scalar_assign(sigma_out, SIGMA_FLOOR);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Binding;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rpf_autodiff::Tape;

    fn ramp(rows: usize, cols: usize, scale_by: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 - 5.0) * scale_by)
    }

    #[test]
    fn stacked_lstm_steps_track_tape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(31);
        let stack = StackedLstm::new(&mut store, &mut rng, "enc", 5, 4, 2);

        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let mut tape_states = stack.zero_state(&bind, 3);

        let inf = InferStackedLstm::from_store(&store, &stack);
        let mut states = inf.zero_state(3);
        let mut scratch = BatchScratch::new();

        // FMA + fast activations: within a few ulps per step, not bitwise.
        let close = |a: &Matrix, b: &Matrix| {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert!((x - y).abs() <= 1e-5, "{x} vs {y}");
            }
        };
        for step in 0..4 {
            let x = ramp(3, 5, 0.1 * (step as f32 + 1.0));
            let (_, new_states) = stack.step(&bind, tape.leaf(x.clone()), &tape_states);
            tape_states = new_states;
            inf.step(&x, &mut states, &mut scratch);
            for (l, s) in tape_states.iter().enumerate() {
                close(&states[l].0, &tape.value(s.h));
                close(&states[l].1, &tape.value(s.c));
            }
        }
    }
}
