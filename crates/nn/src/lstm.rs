//! LSTM cell and the 2-layer stack of the paper's RankModel.
//!
//! The paper (§IV-J) identifies the cell's kernels — MatMul, Mul, Add,
//! Sigmoid, Tanh — and profiles them; this implementation produces exactly
//! those kernels on the tape, so the `rpf_obs::ops` profile of a training
//! run records the same operator mix.
//!
//! Serving steps the same layers with `step_batched`: no tape, the weights
//! read in place from the [`ParamStore`], and the FMA / fast-activation
//! kernel of `rpf_tensor::batched` updating caller-owned state. That path
//! tracks the tape within a pinned bound (`DESIGN.md` §13,
//! `crates/nn/tests/infer_parity.rs`) and is bit-deterministic and
//! row-independent for a fixed batch layout: a row's bits do not depend on
//! which rows share its batch, so threads, shards and the wire cannot move
//! them.

use crate::init::xavier_uniform;
use crate::params::{Binding, ParamId, ParamStore};
use rand::rngs::StdRng;
use rpf_autodiff::Var;
use rpf_tensor::batched::lstm_step_fused_batched;
use rpf_tensor::Matrix;

/// Hidden/cell state pair for one LSTM layer: both `(batch, hidden)`.
#[derive(Clone, Copy, Debug)]
pub struct LstmState {
    pub h: Var,
    pub c: Var,
}

/// One LSTM cell. Gate layout in the fused weight matrices is `[i f g o]`.
#[derive(Clone, Copy, Debug)]
pub struct LstmCell {
    /// Input-to-hidden weights, `(input, 4*hidden)`.
    pub w_ih: ParamId,
    /// Hidden-to-hidden weights, `(hidden, 4*hidden)`.
    pub w_hh: ParamId,
    /// Gate bias, `(1, 4*hidden)`.
    pub bias: ParamId,
    pub input_dim: usize,
    pub hidden_dim: usize,
}

impl LstmCell {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
    ) -> LstmCell {
        let w_ih = store.register(
            format!("{name}.w_ih"),
            xavier_uniform(rng, input_dim, 4 * hidden_dim),
        );
        let w_hh = store.register(
            format!("{name}.w_hh"),
            xavier_uniform(rng, hidden_dim, 4 * hidden_dim),
        );
        // Forget-gate bias starts at 1.0 — the standard trick to let
        // gradients flow through long sequences from the first epochs.
        let mut b = Matrix::zeros(1, 4 * hidden_dim);
        for j in hidden_dim..2 * hidden_dim {
            b.set(0, j, 1.0);
        }
        let bias = store.register(format!("{name}.bias"), b);
        LstmCell {
            w_ih,
            w_hh,
            bias,
            input_dim,
            hidden_dim,
        }
    }

    /// Zero initial state for a batch of `batch` sequences.
    pub fn zero_state(&self, bind: &Binding<'_>, batch: usize) -> LstmState {
        let t = bind.tape();
        LstmState {
            h: t.leaf(Matrix::zeros(batch, self.hidden_dim)),
            c: t.leaf(Matrix::zeros(batch, self.hidden_dim)),
        }
    }

    /// One time step: `x` is `(batch, input_dim)`.
    pub fn step(&self, bind: &Binding<'_>, x: Var, state: LstmState) -> LstmState {
        let t = bind.tape();
        let h = self.hidden_dim;
        // Fused gate pre-activations: x W_ih + h W_hh + b  -> (batch, 4h)
        let gx = t.matmul(x, bind.var(self.w_ih));
        let gh = t.matmul(state.h, bind.var(self.w_hh));
        let gates = t.add_row(t.add(gx, gh), bind.var(self.bias));

        let i = t.sigmoid(t.slice_cols(gates, 0, h));
        let f = t.sigmoid(t.slice_cols(gates, h, 2 * h));
        let g = t.tanh(t.slice_cols(gates, 2 * h, 3 * h));
        let o = t.sigmoid(t.slice_cols(gates, 3 * h, 4 * h));

        let c = t.add(t.mul(f, state.c), t.mul(i, g));
        let h_out = t.mul(o, t.tanh(c));
        LstmState { h: h_out, c }
    }

    /// One tape-free time step, updating `h` and `c` in place on the FMA /
    /// fast-activation kernel ([`lstm_step_fused_batched`]), with the
    /// weights read straight from `store`. Not bit-identical to
    /// [`LstmCell::step`] — within a few ulps per element — but
    /// row-independent and bit-deterministic for a fixed batch layout.
    /// `gates` is a caller-owned `4 × 4·hidden` tile, so a warm step
    /// allocates nothing.
    pub fn step_batched(
        &self,
        store: &ParamStore,
        x: &Matrix,
        h: &mut Matrix,
        c: &mut Matrix,
        gates: &mut Matrix,
    ) {
        lstm_step_fused_batched(
            x,
            store.value(self.w_ih),
            store.value(self.w_hh),
            store.value(self.bias),
            h,
            c,
            self.hidden_dim,
            gates,
        );
    }
}

/// A stack of LSTM layers (the paper uses two, 40 units each — Table IV).
///
/// Layer `k`'s input is layer `k-1`'s hidden output at the same time step.
#[derive(Clone, Debug)]
pub struct StackedLstm {
    pub layers: Vec<LstmCell>,
}

impl StackedLstm {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        num_layers: usize,
    ) -> StackedLstm {
        assert!(num_layers >= 1);
        let mut layers = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let in_dim = if l == 0 { input_dim } else { hidden_dim };
            layers.push(LstmCell::new(
                store,
                rng,
                &format!("{name}.l{l}"),
                in_dim,
                hidden_dim,
            ));
        }
        StackedLstm { layers }
    }

    pub fn hidden_dim(&self) -> usize {
        self.layers[0].hidden_dim
    }

    pub fn zero_state(&self, bind: &Binding<'_>, batch: usize) -> Vec<LstmState> {
        self.layers
            .iter()
            .map(|l| l.zero_state(bind, batch))
            .collect()
    }

    /// One time step through the full stack; returns the top layer's hidden
    /// output and the new per-layer states.
    pub fn step(&self, bind: &Binding<'_>, x: Var, states: &[LstmState]) -> (Var, Vec<LstmState>) {
        assert_eq!(states.len(), self.layers.len(), "state count mismatch");
        let mut new_states = Vec::with_capacity(self.layers.len());
        let mut input = x;
        for (layer, state) in self.layers.iter().zip(states) {
            let s = layer.step(bind, input, *state);
            input = s.h;
            new_states.push(s);
        }
        (input, new_states)
    }

    /// One tape-free time step through the full stack
    /// ([`LstmCell::step_batched`] per layer), updating every layer's
    /// `(h, c)` in place; the top layer's hidden output is `states.last().0`
    /// afterwards.
    pub fn step_batched(
        &self,
        store: &ParamStore,
        x: &Matrix,
        states: &mut [(Matrix, Matrix)],
        gates: &mut Matrix,
    ) {
        assert_eq!(states.len(), self.layers.len(), "state count mismatch");
        {
            let (h, c) = &mut states[0];
            self.layers[0].step_batched(store, x, h, c, gates);
        }
        for l in 1..self.layers.len() {
            let (prev, rest) = states.split_at_mut(l);
            let (h, c) = &mut rest[0];
            self.layers[l].step_batched(store, &prev[l - 1].0, h, c, gates);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rpf_autodiff::{finite_difference_grad, Tape};
    use rpf_tensor::Matrix;

    fn setup(input: usize, hidden: usize) -> (ParamStore, LstmCell) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(8);
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", input, hidden);
        (store, cell)
    }

    #[test]
    fn step_shapes() {
        let (store, cell) = setup(5, 7);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let x = tape.leaf(Matrix::ones(3, 5));
        let s0 = cell.zero_state(&bind, 3);
        let s1 = cell.step(&bind, x, s0);
        assert_eq!(tape.shape(s1.h), (3, 7));
        assert_eq!(tape.shape(s1.c), (3, 7));
    }

    #[test]
    fn zero_input_zero_state_gives_bounded_output() {
        let (store, cell) = setup(4, 4);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let x = tape.leaf(Matrix::zeros(2, 4));
        let s0 = cell.zero_state(&bind, 2);
        let s1 = cell.step(&bind, x, s0);
        let h = tape.value(s1.h);
        assert!(h.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let (store, cell) = setup(3, 4);
        let b = store.value(cell.bias);
        for j in 0..4 {
            assert_eq!(b.get(0, j), 0.0, "input gate bias");
            assert_eq!(b.get(0, 4 + j), 1.0, "forget gate bias");
            assert_eq!(b.get(0, 8 + j), 0.0, "cell gate bias");
            assert_eq!(b.get(0, 12 + j), 0.0, "output gate bias");
        }
    }

    #[test]
    fn multi_step_gradients_flow_to_all_weights() {
        let (mut store, cell) = setup(3, 4);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let mut state = cell.zero_state(&bind, 2);
        for step in 0..5 {
            let x = tape.leaf(Matrix::full(2, 3, 0.1 * (step as f32 + 1.0)));
            state = cell.step(&bind, x, state);
        }
        let loss = tape.sum(tape.square(state.h));
        let __g = bind.into_grads(loss);
        store.apply_grads(__g);
        assert!(store.grad(cell.w_ih).frob_norm() > 0.0);
        assert!(store.grad(cell.w_hh).frob_norm() > 0.0);
        assert!(store.grad(cell.bias).frob_norm() > 0.0);
    }

    #[test]
    fn cell_gradient_matches_finite_differences() {
        // Full BPTT through 3 steps, checked against numeric differentiation
        // of the input-to-hidden weights.
        let (store, cell) = setup(2, 3);
        let w0 = store.value(cell.w_ih).clone();
        let w_index = cell.w_ih;

        let forward_with = |w: &Matrix| -> f32 {
            let tape = Tape::new();
            // Clone the store with the perturbed weight.
            let mut store2 = ParamStore::new();
            let mut ids = Vec::new();
            for id in store.iter_ids() {
                let v = if id == w_index {
                    w.clone()
                } else {
                    store.value(id).clone()
                };
                ids.push(store2.register(store.name(id).to_string(), v));
            }
            let bind = Binding::new(&tape, &store2);
            let mut state = cell.zero_state(&bind, 2);
            for step in 0..3 {
                let x = tape.leaf(Matrix::full(2, 2, 0.2 * (step as f32 + 1.0)));
                state = cell.step(&bind, x, state);
            }
            let loss = tape.sum(tape.square(state.h));
            tape.scalar(loss)
        };

        // Analytic gradient.
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let mut state = cell.zero_state(&bind, 2);
        for step in 0..3 {
            let x = tape.leaf(Matrix::full(2, 2, 0.2 * (step as f32 + 1.0)));
            state = cell.step(&bind, x, state);
        }
        let loss = tape.sum(tape.square(state.h));
        let mut grads = tape.backward(loss);
        let analytic = bind
            .collect_grads(&mut grads)
            .into_iter()
            .find(|(id, _)| *id == w_index)
            .unwrap()
            .1;

        let numeric = finite_difference_grad(&w0, 1e-2, |w| forward_with(w));
        let mut max_err = 0.0f32;
        for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
            let denom = a.abs().max(n.abs()).max(1e-2);
            max_err = max_err.max((a - n).abs() / denom);
        }
        assert!(max_err < 5e-2, "BPTT gradient error {max_err}");
    }

    #[test]
    fn stacked_lstm_wires_layers() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(9);
        let stack = StackedLstm::new(&mut store, &mut rng, "enc", 6, 4, 2);
        assert_eq!(stack.layers.len(), 2);
        assert_eq!(stack.layers[0].input_dim, 6);
        assert_eq!(stack.layers[1].input_dim, 4);

        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let mut states = stack.zero_state(&bind, 3);
        let x = tape.leaf(Matrix::ones(3, 6));
        let (out, new_states) = stack.step(&bind, x, &states);
        assert_eq!(tape.shape(out), (3, 4));
        assert_eq!(new_states.len(), 2);
        states = new_states;
        let x2 = tape.leaf(Matrix::ones(3, 6));
        let (out2, _) = stack.step(&bind, x2, &states);
        assert_eq!(tape.shape(out2), (3, 4));
    }

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

        let mut states: Vec<(Matrix, Matrix)> = (0..2)
            .map(|_| (Matrix::zeros(3, 4), Matrix::zeros(3, 4)))
            .collect();
        let mut gates = Matrix::zeros(0, 0);

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
            stack.step_batched(&store, &x, &mut states, &mut gates);
            for (l, s) in tape_states.iter().enumerate() {
                close(&states[l].0, &tape.value(s.h));
                close(&states[l].1, &tape.value(s.c));
            }
        }
    }
}
