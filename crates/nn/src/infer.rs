//! Tape-free inference runtime: lean forward-only mirrors of the layers.
//!
//! Training needs the autodiff tape; serving does not. The Monte-Carlo
//! forecast path (100 sampled trajectories, each stepping the decoder
//! autoregressively) is pure forward computation, yet running it through
//! [`Binding`](crate::params::Binding)/`Tape` pays, per step: one clone of
//! every weight matrix onto the tape, node bookkeeping for each op, and a
//! clone of every output back off the tape. The `Infer*` structs here are
//! built by a **one-shot conversion** from a trained [`ParamStore`]
//! (weights cloned once, at conversion time) and then step on caller-owned
//! scratch buffers — zero per-step allocation after the first step warms
//! the buffers up.
//!
//! # Parity guarantee
//!
//! Every forward below computes each output element with the *same
//! per-element arithmetic order* as the corresponding tape forward, even
//! where the serving kernels tile or fuse differently: `matmul_into`
//! accumulates over ascending `k` with separate mul/add (Rust never
//! contracts them into FMAs) and preserves the zero-skip, the fused
//! gate/state kernels apply the same scalar chain per element as the
//! unfused tape ops, and both backends share the single `sigmoid`/`tanh`
//! definition in `rpf_tensor::scalar`. Only the order *across* elements
//! changes, which no element observes — so the results are
//! **bit-identical** to the tape path, pinned by
//! `crates/nn/tests/infer_parity.rs` and the engine-level determinism
//! suite in `crates/core`.

use crate::attention::{causal_mask, DecoderLayer, EncoderLayer, LayerNorm, MultiHeadAttention};
use crate::embedding::Embedding;
use crate::gaussian::{GaussianHead, SIGMA_FLOOR};
use crate::linear::Linear;
use crate::lstm::{LstmCell, StackedLstm};
use crate::mlp::{Activation, Mlp};
use crate::params::ParamStore;
use rpf_tensor::batched::{dual_affine_into, lstm_step_fused_batched};
use rpf_tensor::matmul::{matmul, matmul_into};
use rpf_tensor::{ops, Matrix};

/// Forward-only dense layer: concrete `W` and `b`, no tape.
#[derive(Clone, Debug)]
pub struct InferLinear {
    pub w: Matrix,
    pub b: Matrix,
}

impl InferLinear {
    /// One-shot conversion from a trained layer (clones the weights once).
    pub fn from_store(store: &ParamStore, lin: &Linear) -> InferLinear {
        InferLinear {
            w: store.value(lin.w).clone(),
            b: store.value(lin.b).clone(),
        }
    }

    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// `out = x W + b` into a reusable buffer (allocation-free once warm).
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        matmul_into(x, &self.w, out);
        ops::add_row_assign(out, &self.b);
    }

    /// Allocating forward for callers without a scratch buffer.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        ops::add_row(&matmul(x, &self.w), &self.b)
    }
}

/// Reusable pre-activation buffers shared by every LSTM layer in a stack.
#[derive(Clone, Debug)]
pub struct LstmScratch {
    gates: Matrix,
    gh: Matrix,
}

impl LstmScratch {
    pub fn new() -> LstmScratch {
        LstmScratch {
            gates: Matrix::zeros(0, 0),
            gh: Matrix::zeros(0, 0),
        }
    }
}

impl Default for LstmScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Pre-activation buffer for the batched lock-step decode path
/// ([`InferStackedLstm::step_batch`]). Caller-owned like [`LstmScratch`]
/// and allocation-free once warm; kept as a distinct type so a call site
/// can hold both backends' scratch without the buffers thrashing each
/// other's shapes. `gates` holds only a `4 × 4·hidden` tile: the fused
/// step kernel ([`lstm_step_fused_batched`]) runs GEMM, activation, and
/// state update tile-by-tile, so the batch-sized pre-activation block is
/// never materialised.
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

    /// One time step, updating `h` and `c` in place. Per element the math is
    /// the tape's op sequence exactly — matmul, matmul, add, broadcast-add,
    /// gate activations, state update — so the new state is bit-identical to
    /// [`LstmCell::step`](crate::lstm::LstmCell::step); the adds, bias
    /// broadcast, and activations are collapsed into one buffer sweep
    /// ([`ops::lstm_gates_fused`]), which elementwise ops permit without
    /// changing any value.
    pub fn step(&self, x: &Matrix, h: &mut Matrix, c: &mut Matrix, scratch: &mut LstmScratch) {
        let LstmScratch { gates, gh } = scratch;
        matmul_into(x, &self.w_ih, gates);
        matmul_into(h, &self.w_hh, gh);
        ops::lstm_gates_fused(gates, gh, &self.bias, self.hidden_dim);
        ops::lstm_state_update(gates, c, h, self.hidden_dim);
    }

    /// Batched lock-step variant of [`InferLstmCell::step`] on the FMA /
    /// fast-activation kernels (`rpf_tensor::batched`). Not bit-identical
    /// to the tape — within a few ulps per element — but row-independent
    /// and bit-deterministic for a fixed batch layout; see the batched
    /// decode tolerance contract in `DESIGN.md` §13.
    pub fn step_batch(
        &self,
        x: &Matrix,
        h: &mut Matrix,
        c: &mut Matrix,
        scratch: &mut BatchScratch,
    ) {
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
    pub fn step(&self, x: &Matrix, states: &mut [(Matrix, Matrix)], scratch: &mut LstmScratch) {
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

    /// Batched lock-step mirror of [`InferStackedLstm::step`] on a
    /// caller-owned [`BatchScratch`] — zero per-step allocation once the
    /// scratch is warm. Same stacking semantics; kernels are the
    /// tolerance-pinned `rpf_tensor::batched` set.
    pub fn step_batch(
        &self,
        x: &Matrix,
        states: &mut [(Matrix, Matrix)],
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(states.len(), self.layers.len(), "state count mismatch");
        {
            let (h, c) = &mut states[0];
            self.layers[0].step_batch(x, h, c, scratch);
        }
        for l in 1..self.layers.len() {
            let (prev, rest) = states.split_at_mut(l);
            let (h, c) = &mut rest[0];
            self.layers[l].step_batch(&prev[l - 1].0, h, c, scratch);
        }
    }
}

/// Ping-pong buffers for [`InferMlp::forward_into`].
#[derive(Clone, Debug)]
pub struct MlpScratch {
    a: Matrix,
    b: Matrix,
}

impl MlpScratch {
    pub fn new() -> MlpScratch {
        MlpScratch {
            a: Matrix::zeros(0, 0),
            b: Matrix::zeros(0, 0),
        }
    }
}

impl Default for MlpScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Forward-only MLP with the hidden activation applied in place.
#[derive(Clone, Debug)]
pub struct InferMlp {
    pub layers: Vec<InferLinear>,
    pub activation: Activation,
}

impl InferMlp {
    pub fn from_store(store: &ParamStore, mlp: &Mlp) -> InferMlp {
        InferMlp {
            layers: mlp
                .layers
                .iter()
                .map(|l| InferLinear::from_store(store, l))
                .collect(),
            activation: mlp.activation,
        }
    }

    fn activate(&self, m: &mut Matrix) {
        match self.activation {
            Activation::Relu => ops::relu_assign(m),
            Activation::Tanh => ops::tanh_assign(m),
        }
    }

    /// Forward pass into `out`, alternating between the two scratch buffers
    /// for the hidden layers (the final layer is linear, like the tape path).
    pub fn forward_into(&self, x: &Matrix, scratch: &mut MlpScratch, out: &mut Matrix) {
        let n = self.layers.len();
        if n == 1 {
            self.layers[0].forward_into(x, out);
            return;
        }
        self.layers[0].forward_into(x, &mut scratch.a);
        self.activate(&mut scratch.a);
        for i in 1..n - 1 {
            if i % 2 == 1 {
                self.layers[i].forward_into(&scratch.a, &mut scratch.b);
                self.activate(&mut scratch.b);
            } else {
                self.layers[i].forward_into(&scratch.b, &mut scratch.a);
                self.activate(&mut scratch.a);
            }
        }
        let src = if (n - 1) % 2 == 1 {
            &scratch.a
        } else {
            &scratch.b
        };
        self.layers[n - 1].forward_into(src, out);
    }
}

/// Forward-only Gaussian head: `µ = W_µ h + b_µ`,
/// `σ = softplus(W_σ h + b_σ) + SIGMA_FLOOR` — the same `softplus` kernel
/// (threshold form) the tape uses, so sigma is bit-identical.
#[derive(Clone, Debug)]
pub struct InferGaussianHead {
    pub mu: InferLinear,
    pub sigma: InferLinear,
}

impl InferGaussianHead {
    pub fn from_store(store: &ParamStore, head: &GaussianHead) -> InferGaussianHead {
        InferGaussianHead {
            mu: InferLinear::from_store(store, &head.mu),
            sigma: InferLinear::from_store(store, &head.sigma),
        }
    }

    /// `h` is `(batch, hidden)`; fills `(batch, 1)` `mu_out` / `sigma_out`.
    pub fn forward_into(&self, h: &Matrix, mu_out: &mut Matrix, sigma_out: &mut Matrix) {
        // The head's constituent kernels (two GEMVs, softplus, floor add)
        // profile as one `gaussian_head` row in the operator breakdown.
        let _scope = rpf_obs::ops::class_scope(rpf_obs::ops::OpClass::GaussianHead);
        self.mu.forward_into(h, mu_out);
        self.sigma.forward_into(h, sigma_out);
        ops::softplus_assign(sigma_out);
        ops::add_scalar_assign(sigma_out, SIGMA_FLOOR);
    }

    /// Batched mirror of [`InferGaussianHead::forward_into`] for the
    /// lock-step batched decode: the mu/sigma projections run as one fused
    /// pass over the `(batch, hidden)` block (`dual_affine_into`) instead
    /// of two `n == 1` GEMVs, then the same softplus + floor sweeps. Within
    /// a few ulps of the tape head; row-independent, so each row's output
    /// is invariant to the rest of the batch.
    pub fn forward_batch(&self, h: &Matrix, mu_out: &mut Matrix, sigma_out: &mut Matrix) {
        let _scope = rpf_obs::ops::class_scope(rpf_obs::ops::OpClass::GaussianHead);
        dual_affine_into(
            h,
            &self.mu.w,
            self.mu.b.as_slice()[0],
            &self.sigma.w,
            self.sigma.b.as_slice()[0],
            mu_out,
            sigma_out,
        );
        ops::softplus_assign(sigma_out);
        ops::add_scalar_assign(sigma_out, SIGMA_FLOOR);
    }
}

/// Forward-only embedding: a concrete table with row gather.
#[derive(Clone, Debug)]
pub struct InferEmbedding {
    pub table: Matrix,
    pub vocab: usize,
    pub dim: usize,
}

impl InferEmbedding {
    pub fn from_store(store: &ParamStore, emb: &Embedding) -> InferEmbedding {
        InferEmbedding {
            table: store.value(emb.table).clone(),
            vocab: emb.vocab,
            dim: emb.dim,
        }
    }

    /// Look up `indices`, producing a `(indices.len(), dim)` output.
    pub fn forward(&self, indices: &[usize]) -> Matrix {
        debug_assert!(
            indices.iter().all(|&i| i < self.vocab),
            "embedding index out of vocab"
        );
        self.table.gather_rows(indices)
    }

    /// Borrow the embedding row for one index (no copy).
    pub fn row(&self, index: usize) -> &[f32] {
        self.table.row(index)
    }
}

// ---------------------------------------------------------------------------
// Transformer inference layers.
//
// The Transformer serving path rebuilds the decoder stack over the whole
// accumulated prefix each step, so what dominates is not scratch reuse but
// dropping the tape: no node bookkeeping, no per-op weight clones. These
// forwards allocate their outputs but call the same `rpf_tensor` kernels in
// the tape's op order, preserving bit parity.
// ---------------------------------------------------------------------------

/// Elementwise division in the tape's evaluation order (`clone` then `/=`),
/// kept private so the accounting story stays with the tape's.
fn div_elem(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = a.clone();
    for (o, &x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o /= x;
    }
    out
}

/// Forward-only layer norm mirroring
/// [`LayerNorm::forward`](crate::attention::LayerNorm::forward)'s
/// ones-matmul mean/variance formulation kernel for kernel.
#[derive(Clone, Debug)]
pub struct InferLayerNorm {
    pub gamma: Matrix,
    pub beta: Matrix,
    pub dim: usize,
}

impl InferLayerNorm {
    pub fn from_store(store: &ParamStore, ln: &LayerNorm) -> InferLayerNorm {
        InferLayerNorm {
            gamma: store.value(ln.gamma).clone(),
            beta: store.value(ln.beta).clone(),
            dim: ln.dim,
        }
    }

    pub fn forward(&self, x: &Matrix) -> Matrix {
        let (rows, d) = x.shape();
        debug_assert_eq!(d, self.dim);
        let inv_d = 1.0 / d as f32;
        let ones_col = Matrix::ones(d, 1);
        let ones_row = Matrix::ones(1, d);
        let mean = ops::scale(&matmul(x, &ones_col), inv_d);
        let mean_bc = matmul(&mean, &ones_row);
        let centered = ops::sub(x, &mean_bc);
        let var = ops::scale(&matmul(&ops::map(&centered, |v| v * v), &ones_col), inv_d);
        let sd = ops::map(&ops::add_scalar(&var, 1e-5), f32::sqrt);
        let sd_bc = matmul(&sd, &ones_row);
        let normed = div_elem(&centered, &sd_bc);
        let ones_rows = Matrix::ones(rows, 1);
        let gamma_bc = matmul(&ones_rows, &self.gamma);
        ops::add_row(&ops::mul(&normed, &gamma_bc), &self.beta)
    }
}

/// Forward-only multi-head attention, one sequence at a time.
#[derive(Clone, Debug)]
pub struct InferMha {
    pub wq: InferLinear,
    pub wk: InferLinear,
    pub wv: InferLinear,
    pub wo: InferLinear,
    pub heads: usize,
    pub dim: usize,
}

impl InferMha {
    pub fn from_store(store: &ParamStore, mha: &MultiHeadAttention) -> InferMha {
        InferMha {
            wq: InferLinear::from_store(store, &mha.wq),
            wk: InferLinear::from_store(store, &mha.wk),
            wv: InferLinear::from_store(store, &mha.wv),
            wo: InferLinear::from_store(store, &mha.wo),
            heads: mha.heads,
            dim: mha.dim,
        }
    }

    pub fn forward(&self, query: &Matrix, context: &Matrix, mask: Option<&Matrix>) -> Matrix {
        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let q = self.wq.forward(query);
        let k = self.wk.forward(context);
        let v = self.wv.forward(context);
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (lo, hi) = (h * dh, (h + 1) * dh);
            let qh = q.slice_cols(lo, hi);
            let kh = k.slice_cols(lo, hi);
            let vh = v.slice_cols(lo, hi);
            let mut scores = ops::scale(&matmul(&qh, &kh.transpose()), scale);
            if let Some(m) = mask {
                scores = ops::add(&scores, m);
            }
            let weights = ops::softmax_rows(&scores);
            head_outputs.push(matmul(&weights, &vh));
        }
        let refs: Vec<&Matrix> = head_outputs.iter().collect();
        self.wo.forward(&Matrix::hstack(&refs))
    }
}

/// Forward-only pre-norm encoder layer.
#[derive(Clone, Debug)]
pub struct InferEncoderLayer {
    pub attn: InferMha,
    pub norm1: InferLayerNorm,
    pub norm2: InferLayerNorm,
    pub ff1: InferLinear,
    pub ff2: InferLinear,
}

impl InferEncoderLayer {
    pub fn from_store(store: &ParamStore, enc: &EncoderLayer) -> InferEncoderLayer {
        InferEncoderLayer {
            attn: InferMha::from_store(store, &enc.attn),
            norm1: InferLayerNorm::from_store(store, &enc.norm1),
            norm2: InferLayerNorm::from_store(store, &enc.norm2),
            ff1: InferLinear::from_store(store, &enc.ff1),
            ff2: InferLinear::from_store(store, &enc.ff2),
        }
    }

    pub fn forward(&self, x: &Matrix) -> Matrix {
        let n1 = self.norm1.forward(x);
        let a = self.attn.forward(&n1, &n1, None);
        let x = ops::add(x, &a);
        let n = self.norm2.forward(&x);
        let f = self.ff2.forward(&ops::relu(&self.ff1.forward(&n)));
        ops::add(&x, &f)
    }
}

/// Forward-only pre-norm decoder layer (causal self-attention + cross
/// attention over the encoder memory + FFN, all residual).
#[derive(Clone, Debug)]
pub struct InferDecoderLayer {
    pub self_attn: InferMha,
    pub cross_attn: InferMha,
    pub norm1: InferLayerNorm,
    pub norm2: InferLayerNorm,
    pub norm3: InferLayerNorm,
    pub ff1: InferLinear,
    pub ff2: InferLinear,
}

impl InferDecoderLayer {
    pub fn from_store(store: &ParamStore, dec: &DecoderLayer) -> InferDecoderLayer {
        InferDecoderLayer {
            self_attn: InferMha::from_store(store, &dec.self_attn),
            cross_attn: InferMha::from_store(store, &dec.cross_attn),
            norm1: InferLayerNorm::from_store(store, &dec.norm1),
            norm2: InferLayerNorm::from_store(store, &dec.norm2),
            norm3: InferLayerNorm::from_store(store, &dec.norm3),
            ff1: InferLinear::from_store(store, &dec.ff1),
            ff2: InferLinear::from_store(store, &dec.ff2),
        }
    }

    pub fn forward(&self, x: &Matrix, memory: &Matrix) -> Matrix {
        let td = x.rows();
        let mask = causal_mask(td);
        let n1 = self.norm1.forward(x);
        let a = self.self_attn.forward(&n1, &n1, Some(&mask));
        let x = ops::add(x, &a);
        let n2 = self.norm2.forward(&x);
        let c = self.cross_attn.forward(&n2, memory, None);
        let x = ops::add(&x, &c);
        let n3 = self.norm3.forward(&x);
        let f = self.ff2.forward(&ops::relu(&self.ff1.forward(&n3)));
        ops::add(&x, &f)
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

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn linear_matches_tape_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(30);
        let lin = Linear::new(&mut store, &mut rng, "l", 6, 3);
        let x = ramp(4, 6, 0.17);

        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let y_tape = tape.value(lin.forward(&bind, tape.leaf(x.clone())));

        let inf = InferLinear::from_store(&store, &lin);
        let mut out = Matrix::zeros(0, 0);
        inf.forward_into(&x, &mut out);
        assert_bits_eq(&out, &y_tape);
        assert_bits_eq(&inf.forward(&x), &y_tape);
    }

    #[test]
    fn stacked_lstm_steps_match_tape_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(31);
        let stack = StackedLstm::new(&mut store, &mut rng, "enc", 5, 4, 2);

        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let mut tape_states = stack.zero_state(&bind, 3);

        let inf = InferStackedLstm::from_store(&store, &stack);
        let mut states = inf.zero_state(3);
        let mut scratch = LstmScratch::new();

        for step in 0..4 {
            let x = ramp(3, 5, 0.1 * (step as f32 + 1.0));
            let (_, new_states) = stack.step(&bind, tape.leaf(x.clone()), &tape_states);
            tape_states = new_states;
            inf.step(&x, &mut states, &mut scratch);
            for (l, s) in tape_states.iter().enumerate() {
                assert_bits_eq(&states[l].0, &tape.value(s.h));
                assert_bits_eq(&states[l].1, &tape.value(s.c));
            }
        }
    }

    #[test]
    fn mlp_matches_tape_bitwise() {
        for (dims, act) in [
            (vec![2usize, 16, 16, 1], Activation::Relu),
            (vec![3, 8, 2], Activation::Tanh),
            (vec![4, 2], Activation::Relu),
        ] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(32);
            let mlp = Mlp::new(&mut store, &mut rng, "m", &dims, act);
            let x = ramp(5, dims[0], 0.23);

            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            let y_tape = tape.value(mlp.forward(&bind, tape.leaf(x.clone())));

            let inf = InferMlp::from_store(&store, &mlp);
            let mut scratch = MlpScratch::new();
            let mut out = Matrix::zeros(0, 0);
            inf.forward_into(&x, &mut scratch, &mut out);
            assert_bits_eq(&out, &y_tape);
        }
    }

    #[test]
    fn gaussian_head_matches_tape_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(33);
        let head = GaussianHead::new(&mut store, &mut rng, "h", 7);
        let h = ramp(6, 7, 0.31);

        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let p = head.forward(&bind, tape.leaf(h.clone()));
        let mu_tape = tape.value(p.mu);
        let sigma_tape = tape.value(p.sigma);

        let inf = InferGaussianHead::from_store(&store, &head);
        let mut mu = Matrix::zeros(0, 0);
        let mut sigma = Matrix::zeros(0, 0);
        inf.forward_into(&h, &mut mu, &mut sigma);
        assert_bits_eq(&mu, &mu_tape);
        assert_bits_eq(&sigma, &sigma_tape);
        assert!(sigma.as_slice().iter().all(|&s| s >= SIGMA_FLOOR));
    }

    #[test]
    fn embedding_matches_tape_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(34);
        let emb = Embedding::new(&mut store, &mut rng, "car", 9, 4);
        let idx = [7usize, 0, 7, 3];

        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let y_tape = tape.value(emb.forward(&bind, &idx));

        let inf = InferEmbedding::from_store(&store, &emb);
        assert_bits_eq(&inf.forward(&idx), &y_tape);
        assert_eq!(inf.row(7), y_tape.row(0));
    }

    #[test]
    fn transformer_layers_match_tape_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(35);
        let enc = EncoderLayer::new(&mut store, &mut rng, "enc", 16, 4, 32);
        let dec = DecoderLayer::new(&mut store, &mut rng, "dec", 16, 4, 32);
        let src = ramp(7, 16, 0.07);
        let tgt = ramp(4, 16, 0.05);

        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let memory = enc.forward(&bind, tape.leaf(src.clone()));
        let out_tape = tape.value(dec.forward(&bind, tape.leaf(tgt.clone()), memory));
        let memory_val = tape.value(memory);

        let inf_enc = InferEncoderLayer::from_store(&store, &enc);
        let inf_dec = InferDecoderLayer::from_store(&store, &dec);
        let inf_memory = inf_enc.forward(&src);
        assert_bits_eq(&inf_memory, &memory_val);
        assert_bits_eq(&inf_dec.forward(&tgt, &inf_memory), &out_tape);
    }
}
