//! Tape-free inference runtime: lean forward-only mirrors of the layers.
//!
//! Training needs the autodiff tape; serving does not. The Monte-Carlo
//! forecast path (100 sampled trajectories, each stepping the decoder
//! autoregressively) is pure forward computation, yet running it through
//! [`Binding`](crate::params::Binding)/`Tape` pays, per step: one clone of
//! every weight matrix onto the tape, node bookkeeping for each op, and a
//! clone of every output back off the tape. The `Infer*` structs here are
//! built by a **one-shot conversion** from a trained [`ParamStore`]
//! (weights cloned once, at conversion time). The LSTM steps in place on
//! caller-owned state and a caller-owned [`BatchScratch`], so a warm step
//! allocates nothing; the other layers return freshly allocated outputs.
//!
//! # Parity guarantee
//!
//! Two contracts, one per kernel family:
//!
//! * **Bitwise.** [`InferLinear`], [`InferMlp`], [`InferGaussianHead::forward`],
//!   [`InferEmbedding`] and the Transformer layers call the tape's own
//!   allocating kernels (`matmul`, `ops::add_row`, ...) in the tape's op
//!   order, and the in-place activations apply the same scalar formula as
//!   their allocating twins. Their outputs are **bit-identical** to the tape
//!   forward, pinned by `crates/nn/tests/infer_parity.rs`.
//! * **Tolerance.** [`InferStackedLstm::step`] and
//!   [`InferGaussianHead::forward_batch`] run the FMA / fast-activation
//!   kernels of `rpf_tensor::batched`. They track the tape within a pinned
//!   bound (`DESIGN.md` §13) and are bit-deterministic and row-independent
//!   for a fixed batch layout: a row's bits do not depend on which rows
//!   share its batch, so threads, shards and the wire cannot move them.

use crate::attention::{causal_mask, DecoderLayer, EncoderLayer, LayerNorm, MultiHeadAttention};
use crate::embedding::Embedding;
use crate::gaussian::{GaussianHead, SIGMA_FLOOR};
use crate::linear::Linear;
use crate::lstm::{LstmCell, StackedLstm};
use crate::mlp::{Activation, Mlp};
use crate::params::ParamStore;
use rpf_tensor::batched::{dual_affine_into, lstm_step_fused_batched};
use rpf_tensor::matmul::matmul;
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

    /// `x W + b` on the tape's kernels (`matmul`, then `add_row`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        ops::add_row(&matmul(x, &self.w), &self.b)
    }
}

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

    /// Forward pass; every layer but the last is followed by the
    /// activation, like the tape path.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            match self.activation {
                Activation::Relu => ops::relu_assign(&mut h),
                Activation::Tanh => ops::tanh_assign(&mut h),
            }
            h = layer.forward(&h);
        }
        h
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

    /// `h` is `(batch, hidden)`; returns `(batch, 1)` `(mu, sigma)`,
    /// bit-identical to the tape head.
    pub fn forward(&self, h: &Matrix) -> (Matrix, Matrix) {
        // The head's constituent kernels (two GEMVs, softplus, floor add)
        // profile as one `gaussian_head` row in the operator breakdown.
        let _scope = rpf_obs::ops::class_scope(rpf_obs::ops::OpClass::GaussianHead);
        let mu = self.mu.forward(h);
        let mut sigma = self.sigma.forward(h);
        ops::softplus_assign(&mut sigma);
        ops::add_scalar_assign(&mut sigma, SIGMA_FLOOR);
        (mu, sigma)
    }

    /// Batched variant of [`InferGaussianHead::forward`] for the lock-step
    /// decode: the mu/sigma projections run as one fused pass over the
    /// `(batch, hidden)` block (`dual_affine_into`) into caller-owned
    /// outputs, then the same softplus + floor sweeps. Within a few ulps of
    /// the tape head; row-independent, so each row's output is invariant to
    /// the rest of the batch.
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
        assert_bits_eq(&inf.forward(&x), &y_tape);
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
            assert_bits_eq(&inf.forward(&x), &y_tape);
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
        let (mu, sigma) = inf.forward(&h);
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
