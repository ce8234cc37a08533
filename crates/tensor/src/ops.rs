//! Elementwise and broadcast kernels (`Mul`, `Add`, `Sigmoid`, `Tanh`, ...).
//!
//! Each op reports its work to `rpf_obs::ops` while profiling is on, so the
//! systems experiments can reconstruct the paper's operator breakdown.
//! Transcendental kernels count the polynomial cost the paper's roofline
//! uses (~10 flops/element).

use crate::matrix::Matrix;
use rpf_obs::ops::{self, OpClass};

fn assert_same_shape(a: &Matrix, b: &Matrix, op: &str) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "{op}: shape mismatch {:?} vs {:?}",
        a.shape(),
        b.shape()
    );
}

/// Elementwise addition: `a + b`.
pub fn add(a: &Matrix, b: &Matrix) -> Matrix {
    assert_same_shape(a, b, "add");
    let started = ops::start();
    let mut out = a.clone();
    for (o, &x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o += x;
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 12 * n, started);
    out
}

/// Elementwise subtraction: `a - b`.
pub fn sub(a: &Matrix, b: &Matrix) -> Matrix {
    assert_same_shape(a, b, "sub");
    let started = ops::start();
    let mut out = a.clone();
    for (o, &x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o -= x;
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 12 * n, started);
    out
}

/// Elementwise (Hadamard) product: `a ⊙ b`.
pub fn mul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_same_shape(a, b, "mul");
    let started = ops::start();
    let mut out = a.clone();
    for (o, &x) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o *= x;
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 12 * n, started);
    out
}

/// Scale every element by `s`.
pub fn scale(a: &Matrix, s: f32) -> Matrix {
    let started = ops::start();
    let mut out = a.clone();
    for o in out.as_mut_slice() {
        *o *= s;
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 8 * n, started);
    out
}

/// Add scalar `s` to every element.
pub fn add_scalar(a: &Matrix, s: f32) -> Matrix {
    let started = ops::start();
    let mut out = a.clone();
    for o in out.as_mut_slice() {
        *o += s;
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 8 * n, started);
    out
}

/// Broadcast-add a 1xC row vector to every row of `a`.
pub fn add_row(a: &Matrix, row: &Matrix) -> Matrix {
    assert_eq!(row.rows(), 1, "add_row: rhs must be a row vector");
    assert_eq!(row.cols(), a.cols(), "add_row: width mismatch");
    let started = ops::start();
    let mut out = a.clone();
    let r = row.as_slice();
    let cols = a.cols();
    for out_row in out.as_mut_slice().chunks_mut(cols) {
        for (o, &x) in out_row.iter_mut().zip(r) {
            *o += x;
        }
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 12 * n, started);
    out
}

/// Logistic sigmoid `1 / (1 + e^-x)` applied elementwise.
pub fn sigmoid(a: &Matrix) -> Matrix {
    let started = ops::start();
    let mut out = a.clone();
    for o in out.as_mut_slice() {
        *o = crate::scalar::sigmoid(*o);
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, 10 * n, 8 * n, started);
    out
}

/// Hyperbolic tangent applied elementwise.
pub fn tanh(a: &Matrix) -> Matrix {
    let started = ops::start();
    let mut out = a.clone();
    for o in out.as_mut_slice() {
        *o = crate::scalar::tanh(*o);
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, 10 * n, 8 * n, started);
    out
}

/// ReLU `max(0, x)` applied elementwise.
pub fn relu(a: &Matrix) -> Matrix {
    let started = ops::start();
    let mut out = a.clone();
    for o in out.as_mut_slice() {
        if *o < 0.0 {
            *o = 0.0;
        }
    }
    let n = a.len() as u64;
    ops::record(OpClass::Other, n, 8 * n, started);
    out
}

/// Numerically-stable softplus `log(1 + e^x)`, the paper's link function for
/// the Gaussian scale parameter sigma.
pub fn softplus(a: &Matrix) -> Matrix {
    let started = ops::start();
    let mut out = a.clone();
    for o in out.as_mut_slice() {
        // For large x, log(1+e^x) = x + log(1+e^-x) avoids overflow.
        *o = if *o > 20.0 { *o } else { (1.0 + o.exp()).ln() };
    }
    let n = a.len() as u64;
    ops::record(OpClass::Other, 12 * n, 8 * n, started);
    out
}

/// Elementwise natural exponential.
pub fn exp(a: &Matrix) -> Matrix {
    let started = ops::start();
    let mut out = a.clone();
    for o in out.as_mut_slice() {
        *o = o.exp();
    }
    let n = a.len() as u64;
    ops::record(OpClass::Other, 10 * n, 8 * n, started);
    out
}

/// Apply an arbitrary function elementwise (counted as `Other`).
pub fn map(a: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    let started = ops::start();
    let mut out = a.clone();
    for o in out.as_mut_slice() {
        *o = f(*o);
    }
    let n = a.len() as u64;
    ops::record(OpClass::Other, n, 8 * n, started);
    out
}

/// Column-wise sum, producing a 1xC row vector. (Backward pass of a
/// broadcast bias-add.)
pub fn sum_rows(a: &Matrix) -> Matrix {
    let started = ops::start();
    let cols = a.cols();
    let mut out = Matrix::zeros(1, cols);
    for row in a.as_slice().chunks(cols) {
        for (o, &x) in out.as_mut_slice().iter_mut().zip(row) {
            *o += x;
        }
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 8 * n, started);
    out
}

/// Row-wise softmax; each row sums to one. Used by the Transformer's
/// attention weights.
pub fn softmax_rows(a: &Matrix) -> Matrix {
    let started = ops::start();
    let cols = a.cols();
    let mut out = a.clone();
    for row in out.as_mut_slice().chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    let n = a.len() as u64;
    ops::record(OpClass::Other, 15 * n, 8 * n, started);
    out
}

// ---------------------------------------------------------------------------
// In-place / fused kernels for the tape-free inference runtime.
//
// Each kernel below applies the *same elementwise formula in the same order*
// as its allocating counterpart above, so a serving path built from them is
// bit-identical to the training-graph forward pass (Rust never contracts
// separate mul/add expressions into FMAs, so `(f*c) + (i*g)` written as three
// ops rounds exactly like the tape's mul/mul/add sequence). Their byte
// counts skip the clone traffic the allocating versions pay: reads +
// writes only.
// ---------------------------------------------------------------------------

/// In-place elementwise addition: `a += b`.
pub fn add_assign(a: &mut Matrix, b: &Matrix) {
    assert_same_shape(a, b, "add_assign");
    let started = ops::start();
    for (o, &x) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o += x;
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 12 * n, started);
}

/// In-place broadcast-add of a 1xC row vector to every row of `a`.
pub fn add_row_assign(a: &mut Matrix, row: &Matrix) {
    assert_eq!(row.rows(), 1, "add_row_assign: rhs must be a row vector");
    assert_eq!(row.cols(), a.cols(), "add_row_assign: width mismatch");
    let started = ops::start();
    let r = row.as_slice();
    let cols = a.cols();
    for out_row in a.as_mut_slice().chunks_mut(cols) {
        for (o, &x) in out_row.iter_mut().zip(r) {
            *o += x;
        }
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 12 * n, started);
}

/// In-place scalar addition: `a += s` elementwise.
pub fn add_scalar_assign(a: &mut Matrix, s: f32) {
    let started = ops::start();
    for o in a.as_mut_slice() {
        *o += s;
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 8 * n, started);
}

/// In-place hyperbolic tangent.
pub fn tanh_assign(a: &mut Matrix) {
    let started = ops::start();
    for o in a.as_mut_slice() {
        *o = crate::scalar::tanh(*o);
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, 10 * n, 8 * n, started);
}

/// In-place ReLU.
pub fn relu_assign(a: &mut Matrix) {
    let started = ops::start();
    for o in a.as_mut_slice() {
        if *o < 0.0 {
            *o = 0.0;
        }
    }
    let n = a.len() as u64;
    ops::record(OpClass::Other, n, 8 * n, started);
}

/// In-place numerically-stable softplus, same formula as [`softplus`].
pub fn softplus_assign(a: &mut Matrix) {
    let started = ops::start();
    for o in a.as_mut_slice() {
        *o = if *o > 20.0 { *o } else { (1.0 + o.exp()).ln() };
    }
    let n = a.len() as u64;
    ops::record(OpClass::Other, 12 * n, 8 * n, started);
}

/// Fully fused LSTM gate pre-activation + activation, in place on the
/// `x·W_ih` product: `gates = act((gates + gh) + bias_row)` in a single pass,
/// where `act` is sigmoid on the `i`/`f`/`o` blocks and tanh on `g` (layout
/// `[i f g o]`, width `4*hidden`). Replaces the tape path's three separate
/// kernels (elementwise add, broadcast row add, activations) — elementwise
/// ops have no cross-element interaction, so collapsing the passes cannot
/// change any element's value: each still computes `act((ih + hh) + b)` with
/// the same scalar op order, and parity with the training graph holds
/// bit-for-bit. Saves two full read+write sweeps of the `(batch, 4*hidden)`
/// buffer per LSTM step on the serving path.
pub fn lstm_gates_fused(gates: &mut Matrix, gh: &Matrix, bias: &Matrix, hidden: usize) {
    assert_eq!(
        gates.shape(),
        gh.shape(),
        "lstm_gates_fused: gates/gh shape mismatch"
    );
    assert_eq!(
        gates.cols(),
        4 * hidden,
        "lstm_gates_fused: expected 4*hidden={} cols, got {}",
        4 * hidden,
        gates.cols()
    );
    assert_eq!(
        bias.shape(),
        (1, 4 * hidden),
        "lstm_gates_fused: bias shape {:?}",
        bias.shape()
    );
    let started = ops::start();
    let cols = gates.cols();
    let b = bias.as_slice();
    let (b_if, b_rest) = b.split_at(2 * hidden);
    let (b_g, b_o) = b_rest.split_at(hidden);
    for (row, gh_row) in gates
        .as_mut_slice()
        .chunks_mut(cols)
        .zip(gh.as_slice().chunks(cols))
    {
        let (ifg, o_blk) = row.split_at_mut(3 * hidden);
        let (if_blk, g_blk) = ifg.split_at_mut(2 * hidden);
        let (gh_ifg, gh_o) = gh_row.split_at(3 * hidden);
        let (gh_if, gh_g) = gh_ifg.split_at(2 * hidden);
        for ((v, &hh), &bv) in if_blk.iter_mut().zip(gh_if).zip(b_if) {
            *v = crate::scalar::sigmoid((*v + hh) + bv);
        }
        for ((v, &hh), &bv) in g_blk.iter_mut().zip(gh_g).zip(b_g) {
            *v = crate::scalar::tanh((*v + hh) + bv);
        }
        for ((v, &hh), &bv) in o_blk.iter_mut().zip(gh_o).zip(b_o) {
            *v = crate::scalar::sigmoid((*v + hh) + bv);
        }
    }
    let n = gates.len() as u64;
    // Two adds per element, then one activation (~10 flops) per element.
    ops::record(OpClass::LstmGatesFused, 12 * n, 20 * n, started);
}

/// Fused LSTM state update from *activated* gates (see
/// [`lstm_gates_fused`]): `c = f⊙c + i⊙g` then `h = o⊙tanh(c)`, written
/// into caller-owned `c` / `h` buffers of shape `(batch, hidden)`. The
/// per-element expressions are evaluated in the tape's op order (mul, mul,
/// add, tanh, mul) so results are bit-identical to the training graph.
pub fn lstm_state_update(gates: &Matrix, c: &mut Matrix, h: &mut Matrix, hidden: usize) {
    assert_eq!(gates.cols(), 4 * hidden, "lstm_state_update: gate width");
    assert_eq!(
        c.shape(),
        (gates.rows(), hidden),
        "lstm_state_update: c shape {:?}",
        c.shape()
    );
    assert_eq!(
        h.shape(),
        (gates.rows(), hidden),
        "lstm_state_update: h shape {:?}",
        h.shape()
    );
    let started = ops::start();
    let gcols = gates.cols();
    for (row_idx, g_row) in gates.as_slice().chunks(gcols).enumerate() {
        let c_row = &mut c.as_mut_slice()[row_idx * hidden..(row_idx + 1) * hidden];
        let h_row = &mut h.as_mut_slice()[row_idx * hidden..(row_idx + 1) * hidden];
        // Split the gate row into its four blocks up front: zipped slice
        // iterators carry no bounds checks, so the loop auto-vectorizes
        // (indexed `g_row[j + k*hidden]` accesses defeat that).
        let (i_blk, rest) = g_row.split_at(hidden);
        let (f_blk, rest) = rest.split_at(hidden);
        let (g_blk, o_blk) = rest.split_at(hidden);
        for ((c_v, h_v), (((&i_v, &f_v), &g_v), &o_v)) in c_row
            .iter_mut()
            .zip(h_row.iter_mut())
            .zip(i_blk.iter().zip(f_blk).zip(g_blk).zip(o_blk))
        {
            let c_new = (f_v * *c_v) + (i_v * g_v);
            *c_v = c_new;
            *h_v = o_v * crate::scalar::tanh(c_new);
        }
    }
    let n = (gates.rows() * hidden) as u64;
    // Three muls, one add and one tanh (~10 flops) per state element.
    ops::record(OpClass::LstmStateUpdate, 14 * n, 56 * n, started);
}

/// In-place `a += s * b` (AXPY). The workhorse of the Adam optimizer update.
pub fn axpy(a: &mut Matrix, s: f32, b: &Matrix) {
    assert_same_shape(a, b, "axpy");
    let started = ops::start();
    for (o, &x) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o += s * x;
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, 2 * n, 12 * n, started);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_mul() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(add(&a, &b).as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        assert_eq!(sub(&b, &a).as_slice(), &[9.0, 18.0, 27.0, 36.0]);
        assert_eq!(mul(&a, &b).as_slice(), &[10.0, 40.0, 90.0, 160.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        assert_eq!(scale(&a, 2.0).as_slice(), &[2.0, -4.0, 6.0]);
        assert_eq!(add_scalar(&a, 1.0).as_slice(), &[2.0, -1.0, 4.0]);
    }

    #[test]
    fn broadcast_row_add() {
        let a = Matrix::from_fn(3, 2, |_, _| 1.0);
        let r = Matrix::row_vector(&[10.0, 20.0]);
        let out = add_row(&a, &r);
        for i in 0..3 {
            assert_eq!(out.row(i), &[11.0, 21.0]);
        }
    }

    #[test]
    fn sigmoid_known_values() {
        let a = Matrix::from_vec(1, 3, vec![0.0, 100.0, -100.0]);
        let s = sigmoid(&a);
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((s.get(0, 1) - 1.0).abs() < 1e-6);
        assert!(s.get(0, 2).abs() < 1e-6);
    }

    #[test]
    fn tanh_and_relu() {
        let a = Matrix::from_vec(1, 3, vec![0.0, 1.0, -1.0]);
        let t = tanh(&a);
        assert_eq!(t.get(0, 0), 0.0);
        assert!((t.get(0, 1) - 0.761_594_2).abs() < 1e-5);
        let r = relu(&a);
        assert_eq!(r.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn softplus_stable_and_positive() {
        let a = Matrix::from_vec(1, 4, vec![-50.0, 0.0, 5.0, 500.0]);
        let s = softplus(&a);
        assert!(s.as_slice().iter().all(|&v| v >= 0.0 && v.is_finite()));
        assert!((s.get(0, 1) - 2.0f32.ln()).abs() < 1e-6);
        assert!((s.get(0, 3) - 500.0).abs() < 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let s = softmax_rows(&a);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
        // Monotone: bigger logit, bigger weight.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn sum_rows_matches_manual() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(sum_rows(&a).as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn axpy_in_place() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let b = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        axpy(&mut a, 0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = add(&Matrix::zeros(2, 2), &Matrix::zeros(2, 3));
    }

    fn ramp(rows: usize, cols: usize, scale_by: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 - 3.0) * scale_by)
    }

    #[test]
    fn in_place_ops_bit_match_allocating() {
        let a = ramp(3, 4, 0.37);
        let b = ramp(3, 4, -0.21);
        let row = Matrix::row_vector(&[0.5, -1.5, 2.5, 0.25]);

        let mut x = a.clone();
        add_assign(&mut x, &b);
        assert_eq!(&x, &add(&a, &b));

        let mut x = a.clone();
        add_row_assign(&mut x, &row);
        assert_eq!(&x, &add_row(&a, &row));

        let mut x = a.clone();
        add_scalar_assign(&mut x, 1e-3);
        assert_eq!(&x, &add_scalar(&a, 1e-3));

        let mut x = a.clone();
        relu_assign(&mut x);
        assert_eq!(&x, &relu(&a));

        let mut x = a.clone();
        tanh_assign(&mut x);
        assert_eq!(&x, &tanh(&a));

        let mut x = a.clone();
        softplus_assign(&mut x);
        assert_eq!(&x, &softplus(&a));
    }

    #[test]
    fn fused_lstm_state_update_matches_tape_op_order() {
        let hidden = 4;
        let pre = ramp(2, 4 * hidden, 0.23);
        let gates = Matrix::hstack(&[
            &sigmoid(&pre.slice_cols(0, 2 * hidden)),
            &tanh(&pre.slice_cols(2 * hidden, 3 * hidden)),
            &sigmoid(&pre.slice_cols(3 * hidden, 4 * hidden)),
        ]);
        let c0 = ramp(2, hidden, 0.61);

        // Tape op order: c = add(mul(f, c0), mul(i, g)); h = mul(o, tanh(c)).
        let i = gates.slice_cols(0, hidden);
        let f = gates.slice_cols(hidden, 2 * hidden);
        let g = gates.slice_cols(2 * hidden, 3 * hidden);
        let o = gates.slice_cols(3 * hidden, 4 * hidden);
        let c_ref = add(&mul(&f, &c0), &mul(&i, &g));
        let h_ref = mul(&o, &tanh(&c_ref));

        let mut c = c0.clone();
        let mut h = Matrix::zeros(2, hidden);
        lstm_state_update(&gates, &mut c, &mut h, hidden);
        for (x, y) in c.as_slice().iter().zip(c_ref.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in h.as_slice().iter().zip(h_ref.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "lstm_gates_fused")]
    fn fused_gate_width_mismatch_panics() {
        let mut gates = Matrix::zeros(2, 10);
        lstm_gates_fused(&mut gates, &Matrix::zeros(2, 10), &Matrix::zeros(1, 16), 4);
    }
}
