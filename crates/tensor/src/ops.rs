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
// In-place kernels: the batched Gaussian head's sigma link and gradient
// accumulation.
//
// Each kernel below applies the *same elementwise formula* as its allocating
// counterpart above. Their byte counts skip the clone traffic the allocating
// versions pay: reads + writes only.
// ---------------------------------------------------------------------------

/// In-place scalar addition: `a += s` elementwise.
pub fn add_scalar_assign(a: &mut Matrix, s: f32) {
    let started = ops::start();
    for o in a.as_mut_slice() {
        *o += s;
    }
    let n = a.len() as u64;
    ops::record(OpClass::Scalar, n, 8 * n, started);
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

        let mut x = a.clone();
        add_scalar_assign(&mut x, 1e-3);
        assert_eq!(&x, &add_scalar(&a, 1e-3));

        let mut x = a.clone();
        softplus_assign(&mut x);
        assert_eq!(&x, &softplus(&a));
    }
}
