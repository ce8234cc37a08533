//! Parallel dense matrix multiplication: the tape's kernels.
//!
//! This is the hot kernel of the whole reproduction — the paper measures
//! that `MatMul` alone accounts for about half the LSTM training walltime
//! (§IV-J). The implementation here uses the classic i-k-j loop order so the
//! inner loop is a unit-stride AXPY that the compiler auto-vectorizes, plus
//! row-parallelism over the output via [`crate::par`].
//!
//! These allocating kernels are the only non-FMA GEMMs in the crate. The
//! autodiff tape trains on them, and the tape-free `Linear`/MLP/Gaussian
//! head/Transformer forwards call the same [`matmul`], so those layers stay
//! bit-identical to the tape. The LSTM serving steps (encoder and decoder)
//! run the FMA kernels of [`crate::batched`] instead.

use crate::matrix::Matrix;
use rpf_obs::ops::{self, OpClass};

/// `C = A * B`. Panics on inner-dimension mismatch.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ ({:?} x {:?})",
        a.shape(),
        b.shape()
    );
    let started = ops::start();
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);

    {
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        // Parallelise over blocks of output rows; each worker owns a disjoint
        // slice of C, so no synchronisation is needed.
        crate::par::par_chunks_mut(c.as_mut_slice(), n, |start, c_chunk| {
            let row0 = start / n;
            for (local_i, c_row) in c_chunk.chunks_mut(n).enumerate() {
                let i = row0 + local_i;
                let a_row = &a_data[i * k..(i + 1) * k];
                for (kk, &a_ik) in a_row.iter().enumerate() {
                    if a_ik == 0.0 {
                        continue; // common with one-hot / padded inputs
                    }
                    let b_row = &b_data[kk * n..(kk + 1) * n];
                    // Unit-stride AXPY: c_row += a_ik * b_row
                    for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                        *c_v += a_ik * b_v;
                    }
                }
            }
        });
    }

    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let bytes = 4 * ((m * k) as u64 + (k * n) as u64 + (m * n) as u64);
    ops::record(OpClass::Matmul, flops, bytes, started);
    c
}

/// Reference triple-loop multiply used to validate [`matmul`] in tests.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul_naive: inner dimensions differ");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.get(i, kk) * b.get(kk, j);
            }
            c.set(i, j, acc);
        }
    }
    c
}

/// `C = A * B^T` without materialising the transpose.
///
/// Used by the autodiff backward pass (`dA = dC * B^T`), where allocating the
/// transpose per step would double the matmul memory traffic.
pub fn matmul_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_bt: inner dimensions differ ({:?} x {:?}^T)",
        a.shape(),
        b.shape()
    );
    let started = ops::start();
    let (m, k) = a.shape();
    let n = b.rows();
    let mut c = Matrix::zeros(m, n);
    {
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        crate::par::par_chunks_mut(c.as_mut_slice(), n, |start, c_chunk| {
            let row0 = start / n;
            for (local_i, c_row) in c_chunk.chunks_mut(n).enumerate() {
                let i = row0 + local_i;
                let a_row = &a_data[i * k..(i + 1) * k];
                for (j, c_v) in c_row.iter_mut().enumerate() {
                    let b_row = &b_data[j * k..(j + 1) * k];
                    // Dot product of two contiguous rows: also vectorizes.
                    let mut acc = 0.0f32;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    *c_v = acc;
                }
            }
        });
    }
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let bytes = 4 * ((m * k) as u64 + (k * n) as u64 + (m * n) as u64);
    ops::record(OpClass::Matmul, flops, bytes, started);
    c
}

/// `C = A^T * B` without materialising the transpose.
///
/// Used by the autodiff backward pass (`dB = A^T * dC`).
pub fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at: inner dimensions differ ({:?}^T x {:?})",
        a.shape(),
        b.shape()
    );
    let started = ops::start();
    let (k, m) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    {
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        // C[i,j] = sum_kk A[kk,i] * B[kk,j]: accumulate rank-1 updates.
        // Sequential over kk, so we parallelise only when C itself is large;
        // each worker recomputes its row range over all kk.
        crate::par::par_chunks_mut(c.as_mut_slice(), n, |start, c_chunk| {
            let row0 = start / n;
            let rows_here = c_chunk.len() / n;
            for kk in 0..k {
                let a_row = &a_data[kk * m..(kk + 1) * m];
                let b_row = &b_data[kk * n..(kk + 1) * n];
                for local_i in 0..rows_here {
                    let a_v = a_row[row0 + local_i];
                    if a_v == 0.0 {
                        continue;
                    }
                    let c_row = &mut c_chunk[local_i * n..(local_i + 1) * n];
                    for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                        *c_v += a_v * b_v;
                    }
                }
            }
        });
    }
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let bytes = 4 * ((m * k) as u64 + (k * n) as u64 + (m * n) as u64);
    ops::record(OpClass::Matmul, flops, bytes, started);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Tiny LCG so tests don't need the rand crate wired through here.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
        })
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = pseudo_random_matrix(7, 5, 1);
        let b = pseudo_random_matrix(5, 9, 2);
        assert_close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_matches_naive_large_parallel_path() {
        let a = pseudo_random_matrix(150, 80, 3);
        let b = pseudo_random_matrix(80, 170, 4);
        assert_close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-3);
    }

    #[test]
    fn matmul_identity() {
        let a = pseudo_random_matrix(6, 6, 5);
        let i = Matrix::eye(6);
        assert_close(&matmul(&a, &i), &a, 1e-6);
        assert_close(&matmul(&i, &a), &a, 1e-6);
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = pseudo_random_matrix(12, 7, 6);
        let b = pseudo_random_matrix(9, 7, 7);
        assert_close(&matmul_bt(&a, &b), &matmul_naive(&a, &b.transpose()), 1e-4);
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = pseudo_random_matrix(7, 12, 8);
        let b = pseudo_random_matrix(7, 9, 9);
        assert_close(&matmul_at(&a, &b), &matmul_naive(&a.transpose(), &b), 1e-4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_shapes_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn zero_sized_edges() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 4);
        assert_eq!(matmul(&a, &b).shape(), (0, 4));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }
}
