//! The tape's dense matrix multiplications: one register-tiled kernel.
//!
//! This is the hot kernel of the whole reproduction — the paper measures
//! that `MatMul` alone accounts for about half the LSTM training walltime
//! (§IV-J). [`matmul`], [`matmul_at`] and [`matmul_bt`] all run one i-k-j
//! kernel: four output rows at a time, each accumulated in `TILE`-wide
//! register slabs across the whole `k` loop, with row-parallelism over the
//! output via [`crate::par`]. The transposed products run it over a
//! materialised transpose, so the backward pass's GEMMs vectorise like the
//! forward's.
//!
//! Every element is `Σ_k a[i,k]·b[k,j]` in ascending `k` with separate
//! mul/add (never FMA), skipping `a[i,k] == 0.0`. These are the only
//! non-FMA GEMMs in the crate. The autodiff tape trains on them, and the
//! PitModel and the Transformer serve on the tape itself. The LSTM serving
//! steps (encoder and decoder) and the batched Gaussian head run the FMA
//! kernels of [`crate::batched`] instead.

use crate::matrix::Matrix;
use rpf_obs::ops::{self, OpClass};
use std::time::Instant;

/// Register-tile width: one output row is produced in slabs of `TILE`
/// columns whose partial sums stay in vector registers across the `k` loop,
/// instead of streaming the output row through memory once per `k` step.
const TILE: usize = 32;

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
    let c = tiled(a, b);
    record(a.rows(), a.cols(), b.cols(), started);
    c
}

/// `C = A * B^T`: the backward pass's `dA = dC * B^T`.
///
/// Runs the kernel as `(B * A^T)^T`, so the kernel's output width is `A`'s
/// row count (the batch shard), which fills a tile. Each element is the
/// same products in the same ascending order as a plain dot product of the
/// two rows; the kernel's skip drops products with a `±0` factor from `B`,
/// which cannot change a sum that starts at `+0.0` (it never becomes
/// `-0.0`) for finite operands.
pub fn matmul_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_bt: inner dimensions differ ({:?} x {:?}^T)",
        a.shape(),
        b.shape()
    );
    let started = ops::start();
    let c = tiled(b, &a.transpose()).transpose();
    record(a.rows(), a.cols(), b.rows(), started);
    c
}

/// `C = A^T * B`: the backward pass's `dB = A^T * dC`.
///
/// Runs the kernel on `(A^T, B)`: the same rank-1 products in the same
/// order, with the same skip on `A`'s zeros.
pub fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at: inner dimensions differ ({:?}^T x {:?})",
        a.shape(),
        b.shape()
    );
    let started = ops::start();
    let c = tiled(&a.transpose(), b);
    record(a.cols(), a.rows(), b.cols(), started);
    c
}

/// One `(m, k) x (k, n)` product, reported to `rpf_obs::ops`.
fn record(m: usize, k: usize, n: usize, started: Option<Instant>) {
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let bytes = 4 * ((m * k) as u64 + (k * n) as u64 + (m * n) as u64);
    ops::record(OpClass::Matmul, flops, bytes, started);
}

/// The kernel: `A * B`, four output rows at a time, parallel over row
/// blocks of the output (each worker owns a disjoint slice of `C`).
fn tiled(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    if k == 0 || n == 0 {
        return c;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    crate::par::par_chunks_mut(c.as_mut_slice(), n, |start, c_chunk| {
        let a_chunk = &a_data[start / n * k..][..c_chunk.len() / n * k];
        let mut c_quads = c_chunk.chunks_exact_mut(4 * n);
        let mut a_quads = a_chunk.chunks_exact(4 * k);
        for (c4, a4) in (&mut c_quads).zip(&mut a_quads) {
            let (c0, rest) = c4.split_at_mut(n);
            let (c1, rest) = rest.split_at_mut(n);
            let (c2, c3) = rest.split_at_mut(n);
            let (a0, rest) = a4.split_at(k);
            let (a1, rest) = rest.split_at(k);
            let (a2, a3) = rest.split_at(k);
            rows4([a0, a1, a2, a3], b_data, [c0, c1, c2, c3], n);
        }
        let c_rest = c_quads.into_remainder().chunks_exact_mut(n);
        for (c_row, a_row) in c_rest.zip(a_quads.remainder().chunks_exact(k)) {
            row1(a_row, b_data, c_row, n);
        }
    });
    c
}

/// Four output rows, each accumulated in `TILE`-wide register slabs held in
/// individually named stack arrays (LLVM promotes those to vector
/// registers, where an `[[f32; TILE]; 4]` indexed by a loop variable
/// spills). Sharing each B slab load across the rows quadruples the
/// independent accumulator chains without re-reading B.
///
/// The `a[i,k] == 0.0` skip only matters when a zero is present, so row
/// groups without zeros take a branch-free inner loop and the rest take the
/// literal skipping loop; both give the same bits.
#[inline(always)]
fn rows4(a: [&[f32]; 4], b_data: &[f32], c: [&mut [f32]; 4], n: usize) {
    let [a0, a1, a2, a3] = a;
    let [c0, c1, c2, c3] = c;
    let k = a0.len();
    let dense = a.iter().all(|row| row.iter().all(|&v| v != 0.0));
    let mut j0 = 0;
    while j0 + TILE <= n {
        let mut acc0 = [0.0f32; TILE];
        let mut acc1 = [0.0f32; TILE];
        let mut acc2 = [0.0f32; TILE];
        let mut acc3 = [0.0f32; TILE];
        if dense {
            for kk in 0..k {
                let b_slab = &b_data[kk * n + j0..kk * n + j0 + TILE];
                slab_axpy(&mut acc0, a0[kk], b_slab);
                slab_axpy(&mut acc1, a1[kk], b_slab);
                slab_axpy(&mut acc2, a2[kk], b_slab);
                slab_axpy(&mut acc3, a3[kk], b_slab);
            }
        } else {
            for kk in 0..k {
                let b_slab = &b_data[kk * n + j0..kk * n + j0 + TILE];
                if a0[kk] != 0.0 {
                    slab_axpy(&mut acc0, a0[kk], b_slab);
                }
                if a1[kk] != 0.0 {
                    slab_axpy(&mut acc1, a1[kk], b_slab);
                }
                if a2[kk] != 0.0 {
                    slab_axpy(&mut acc2, a2[kk], b_slab);
                }
                if a3[kk] != 0.0 {
                    slab_axpy(&mut acc3, a3[kk], b_slab);
                }
            }
        }
        c0[j0..j0 + TILE].copy_from_slice(&acc0);
        c1[j0..j0 + TILE].copy_from_slice(&acc1);
        c2[j0..j0 + TILE].copy_from_slice(&acc2);
        c3[j0..j0 + TILE].copy_from_slice(&acc3);
        j0 += TILE;
    }
    if j0 < n {
        for (a_row, c_row) in a.into_iter().zip([c0, c1, c2, c3]) {
            tail_axpy(a_row, b_data, &mut c_row[j0..], j0, n);
        }
    }
}

/// Single-row variant of [`rows4`], for the 1–3 leftover rows.
#[inline(always)]
fn row1(a_row: &[f32], b_data: &[f32], c_row: &mut [f32], n: usize) {
    let mut j0 = 0;
    while j0 + TILE <= n {
        let mut acc = [0.0f32; TILE];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if a_ik != 0.0 {
                slab_axpy(&mut acc, a_ik, &b_data[kk * n + j0..kk * n + j0 + TILE]);
            }
        }
        c_row[j0..j0 + TILE].copy_from_slice(&acc);
        j0 += TILE;
    }
    if j0 < n {
        tail_axpy(a_row, b_data, &mut c_row[j0..], j0, n);
    }
}

/// One `TILE`-wide slab update for a single row: `acc += a_ik * b_slab`.
#[inline(always)]
fn slab_axpy(acc: &mut [f32; TILE], a_ik: f32, b_slab: &[f32]) {
    for (c_v, &b_v) in acc.iter_mut().zip(b_slab) {
        *c_v += a_ik * b_v;
    }
}

/// Ragged-tail columns `j0..n` of one output row, accumulated in place in
/// the same element order and with the same skip as the slabs.
#[inline(always)]
fn tail_axpy(a_row: &[f32], b_data: &[f32], c_tail: &mut [f32], j0: usize, n: usize) {
    for (kk, &a_ik) in a_row.iter().enumerate() {
        if a_ik == 0.0 {
            continue; // common with one-hot / padded inputs
        }
        let b_tail = &b_data[kk * n + j0..(kk + 1) * n];
        for (c_v, &b_v) in c_tail.iter_mut().zip(b_tail) {
            *c_v += a_ik * b_v;
        }
    }
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
