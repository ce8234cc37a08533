//! Blocked, parallel dense matrix multiplication.
//!
//! This is the hot kernel of the whole reproduction — the paper measures
//! that `MatMul` alone accounts for about half the LSTM training walltime
//! (§IV-J). The implementation here uses the classic i-k-j loop order so the
//! inner loop is a unit-stride AXPY that the compiler auto-vectorizes, plus
//! row-parallelism over the output via [`crate::par`].

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
            let rows_here = c_chunk.len() / n;
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
            let _ = rows_here;
        });
    }

    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let bytes = 4 * ((m * k) as u64 + (k * n) as u64 + (m * n) as u64);
    ops::record(OpClass::Matmul, flops, bytes, started);
    c
}

/// Register-tile width for [`matmul_into`]: one output row is produced in
/// slabs of `TILE` columns whose partial sums live in a stack array that LLVM
/// keeps in vector registers across the whole `k` loop, instead of streaming
/// the output row through memory once per `k` step like [`matmul`] does.
const TILE: usize = 32;

/// Ragged-tail columns `j0..n` of one output row, in the same i-k-j AXPY
/// element order (and with the same zero-skip) as [`matmul`].
#[inline(always)]
fn tail_axpy(a_row: &[f32], b_data: &[f32], c_tail: &mut [f32], j0: usize, n: usize) {
    for (kk, &a_ik) in a_row.iter().enumerate() {
        if a_ik == 0.0 {
            continue;
        }
        let b_tail = &b_data[kk * n + j0..(kk + 1) * n];
        for (c_v, &b_v) in c_tail.iter_mut().zip(b_tail) {
            *c_v += a_ik * b_v;
        }
    }
}

/// One `TILE`-wide slab update for a single row: `acc += a_rk * b_slab`.
#[inline(always)]
fn slab_axpy(acc: &mut [f32; TILE], a_rk: f32, b_slab: &[f32]) {
    for (c_v, &b_v) in acc.iter_mut().zip(b_slab) {
        *c_v += a_rk * b_v;
    }
}

/// Four output rows at once, each accumulated in `TILE`-wide register slabs
/// held in *individually named* stack arrays — LLVM reliably promotes those
/// to vector registers, where an `[[f32; TILE]; R]` indexed by a loop
/// variable spills. Sharing each B slab load across the rows quadruples the
/// independent accumulator chains (hiding vector-add latency) without
/// re-reading B.
///
/// Per element the accumulation is still `Σ_k a[i,k]·b[k,j]` in ascending `k`
/// with separate mul/add. The `a_ik == 0.0` skip only changes results when a
/// zero is actually present (it can flip a `-0.0` or suppress a NaN from an
/// inf in B), so fully-dense row groups — the overwhelmingly common case for
/// decoder activations — take a branch-free inner loop; rows containing
/// zeros take the literal skipping loop. Either way the result is
/// bit-identical to [`matmul`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_rows4(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b_data: &[f32],
    c0: &mut [f32],
    c1: &mut [f32],
    c2: &mut [f32],
    c3: &mut [f32],
    k: usize,
    n: usize,
) {
    let dense = a0
        .iter()
        .chain(a1.iter())
        .chain(a2.iter())
        .chain(a3.iter())
        .all(|&v| v != 0.0);
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
        tail_axpy(a0, b_data, &mut c0[j0..], j0, n);
        tail_axpy(a1, b_data, &mut c1[j0..], j0, n);
        tail_axpy(a2, b_data, &mut c2[j0..], j0, n);
        tail_axpy(a3, b_data, &mut c3[j0..], j0, n);
    }
}

/// Single-row variant of [`micro_rows4`], for the 1–3 leftover rows.
#[inline(always)]
fn micro_rows1(a_row: &[f32], b_data: &[f32], c_row: &mut [f32], k: usize, n: usize) {
    let dense = a_row.iter().all(|&v| v != 0.0);
    let mut j0 = 0;
    while j0 + TILE <= n {
        let mut acc = [0.0f32; TILE];
        if dense {
            for kk in 0..k {
                let b_slab = &b_data[kk * n + j0..kk * n + j0 + TILE];
                slab_axpy(&mut acc, a_row[kk], b_slab);
            }
        } else {
            for kk in 0..k {
                if a_row[kk] != 0.0 {
                    let b_slab = &b_data[kk * n + j0..kk * n + j0 + TILE];
                    slab_axpy(&mut acc, a_row[kk], b_slab);
                }
            }
        }
        c_row[j0..j0 + TILE].copy_from_slice(&acc);
        j0 += TILE;
    }
    if j0 < n {
        tail_axpy(a_row, b_data, &mut c_row[j0..], j0, n);
    }
}

/// `out = A·b` for a single output column (`n == 1`) — the Gaussian-head
/// mu/sigma projections in the decode loop hit this shape every step. The
/// generic tile path degrades into a store-forwarding chain here (each `k`
/// step reloads and restores the same output scalar), so instead every
/// output element is accumulated in a register, eight rows at a time so the
/// eight independent add chains overlap. Element order is unchanged from
/// [`matmul`]: ascending `k`, separate mul/add, zero-skip on `a[i,k]`.
#[inline(always)]
fn col_rows8(a_data: &[f32], b: &[f32], c: &mut [f32], row0: usize, k: usize) {
    let rows_here = c.len();
    let mut li = 0;
    while li + 8 <= rows_here {
        let base = (row0 + li) * k;
        let a0 = &a_data[base..base + k];
        let a1 = &a_data[base + k..base + 2 * k];
        let a2 = &a_data[base + 2 * k..base + 3 * k];
        let a3 = &a_data[base + 3 * k..base + 4 * k];
        let a4 = &a_data[base + 4 * k..base + 5 * k];
        let a5 = &a_data[base + 5 * k..base + 6 * k];
        let a6 = &a_data[base + 6 * k..base + 7 * k];
        let a7 = &a_data[base + 7 * k..base + 8 * k];
        let all8 = &a_data[base..base + 8 * k];
        let mut s0 = 0.0f32;
        let mut s1 = 0.0f32;
        let mut s2 = 0.0f32;
        let mut s3 = 0.0f32;
        let mut s4 = 0.0f32;
        let mut s5 = 0.0f32;
        let mut s6 = 0.0f32;
        let mut s7 = 0.0f32;
        if all8.iter().all(|&v| v != 0.0) {
            for kk in 0..k {
                let b_v = b[kk];
                s0 += a0[kk] * b_v;
                s1 += a1[kk] * b_v;
                s2 += a2[kk] * b_v;
                s3 += a3[kk] * b_v;
                s4 += a4[kk] * b_v;
                s5 += a5[kk] * b_v;
                s6 += a6[kk] * b_v;
                s7 += a7[kk] * b_v;
            }
        } else {
            for kk in 0..k {
                let b_v = b[kk];
                if a0[kk] != 0.0 {
                    s0 += a0[kk] * b_v;
                }
                if a1[kk] != 0.0 {
                    s1 += a1[kk] * b_v;
                }
                if a2[kk] != 0.0 {
                    s2 += a2[kk] * b_v;
                }
                if a3[kk] != 0.0 {
                    s3 += a3[kk] * b_v;
                }
                if a4[kk] != 0.0 {
                    s4 += a4[kk] * b_v;
                }
                if a5[kk] != 0.0 {
                    s5 += a5[kk] * b_v;
                }
                if a6[kk] != 0.0 {
                    s6 += a6[kk] * b_v;
                }
                if a7[kk] != 0.0 {
                    s7 += a7[kk] * b_v;
                }
            }
        }
        c[li] = s0;
        c[li + 1] = s1;
        c[li + 2] = s2;
        c[li + 3] = s3;
        c[li + 4] = s4;
        c[li + 5] = s5;
        c[li + 6] = s6;
        c[li + 7] = s7;
        li += 8;
    }
    while li < rows_here {
        let a_row = &a_data[(row0 + li) * k..(row0 + li + 1) * k];
        let mut s = 0.0f32;
        for kk in 0..k {
            let a_v = a_row[kk];
            if a_v != 0.0 {
                s += a_v * b[kk];
            }
        }
        c[li] = s;
        li += 1;
    }
}

/// `out = A * B` into a caller-owned buffer, resized (allocation-free after
/// warm-up) via [`Matrix::reset_zeroed`]. This is the serving-path kernel:
/// the preallocated output makes register tiling cheap, so the inner loop
/// accumulates `TILE`-wide column slabs in registers rather than re-loading
/// and re-storing the output row on every `k` step.
///
/// For any given `(A, B)` the result is **bit-identical** to `matmul(a, b)`:
/// each output element still accumulates `a[i,k] * b[k,j]` over `k` in
/// ascending order with separate mul/add (never FMA), and the `a_ik == 0.0`
/// skip is preserved — only the order across *columns* changes, which no
/// element observes. The identity is pinned by
/// `matmul_into_bit_identical_to_matmul`, and it is what lets the tape-free
/// inference runtime share parity tests with the training graph. Panics on
/// inner-dimension mismatch.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_into: inner dimensions differ ({:?} x {:?})",
        a.shape(),
        b.shape()
    );
    let started = ops::start();
    let (m, k) = a.shape();
    let n = b.cols();
    if n == 1 {
        out.reset_for_overwrite(m, 1);
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        crate::par::par_chunks_mut(out.as_mut_slice(), 1, |start, c_chunk| {
            col_rows8(a_data, b_data, c_chunk, start, k);
        });
        let flops = 2 * (m as u64) * (k as u64);
        let bytes = 4 * ((m * k) as u64 + k as u64 + m as u64);
        ops::record(OpClass::MatmulInto, flops, bytes, started);
        return;
    }
    if n.is_multiple_of(TILE) {
        // Every element lands in a register slab that is stored wholesale,
        // so the O(m·n) pre-zeroing memset would be pure overwritten waste.
        out.reset_for_overwrite(m, n);
    } else {
        out.reset_zeroed(m, n);
    }

    {
        let a_data = a.as_slice();
        let b_data = b.as_slice();
        crate::par::par_chunks_mut(out.as_mut_slice(), n, |start, c_chunk| {
            let row0 = start / n;
            let rows_here = c_chunk.len() / n;
            let mut li = 0;
            let mut rest = &mut c_chunk[..rows_here * n];
            while li + 4 <= rows_here {
                let i = row0 + li;
                let (quad, r) = rest.split_at_mut(4 * n);
                rest = r;
                let (c0, q) = quad.split_at_mut(n);
                let (c1, q) = q.split_at_mut(n);
                let (c2, c3) = q.split_at_mut(n);
                micro_rows4(
                    &a_data[i * k..(i + 1) * k],
                    &a_data[(i + 1) * k..(i + 2) * k],
                    &a_data[(i + 2) * k..(i + 3) * k],
                    &a_data[(i + 3) * k..(i + 4) * k],
                    b_data,
                    c0,
                    c1,
                    c2,
                    c3,
                    k,
                    n,
                );
                li += 4;
            }
            while li < rows_here {
                let i = row0 + li;
                let (c_row, r) = rest.split_at_mut(n);
                rest = r;
                micro_rows1(&a_data[i * k..(i + 1) * k], b_data, c_row, k, n);
                li += 1;
            }
        });
    }

    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let bytes = 4 * ((m * k) as u64 + (k * n) as u64 + (m * n) as u64);
    ops::record(OpClass::MatmulInto, flops, bytes, started);
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
    fn matmul_into_bit_identical_to_matmul() {
        for (m, k, n, seed) in [
            (7, 5, 9, 10),
            (150, 80, 170, 11),
            (1, 33, 1, 12),
            // n == 1 with enough rows to exercise the 8-row column kernel
            // and its scalar remainder.
            (43, 40, 1, 13),
        ] {
            let mut a = pseudo_random_matrix(m, k, seed);
            // Plant exact zeros so the sparse zero-skip paths are exercised,
            // not just the dense branch-free ones.
            for (idx, v) in a.as_mut_slice().iter_mut().enumerate() {
                if idx % 7 == 0 {
                    *v = 0.0;
                }
            }
            let b = pseudo_random_matrix(k, n, seed + 100);
            let fresh = matmul(&a, &b);
            // A dirty, differently-shaped scratch buffer must not leak in.
            let mut out = pseudo_random_matrix(3, 3, 99);
            matmul_into(&a, &b, &mut out);
            assert_eq!(out.shape(), fresh.shape());
            for (x, y) in out.as_slice().iter().zip(fresh.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            // Re-using the now-warm buffer is also exact.
            matmul_into(&a, &b, &mut out);
            assert_eq!(&out, &fresh);
        }
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
