//! Lock-step batched LSTM kernels: FMA GEMM + fast-activation LSTM.
//!
//! The tape's kernels in [`crate::matmul`] and [`crate::ops`] use separate
//! mul/add (never FMA), skip zero multiplicands, and share the libm-backed
//! `sigmoid`/`tanh`. That caps the GEMM at the non-FMA vector roofline and
//! spends over a fifth of an LSTM step in scalar `exp` calls. Every serving
//! LSTM step — the encoder over the observed history and the Monte-Carlo
//! decoder — runs the kernels here instead, under a *tolerance-pinned*
//! contract (see `DESIGN.md` §13): results may differ from the tape in the
//! last few ulps per step, but must be **bit-deterministic for a fixed
//! batch layout** and — crucially — **row-independent**: every
//! output row is a pure function of its own input row and the weights, with
//! a fixed accumulation order, so rows decode to identical bits no matter
//! which other rows share the batch. Row independence is what lets the
//! serving layer fold coalesced requests into one GEMM without perturbing
//! any response.
//!
//! Three levers over the tape's kernels:
//! - [`matmul_fma_into`]: ascending-`k` accumulation contracted to
//!   `f32::mul_add` (compiles to `vfmadd` under `-C target-cpu=native`),
//!   no zero-skip branch — double the per-cycle flops of mul+add.
//! - [`fast_tanh`] / [`fast_sigmoid`]: Padé-style rational approximation
//!   (the classic 13/6-degree float tanh) that auto-vectorizes, replacing
//!   the scalar libm `exp` in the gate/state kernels. Max error vs libm
//!   tanh is a few ulps on the clamped domain.
//! - [`dual_affine_into`]: the Gaussian head's mu/sigma projections fused
//!   into one pass over the hidden block (two interleaved FMA dot products
//!   per row) instead of two `n == 1` GEMVs.
//!
//! GEMM time is attributed to the `matmul_batched` operator class; the
//! stand-alone gate/state sweeps report under the `lstm_gates_fused` /
//! `lstm_state_update` classes, which serving leaves empty (it runs the
//! tile-fused step, recorded as `matmul_batched`).

use crate::matrix::Matrix;
use rpf_obs::ops::{self, OpClass};

/// Register-tile width, measured best on this kernel shape (`n` =
/// 4·hidden = 160, small `k`): narrower 16-wide slabs halve the work
/// amortizing each A-element broadcast and lose ~25% throughput despite the
/// lower register pressure.
const TILE: usize = 32;

/// One `TILE`-wide FMA slab update for a single row: `acc = a_rk ⊛ b + acc`.
#[inline(always)]
fn slab_fma(acc: &mut [f32; TILE], a_rk: f32, b_slab: &[f32]) {
    for (c_v, &b_v) in acc.iter_mut().zip(b_slab) {
        *c_v = a_rk.mul_add(b_v, *c_v);
    }
}

/// Ragged-tail columns `j0..n` of one output row: per-element FMA dot in
/// ascending `k`, same element order as the tiled body. With `ACC` the
/// existing output element seeds the accumulation (`c += a·b`), which is
/// how the paired kernels add their second product.
#[inline(always)]
fn tail_fma<const ACC: bool>(
    a_row: &[f32],
    b_data: &[f32],
    c_tail: &mut [f32],
    j0: usize,
    n: usize,
) {
    for (jj, c_v) in c_tail.iter_mut().enumerate() {
        let j = j0 + jj;
        let mut acc = if ACC { *c_v } else { 0.0f32 };
        for (kk, &a_ik) in a_row.iter().enumerate() {
            acc = a_ik.mul_add(b_data[kk * n + j], acc);
        }
        *c_v = acc;
    }
}

/// Four output rows at once in `TILE`-wide register slabs, FMA-contracted
/// and branch-free: unlike [`crate::matmul`]'s micro kernel there is no
/// dense/sparse split — a zero in A contributes an FMA with a zero
/// multiplicand, which keeps each row's bit pattern a pure function of its
/// own values (no data-dependent control flow).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fma_rows4(
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
    let mut j0 = 0;
    while j0 + TILE <= n {
        let mut acc0 = [0.0f32; TILE];
        let mut acc1 = [0.0f32; TILE];
        let mut acc2 = [0.0f32; TILE];
        let mut acc3 = [0.0f32; TILE];
        for kk in 0..k {
            let b_slab = &b_data[kk * n + j0..kk * n + j0 + TILE];
            slab_fma(&mut acc0, a0[kk], b_slab);
            slab_fma(&mut acc1, a1[kk], b_slab);
            slab_fma(&mut acc2, a2[kk], b_slab);
            slab_fma(&mut acc3, a3[kk], b_slab);
        }
        c0[j0..j0 + TILE].copy_from_slice(&acc0);
        c1[j0..j0 + TILE].copy_from_slice(&acc1);
        c2[j0..j0 + TILE].copy_from_slice(&acc2);
        c3[j0..j0 + TILE].copy_from_slice(&acc3);
        j0 += TILE;
    }
    if j0 < n {
        tail_fma::<false>(a0, b_data, &mut c0[j0..], j0, n);
        tail_fma::<false>(a1, b_data, &mut c1[j0..], j0, n);
        tail_fma::<false>(a2, b_data, &mut c2[j0..], j0, n);
        tail_fma::<false>(a3, b_data, &mut c3[j0..], j0, n);
    }
}

/// Single-row variant of [`fma_rows4`] for the 1–3 leftover rows.
#[inline(always)]
fn fma_rows1(a_row: &[f32], b_data: &[f32], c_row: &mut [f32], k: usize, n: usize) {
    let mut j0 = 0;
    while j0 + TILE <= n {
        let mut acc = [0.0f32; TILE];
        for kk in 0..k {
            let b_slab = &b_data[kk * n + j0..kk * n + j0 + TILE];
            slab_fma(&mut acc, a_row[kk], b_slab);
        }
        c_row[j0..j0 + TILE].copy_from_slice(&acc);
        j0 += TILE;
    }
    if j0 < n {
        tail_fma::<false>(a_row, b_data, &mut c_row[j0..], j0, n);
    }
}

/// Four output rows of the *paired* product `C = A1·B1 + A2·B2`: both
/// contractions accumulate into the same register slabs before the single
/// store, so the output buffer is written exactly once — the fused LSTM
/// pre-activation (`x·Wˣ + h·Wʰ`) never round-trips through memory between
/// the two products. Accumulation order per element is fixed: all of `k1`
/// ascending, then all of `k2` ascending.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fma_rows4_pair(
    a1: [&[f32]; 4],
    b1_data: &[f32],
    k1: usize,
    a2: [&[f32]; 4],
    b2_data: &[f32],
    k2: usize,
    c_rows: [&mut [f32]; 4],
    n: usize,
) {
    let [c0, c1, c2, c3] = c_rows;
    let mut j0 = 0;
    while j0 + TILE <= n {
        let mut acc0 = [0.0f32; TILE];
        let mut acc1 = [0.0f32; TILE];
        let mut acc2 = [0.0f32; TILE];
        let mut acc3 = [0.0f32; TILE];
        for kk in 0..k1 {
            let b_slab = &b1_data[kk * n + j0..kk * n + j0 + TILE];
            slab_fma(&mut acc0, a1[0][kk], b_slab);
            slab_fma(&mut acc1, a1[1][kk], b_slab);
            slab_fma(&mut acc2, a1[2][kk], b_slab);
            slab_fma(&mut acc3, a1[3][kk], b_slab);
        }
        for kk in 0..k2 {
            let b_slab = &b2_data[kk * n + j0..kk * n + j0 + TILE];
            slab_fma(&mut acc0, a2[0][kk], b_slab);
            slab_fma(&mut acc1, a2[1][kk], b_slab);
            slab_fma(&mut acc2, a2[2][kk], b_slab);
            slab_fma(&mut acc3, a2[3][kk], b_slab);
        }
        c0[j0..j0 + TILE].copy_from_slice(&acc0);
        c1[j0..j0 + TILE].copy_from_slice(&acc1);
        c2[j0..j0 + TILE].copy_from_slice(&acc2);
        c3[j0..j0 + TILE].copy_from_slice(&acc3);
        j0 += TILE;
    }
    if j0 < n {
        for (i, c_row) in [c0, c1, c2, c3].into_iter().enumerate() {
            tail_fma::<false>(a1[i], b1_data, &mut c_row[j0..], j0, n);
            tail_fma::<true>(a2[i], b2_data, &mut c_row[j0..], j0, n);
        }
    }
}

/// Single-row variant of [`fma_rows4_pair`] for the 1–3 leftover rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fma_rows1_pair(
    a1_row: &[f32],
    b1_data: &[f32],
    k1: usize,
    a2_row: &[f32],
    b2_data: &[f32],
    k2: usize,
    c_row: &mut [f32],
    n: usize,
) {
    let mut j0 = 0;
    while j0 + TILE <= n {
        let mut acc = [0.0f32; TILE];
        for kk in 0..k1 {
            let b_slab = &b1_data[kk * n + j0..kk * n + j0 + TILE];
            slab_fma(&mut acc, a1_row[kk], b_slab);
        }
        for kk in 0..k2 {
            let b_slab = &b2_data[kk * n + j0..kk * n + j0 + TILE];
            slab_fma(&mut acc, a2_row[kk], b_slab);
        }
        c_row[j0..j0 + TILE].copy_from_slice(&acc);
        j0 += TILE;
    }
    if j0 < n {
        tail_fma::<false>(a1_row, b1_data, &mut c_row[j0..], j0, n);
        tail_fma::<true>(a2_row, b2_data, &mut c_row[j0..], j0, n);
    }
}

/// `out = A * B` with FMA contraction into a caller-owned buffer.
///
/// Contract: each output element is `Σ_k fma(a[i,k], b[k,j], ·)` over
/// ascending `k` with no zero-skip and no cross-row coupling — row `i` of
/// the output is bit-determined by row `i` of A and all of B, independent
/// of `m` and of the other rows. Not bit-identical to [`crate::matmul`]
/// (the rounding of a fused multiply-add differs from mul-then-add), but
/// within a couple of ulps per element; the batched decode parity suite
/// pins the end-to-end tolerance. Panics on inner-dimension mismatch.
pub fn matmul_fma_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul_fma_into: inner dimensions differ ({:?} x {:?})",
        a.shape(),
        b.shape()
    );
    let started = ops::start();
    let (m, k) = a.shape();
    let n = b.cols();
    // Every element is stored wholesale from a register slab or the tail
    // dot, so stale contents never leak through.
    out.reset_for_overwrite(m, n);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let mut li = 0;
    let mut rest = out.as_mut_slice();
    while li + 4 <= m {
        let (quad, r) = rest.split_at_mut(4 * n);
        rest = r;
        let (c0, q) = quad.split_at_mut(n);
        let (c1, q) = q.split_at_mut(n);
        let (c2, c3) = q.split_at_mut(n);
        fma_rows4(
            &a_data[li * k..(li + 1) * k],
            &a_data[(li + 1) * k..(li + 2) * k],
            &a_data[(li + 2) * k..(li + 3) * k],
            &a_data[(li + 3) * k..(li + 4) * k],
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
    while li < m {
        let (c_row, r) = rest.split_at_mut(n);
        rest = r;
        fma_rows1(&a_data[li * k..(li + 1) * k], b_data, c_row, k, n);
        li += 1;
    }
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let bytes = 4 * ((m * k) as u64 + (k * n) as u64 + (m * n) as u64);
    ops::record(OpClass::MatmulBatched, flops, bytes, started);
}

/// `out = A1·B1 + A2·B2` in one register-tiled pass: the second product
/// accumulates into the same slabs as the first, so `out` is written
/// exactly once. This is the LSTM pre-activation `gates = x·Wˣ + h·Wʰ` as a
/// stand-alone kernel; serving runs the same row kernels inside
/// [`lstm_step_fused_batched`], and this kernel, followed by
/// [`lstm_gates_fused_batched`] and [`lstm_state_update_batched`], is the
/// unfused pipeline the fused step is pinned bit-identical against.
///
/// Per output element the accumulation order is fixed (all of `B1`'s inner
/// dimension ascending, then all of `B2`'s), each row depends only on its
/// own rows of A1/A2 and the weights, and there is no data-dependent
/// branching — the row-independence and fixed-layout bit-determinism
/// contracts hold as for the single-product kernels. Panics on any
/// dimension mismatch.
pub fn matmul_fma2_into(a1: &Matrix, b1: &Matrix, a2: &Matrix, b2: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a1.cols(),
        b1.rows(),
        "matmul_fma2_into: first inner dimensions differ ({:?} x {:?})",
        a1.shape(),
        b1.shape()
    );
    assert_eq!(
        a2.cols(),
        b2.rows(),
        "matmul_fma2_into: second inner dimensions differ ({:?} x {:?})",
        a2.shape(),
        b2.shape()
    );
    assert_eq!(
        a1.rows(),
        a2.rows(),
        "matmul_fma2_into: row counts differ ({:?} vs {:?})",
        a1.shape(),
        a2.shape()
    );
    assert_eq!(
        b1.cols(),
        b2.cols(),
        "matmul_fma2_into: output widths differ ({:?} vs {:?})",
        b1.shape(),
        b2.shape()
    );
    let started = ops::start();
    let m = a1.rows();
    let (k1, k2) = (a1.cols(), a2.cols());
    let n = b1.cols();
    out.reset_for_overwrite(m, n);
    {
        let a1_data = a1.as_slice();
        let a2_data = a2.as_slice();
        let b1_data = b1.as_slice();
        let b2_data = b2.as_slice();
        let mut li = 0;
        let mut rest = out.as_mut_slice();
        let row1 = |r: usize| &a1_data[r * k1..(r + 1) * k1];
        let row2 = |r: usize| &a2_data[r * k2..(r + 1) * k2];
        while li + 4 <= m {
            let (quad, r) = rest.split_at_mut(4 * n);
            rest = r;
            let (c0, q) = quad.split_at_mut(n);
            let (c1, q) = q.split_at_mut(n);
            let (c2, c3) = q.split_at_mut(n);
            fma_rows4_pair(
                [row1(li), row1(li + 1), row1(li + 2), row1(li + 3)],
                b1_data,
                k1,
                [row2(li), row2(li + 1), row2(li + 2), row2(li + 3)],
                b2_data,
                k2,
                [c0, c1, c2, c3],
                n,
            );
            li += 4;
        }
        while li < m {
            let (c_row, r) = rest.split_at_mut(n);
            rest = r;
            fma_rows1_pair(row1(li), b1_data, k1, row2(li), b2_data, k2, c_row, n);
            li += 1;
        }
    }
    let flops = 2 * (m as u64) * (n as u64) * ((k1 + k2) as u64);
    let bytes = 4 * ((m * (k1 + k2)) as u64 + ((k1 + k2) * n) as u64 + (m * n) as u64);
    ops::record(OpClass::MatmulBatched, flops, bytes, started);
}

/// Rational-polynomial `tanh` (the classic 13/6-degree float fit, clamped
/// to ±9 where `tanh` saturates in f32): branch-free, so it vectorizes in
/// a loop where libm's `tanh` stays scalar. Max error vs libm is a few
/// ulps over the full domain.
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    const A1: f32 = 4.893_524_6e-3;
    const A3: f32 = 6.372_619_3e-4;
    const A5: f32 = 1.485_722_3e-5;
    const A7: f32 = 5.122_297_1e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-9.0, 9.0);
    let x2 = x * x;
    let mut p = x2.mul_add(A13, A11);
    p = x2.mul_add(p, A9);
    p = x2.mul_add(p, A7);
    p = x2.mul_add(p, A5);
    p = x2.mul_add(p, A3);
    p = x2.mul_add(p, A1);
    let p = x * p;
    let mut q = x2.mul_add(B6, B4);
    q = x2.mul_add(q, B2);
    q = x2.mul_add(q, B0);
    p / q
}

/// Logistic sigmoid via [`fast_tanh`]: `σ(x) = ½·tanh(x/2) + ½`. Inherits
/// the vectorizability and the few-ulp error bound.
#[inline(always)]
pub fn fast_sigmoid(x: f32) -> f32 {
    fast_tanh(0.5 * x).mul_add(0.5, 0.5)
}

/// One gate row `[i f g o]` activated in place: `v = act(v + bias)` with
/// sigmoid on the `i`/`f`/`o` blocks and tanh on `g`. Shared by the
/// sweeping kernel ([`lstm_gates_fused_batched`]) and the tile-fused step
/// ([`lstm_step_fused_batched`]) so both paths are bit-identical by
/// construction. Three simple two-stream loops — an element-interleaved
/// formulation (six streams per iteration) was tried and measured ~40%
/// slower because it defeats the auto-vectorizer.
#[inline(always)]
fn activate_gate_row(row: &mut [f32], b_if: &[f32], b_g: &[f32], b_o: &[f32], hidden: usize) {
    let (ifg, o_blk) = row.split_at_mut(3 * hidden);
    let (if_blk, g_blk) = ifg.split_at_mut(2 * hidden);
    for (v, &bv) in if_blk.iter_mut().zip(b_if) {
        *v = fast_sigmoid(*v + bv);
    }
    for (v, &bv) in g_blk.iter_mut().zip(b_g) {
        *v = fast_tanh(*v + bv);
    }
    for (v, &bv) in o_blk.iter_mut().zip(b_o) {
        *v = fast_sigmoid(*v + bv);
    }
}

/// One row of the LSTM state recurrence: `c = f⊙c + i⊙g`, `h = o⊙tanh(c)`
/// from an activated gate row. Shared by [`lstm_state_update_batched`] and
/// [`lstm_step_fused_batched`] — see [`activate_gate_row`].
#[inline(always)]
fn state_update_row(g_row: &[f32], c_row: &mut [f32], h_row: &mut [f32], hidden: usize) {
    let (i_blk, rest) = g_row.split_at(hidden);
    let (f_blk, rest) = rest.split_at(hidden);
    let (g_blk, o_blk) = rest.split_at(hidden);
    for ((c_v, h_v), (((&i_v, &f_v), &g_v), &o_v)) in c_row
        .iter_mut()
        .zip(h_row.iter_mut())
        .zip(i_blk.iter().zip(f_blk).zip(g_blk).zip(o_blk))
    {
        let c_new = f_v.mul_add(*c_v, i_v * g_v);
        *c_v = c_new;
        *h_v = o_v * fast_tanh(c_new);
    }
}

/// LSTM gate activation sweep: `gates = act(gates + bias_row)` in one
/// pass, gate layout `[i f g o]`, with [`fast_sigmoid`]/[`fast_tanh`] in
/// place of the libm activations. The recurrent product is already folded
/// into `gates` by the paired GEMM ([`matmul_fma2_into`]), so this sweep
/// only broadcasts the bias and applies the activation polynomials.
pub fn lstm_gates_fused_batched(gates: &mut Matrix, bias: &Matrix, hidden: usize) {
    assert_eq!(
        gates.cols(),
        4 * hidden,
        "lstm_gates_fused_batched: expected 4*hidden={} cols, got {}",
        4 * hidden,
        gates.cols()
    );
    assert_eq!(
        bias.shape(),
        (1, 4 * hidden),
        "lstm_gates_fused_batched: bias shape {:?}",
        bias.shape()
    );
    let started = ops::start();
    let cols = gates.cols();
    let b = bias.as_slice();
    let (b_if, b_rest) = b.split_at(2 * hidden);
    let (b_g, b_o) = b_rest.split_at(hidden);
    for row in gates.as_mut_slice().chunks_mut(cols) {
        activate_gate_row(row, b_if, b_g, b_o, hidden);
    }
    let n = gates.len() as u64;
    // One bias add, then one activation (~10 flops) per element.
    ops::record(OpClass::LstmGatesFused, 11 * n, 16 * n, started);
}

/// LSTM state update from activated gates:
/// `c = f⊙c + i⊙g` then `h = o⊙tanh(c)` with [`fast_tanh`] and the inner
/// add contracted to an FMA, vectorized over each row.
pub fn lstm_state_update_batched(gates: &Matrix, c: &mut Matrix, h: &mut Matrix, hidden: usize) {
    assert_eq!(
        gates.cols(),
        4 * hidden,
        "lstm_state_update_batched: gate width"
    );
    assert_eq!(
        c.shape(),
        (gates.rows(), hidden),
        "lstm_state_update_batched: c shape {:?}",
        c.shape()
    );
    assert_eq!(
        h.shape(),
        (gates.rows(), hidden),
        "lstm_state_update_batched: h shape {:?}",
        h.shape()
    );
    let started = ops::start();
    let gcols = gates.cols();
    for (row_idx, g_row) in gates.as_slice().chunks(gcols).enumerate() {
        let c_row = &mut c.as_mut_slice()[row_idx * hidden..(row_idx + 1) * hidden];
        let h_row = &mut h.as_mut_slice()[row_idx * hidden..(row_idx + 1) * hidden];
        state_update_row(g_row, c_row, h_row, hidden);
    }
    let n = (gates.rows() * hidden) as u64;
    // Three muls, one add and one tanh (~10 flops) per state element.
    ops::record(OpClass::LstmStateUpdate, 14 * n, 56 * n, started);
}

/// One whole batched LSTM layer-step, tile-fused: for each 4-row tile the
/// paired GEMM (`x·Wˣ + h·Wʰ`), the gate activation, and the state
/// recurrence run back-to-back on a tile-local gate buffer before the next
/// tile starts. The `[batch × 4·hidden]` pre-activation block — megabytes
/// at decode batch sizes, and pure traffic — is never materialised:
/// `tile_gates` holds only `4 × 4·hidden` floats, so pre-activations live
/// their whole life in L1. Compared to the three-kernel pipeline
/// ([`matmul_fma2_into`] → [`lstm_gates_fused_batched`] →
/// [`lstm_state_update_batched`]) this removes three full passes over the
/// gate block per layer-step; the arithmetic is the same code
/// ([`fma_rows4_pair`]/[`fma_rows1_pair`], [`activate_gate_row`],
/// [`state_update_row`]) in the same order, so the results are
/// bit-identical to the pipeline — the unit test below pins that.
///
/// `h` and `c` are updated in place. Row independence holds: tile `t`
/// reads only its own rows of `x` and `h` (the rows it then overwrites),
/// so outputs per row are a pure function of that row's inputs and the
/// weights regardless of batch size — the property the decode parity
/// suite's fold-invariance tests rely on. Whole-call operator time is
/// attributed to `matmul_batched` (the dominant phase) with the
/// activation/state arithmetic included in its kernel split; the separate
/// `lstm_gates_fused` / `lstm_state_update` classes stay empty on this
/// path.
#[allow(clippy::too_many_arguments)]
pub fn lstm_step_fused_batched(
    x: &Matrix,
    w_ih: &Matrix,
    w_hh: &Matrix,
    bias: &Matrix,
    h: &mut Matrix,
    c: &mut Matrix,
    hidden: usize,
    tile_gates: &mut Matrix,
) {
    let m = x.rows();
    let n = 4 * hidden;
    assert_eq!(
        w_ih.shape(),
        (x.cols(), n),
        "lstm_step_fused_batched: w_ih shape {:?} for input width {}",
        w_ih.shape(),
        x.cols()
    );
    assert_eq!(
        w_hh.shape(),
        (hidden, n),
        "lstm_step_fused_batched: w_hh shape {:?}",
        w_hh.shape()
    );
    assert_eq!(
        bias.shape(),
        (1, n),
        "lstm_step_fused_batched: bias shape {:?}",
        bias.shape()
    );
    assert_eq!(
        h.shape(),
        (m, hidden),
        "lstm_step_fused_batched: h shape {:?} for batch {}",
        h.shape(),
        m
    );
    assert_eq!(
        c.shape(),
        (m, hidden),
        "lstm_step_fused_batched: c shape {:?}",
        c.shape()
    );
    let started = ops::start();
    let k1 = x.cols();
    let k2 = hidden;
    tile_gates.reset_for_overwrite(4, n);
    let x_data = x.as_slice();
    let b1_data = w_ih.as_slice();
    let b2_data = w_hh.as_slice();
    let b = bias.as_slice();
    let (b_if, b_rest) = b.split_at(2 * hidden);
    let (b_g, b_o) = b_rest.split_at(hidden);
    let x_row = |r: usize| &x_data[r * k1..(r + 1) * k1];
    let mut li = 0;
    while li + 4 <= m {
        {
            let hs = h.as_slice();
            let (t0, tr) = tile_gates.as_mut_slice().split_at_mut(n);
            let (t1, tr) = tr.split_at_mut(n);
            let (t2, t3) = tr.split_at_mut(n);
            fma_rows4_pair(
                [x_row(li), x_row(li + 1), x_row(li + 2), x_row(li + 3)],
                b1_data,
                k1,
                [
                    &hs[li * k2..(li + 1) * k2],
                    &hs[(li + 1) * k2..(li + 2) * k2],
                    &hs[(li + 2) * k2..(li + 3) * k2],
                    &hs[(li + 3) * k2..(li + 4) * k2],
                ],
                b2_data,
                k2,
                [t0, t1, t2, t3],
                n,
            );
        }
        for t_row in tile_gates.as_mut_slice().chunks_mut(n) {
            activate_gate_row(t_row, b_if, b_g, b_o, hidden);
        }
        let cs = c.as_mut_slice();
        let hs = h.as_mut_slice();
        for (r, t_row) in tile_gates.as_slice().chunks(n).enumerate() {
            let row = li + r;
            state_update_row(
                t_row,
                &mut cs[row * hidden..(row + 1) * hidden],
                &mut hs[row * hidden..(row + 1) * hidden],
                hidden,
            );
        }
        li += 4;
    }
    while li < m {
        {
            let hs = h.as_slice();
            let t0 = &mut tile_gates.as_mut_slice()[..n];
            fma_rows1_pair(
                x_row(li),
                b1_data,
                k1,
                &hs[li * k2..(li + 1) * k2],
                b2_data,
                k2,
                t0,
                n,
            );
        }
        activate_gate_row(&mut tile_gates.as_mut_slice()[..n], b_if, b_g, b_o, hidden);
        state_update_row(
            &tile_gates.as_slice()[..n],
            &mut c.as_mut_slice()[li * hidden..(li + 1) * hidden],
            &mut h.as_mut_slice()[li * hidden..(li + 1) * hidden],
            hidden,
        );
        li += 1;
    }
    let mm = m as u64;
    let hd = hidden as u64;
    let nn = n as u64;
    let kk = (k1 + k2) as u64;
    // The paired GEMM, then the gate pass (bias add + activation per gate
    // element) and the state pass (three muls, one add, one tanh per state
    // element), each activation counted at ~10 flops.
    let flops = 2 * mm * nn * kk + 11 * mm * nn + 14 * mm * hd;
    let bytes = 4 * (mm * kk + kk * nn + mm * nn) + 16 * mm * nn + 56 * mm * hd;
    ops::record(OpClass::MatmulBatched, flops, bytes, started);
}

/// Two fused affine column projections over the same input block:
/// `out0[i] = h[i]·w0 + b0`, `out1[i] = h[i]·w1 + b1`, with `w0`/`w1` of
/// shape `(k, 1)`. The Gaussian head's mu/sigma GEMV pair hits this every
/// decode step; fusing them halves the passes over the hidden block and
/// interleaves two independent FMA chains per row. Accumulation is
/// ascending-`k` FMA per output element, row-independent like
/// [`matmul_fma_into`].
pub fn dual_affine_into(
    h: &Matrix,
    w0: &Matrix,
    b0: f32,
    w1: &Matrix,
    b1: f32,
    out0: &mut Matrix,
    out1: &mut Matrix,
) {
    let (m, k) = h.shape();
    assert_eq!(
        w0.shape(),
        (k, 1),
        "dual_affine_into: w0 shape {:?}",
        w0.shape()
    );
    assert_eq!(
        w1.shape(),
        (k, 1),
        "dual_affine_into: w1 shape {:?}",
        w1.shape()
    );
    let started = ops::start();
    out0.reset_for_overwrite(m, 1);
    out1.reset_for_overwrite(m, 1);
    let h_data = h.as_slice();
    let w0_data = w0.as_slice();
    let w1_data = w1.as_slice();
    let o0 = out0.as_mut_slice();
    let o1 = out1.as_mut_slice();
    for i in 0..m {
        let h_row = &h_data[i * k..(i + 1) * k];
        let mut s0 = 0.0f32;
        let mut s1 = 0.0f32;
        for (kk, &h_v) in h_row.iter().enumerate() {
            s0 = h_v.mul_add(w0_data[kk], s0);
            s1 = h_v.mul_add(w1_data[kk], s1);
        }
        o0[i] = s0 + b0;
        o1[i] = s1 + b1;
    }
    let flops = (4 * m * k + 2 * m) as u64;
    let bytes = 4 * (m * k + 2 * k + 2 * m) as u64;
    ops::record(OpClass::MatmulBatched, flops, bytes, started);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_naive;

    fn pseudo_random_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 8) as f32 / (1 << 24) as f32) - 0.5
        })
    }

    #[test]
    fn matmul_fma2_matches_sum_of_products() {
        // Odd row counts exercise the 4-row body plus the 1-row remainder;
        // n = 37 exercises the ragged tail columns.
        for (m, k1, k2, n, seed) in [(9, 5, 11, 37, 1), (100, 16, 40, 160, 2), (3, 40, 40, 64, 3)] {
            let x = pseudo_random_matrix(m, k1, seed);
            let wx = pseudo_random_matrix(k1, n, seed + 10);
            let h = pseudo_random_matrix(m, k2, seed + 20);
            let wh = pseudo_random_matrix(k2, n, seed + 30);
            let px = matmul_naive(&x, &wx);
            let ph = matmul_naive(&h, &wh);
            let mut out = pseudo_random_matrix(2, 2, 77); // dirty scratch
            matmul_fma2_into(&x, &wx, &h, &wh, &mut out);
            assert_eq!(out.shape(), (m, n));
            for i in 0..m {
                for j in 0..n {
                    let want = px.get(i, j) + ph.get(i, j);
                    let got = out.get(i, j);
                    assert!(
                        (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                        "({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_fma2_rows_are_batch_independent_and_deterministic() {
        let x = pseudo_random_matrix(10, 16, 51);
        let wx = pseudo_random_matrix(16, 50, 52);
        let h = pseudo_random_matrix(10, 24, 53);
        let wh = pseudo_random_matrix(24, 50, 54);
        let mut full = Matrix::zeros(0, 0);
        let mut again = Matrix::zeros(0, 0);
        matmul_fma2_into(&x, &wx, &h, &wh, &mut full);
        matmul_fma2_into(&x, &wx, &h, &wh, &mut again);
        for (u, v) in full.as_slice().iter().zip(again.as_slice()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        for i in 0..10 {
            let xi = Matrix::from_fn(1, 16, |_, c| x.get(i, c));
            let hi = Matrix::from_fn(1, 24, |_, c| h.get(i, c));
            let mut solo = Matrix::zeros(0, 0);
            matmul_fma2_into(&xi, &wx, &hi, &wh, &mut solo);
            for (u, v) in solo.as_slice().iter().zip(full.row(i)) {
                assert_eq!(u.to_bits(), v.to_bits(), "row {i} depends on batch");
            }
        }
    }

    #[test]
    fn matmul_fma_matches_naive_within_tolerance() {
        for (m, k, n, seed) in [
            (7, 5, 9, 1),
            (100, 17, 160, 2),
            (33, 40, 1, 3),
            (4, 32, 64, 4),
        ] {
            let mut a = pseudo_random_matrix(m, k, seed);
            // Exact zeros must flow through the (skip-free) FMA unchanged.
            for (idx, v) in a.as_mut_slice().iter_mut().enumerate() {
                if idx % 7 == 0 {
                    *v = 0.0;
                }
            }
            let b = pseudo_random_matrix(k, n, seed + 100);
            let reference = matmul_naive(&a, &b);
            let mut out = pseudo_random_matrix(3, 3, 99); // dirty scratch
            matmul_fma_into(&a, &b, &mut out);
            assert_eq!(out.shape(), reference.shape());
            for (x, y) in out.as_slice().iter().zip(reference.as_slice()) {
                assert!((x - y).abs() <= 1e-5 * (1.0 + y.abs()), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_fma_rows_are_batch_independent() {
        // Row i's bits must not depend on which other rows share the batch:
        // compute a 10-row product, then re-run each row as a 1-row product
        // and as part of a shuffled 3-row product.
        let a = pseudo_random_matrix(10, 21, 11);
        let b = pseudo_random_matrix(21, 50, 12);
        let mut full = Matrix::zeros(0, 0);
        matmul_fma_into(&a, &b, &mut full);
        for i in 0..10 {
            let single = Matrix::from_fn(1, 21, |_, c| a.get(i, c));
            let mut out = Matrix::zeros(0, 0);
            matmul_fma_into(&single, &b, &mut out);
            for (x, y) in out.as_slice().iter().zip(full.row(i)) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i} depends on batch");
            }
            let trio = Matrix::from_fn(3, 21, |r, c| a.get([9 - i, i, (i + 3) % 10][r], c));
            let mut out3 = Matrix::zeros(0, 0);
            matmul_fma_into(&trio, &b, &mut out3);
            for (x, y) in out3.row(1).iter().zip(full.row(i)) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i} depends on neighbours");
            }
        }
    }

    #[test]
    fn fast_activations_track_libm() {
        let mut worst_tanh = 0.0f32;
        let mut worst_sig = 0.0f32;
        for i in -4000..=4000 {
            let x = i as f32 * 0.005; // [-20, 20]
            worst_tanh = worst_tanh.max((fast_tanh(x) - x.tanh()).abs());
            worst_sig = worst_sig.max((fast_sigmoid(x) - crate::scalar::sigmoid(x)).abs());
        }
        assert!(worst_tanh < 2e-6, "fast_tanh max err {worst_tanh}");
        assert!(worst_sig < 2e-6, "fast_sigmoid max err {worst_sig}");
        assert_eq!(fast_tanh(f32::INFINITY), fast_tanh(9.0));
        assert!(fast_tanh(f32::NAN).is_nan() || fast_tanh(f32::NAN).abs() <= 1.0);
    }

    #[test]
    fn batched_lstm_kernels_track_reference() {
        use crate::ops::{add, add_row, mul, sigmoid, tanh};
        let hidden = 16;
        let batch = 9;
        let gx = pseudo_random_matrix(batch, 4 * hidden, 21);
        let gh = pseudo_random_matrix(batch, 4 * hidden, 22);
        let bias = pseudo_random_matrix(1, 4 * hidden, 23);
        let c0 = pseudo_random_matrix(batch, hidden, 24);

        // Reference: the tape's elementwise chain in `LstmCell::step`'s op
        // order (add, broadcast bias, per-block activations, state update).
        let pre = add_row(&add(&gx, &gh), &bias);
        let i = sigmoid(&pre.slice_cols(0, hidden));
        let f = sigmoid(&pre.slice_cols(hidden, 2 * hidden));
        let g = tanh(&pre.slice_cols(2 * hidden, 3 * hidden));
        let o = sigmoid(&pre.slice_cols(3 * hidden, 4 * hidden));
        let c_a = add(&mul(&f, &c0), &mul(&i, &g));
        let h_a = mul(&o, &tanh(&c_a));

        // The batched path folds gh into the pre-activations inside the
        // paired GEMM before the fused sweep; emulate that here so both
        // pipelines see the same pre-activation totals.
        let mut gates_b = add(&gx, &gh);
        let mut c_b = c0.clone();
        let mut h_b = Matrix::zeros(batch, hidden);
        lstm_gates_fused_batched(&mut gates_b, &bias, hidden);
        lstm_state_update_batched(&gates_b, &mut c_b, &mut h_b, hidden);

        for (x, y) in c_a.as_slice().iter().zip(c_b.as_slice()) {
            assert!((x - y).abs() < 1e-5, "c {x} vs {y}");
        }
        for (x, y) in h_a.as_slice().iter().zip(h_b.as_slice()) {
            assert!((x - y).abs() < 1e-5, "h {x} vs {y}");
        }
    }

    #[test]
    fn fused_step_matches_three_kernel_pipeline_bitwise() {
        // Batch 9 exercises both the 4-row tile body and the 1-row
        // remainder; the fused step must be bit-identical to the
        // three-kernel pipeline it replaces.
        let hidden = 16;
        let batch = 9;
        let x = pseudo_random_matrix(batch, 7, 51);
        let w_ih = pseudo_random_matrix(7, 4 * hidden, 52);
        let w_hh = pseudo_random_matrix(hidden, 4 * hidden, 53);
        let bias = pseudo_random_matrix(1, 4 * hidden, 54);
        let h0 = pseudo_random_matrix(batch, hidden, 55);
        let c0 = pseudo_random_matrix(batch, hidden, 56);

        let mut h_a = h0.clone();
        let mut c_a = c0.clone();
        let mut gates = Matrix::zeros(0, 0);
        matmul_fma2_into(&x, &w_ih, &h_a, &w_hh, &mut gates);
        lstm_gates_fused_batched(&mut gates, &bias, hidden);
        lstm_state_update_batched(&gates, &mut c_a, &mut h_a, hidden);

        let mut h_b = h0.clone();
        let mut c_b = c0.clone();
        let mut tile = Matrix::zeros(0, 0);
        lstm_step_fused_batched(
            &x, &w_ih, &w_hh, &bias, &mut h_b, &mut c_b, hidden, &mut tile,
        );

        for (a, b) in h_a.as_slice().iter().zip(h_b.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "h {a} vs {b}");
        }
        for (a, b) in c_a.as_slice().iter().zip(c_b.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "c {a} vs {b}");
        }
    }

    #[test]
    fn dual_affine_matches_two_gemvs() {
        let h = pseudo_random_matrix(37, 40, 31);
        let w0 = pseudo_random_matrix(40, 1, 32);
        let w1 = pseudo_random_matrix(40, 1, 33);
        let r0 = matmul_naive(&h, &w0);
        let r1 = matmul_naive(&h, &w1);
        let mut out0 = Matrix::zeros(0, 0);
        let mut out1 = Matrix::zeros(0, 0);
        dual_affine_into(&h, &w0, 0.25, &w1, -0.5, &mut out0, &mut out1);
        for i in 0..37 {
            assert!((out0.get(i, 0) - (r0.get(i, 0) + 0.25)).abs() < 1e-5);
            assert!((out1.get(i, 0) - (r1.get(i, 0) - 0.5)).abs() < 1e-5);
        }
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let a = pseudo_random_matrix(13, 19, 41);
        let b = pseudo_random_matrix(19, 37, 42);
        let mut x = Matrix::zeros(0, 0);
        let mut y = Matrix::zeros(0, 0);
        matmul_fma_into(&a, &b, &mut x);
        matmul_fma_into(&a, &b, &mut y);
        for (u, v) in x.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
    }
}
