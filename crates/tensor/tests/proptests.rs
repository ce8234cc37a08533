//! Property-based tests of the matrix algebra laws the rest of the
//! reproduction silently relies on.

use proptest::prelude::*;
use rpf_tensor::matmul::{matmul, matmul_at, matmul_bt, matmul_naive};
use rpf_tensor::ops;
use rpf_tensor::par::PAR_THRESHOLD;
use rpf_tensor::Matrix;

fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..12, 1usize..12)
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!((x - y).abs() <= tol * scale, "{x} vs {y}");
    }
}

// ---- tape GEMM bit parity ----------------------------------------------
//
// The tape's three GEMMs share one register-tiled kernel. Each must produce
// the same bits as the plain loop nest it replaced, kept here as the
// reference: every element is mul-then-add in ascending `k`, no FMA.

/// `matmul`'s reference: i-k-j AXPY, skipping `a[i,k] == 0.0`.
fn ref_ikj_skip(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let a_ik = a.get(i, kk);
            if a_ik == 0.0 {
                continue;
            }
            for j in 0..n {
                c.set(i, j, c.get(i, j) + a_ik * b.get(kk, j));
            }
        }
    }
    c
}

/// `matmul_bt`'s reference: `C = A·Bᵀ`, one dot product per element, no skip.
fn ref_dot(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.rows();
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for kk in 0..k {
            acc += a.get(i, kk) * b.get(j, kk);
        }
        acc
    })
}

/// `matmul_at`'s reference: `C = Aᵀ·B` as rank-1 updates in ascending `k`,
/// skipping `a[k,i] == 0.0`.
fn ref_rank1_skip(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for kk in 0..k {
        for i in 0..m {
            let a_v = a.get(kk, i);
            if a_v == 0.0 {
                continue;
            }
            for j in 0..n {
                c.set(i, j, c.get(i, j) + a_v * b.get(kk, j));
            }
        }
    }
    c
}

/// Uniform `[-2, 2)` entries; when `zero_every > 0`, about one in
/// `zero_every` is an exact zero, half of those `-0.0`.
fn operand(rows: usize, cols: usize, seed: u64, zero_every: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        if zero_every > 0 && s.is_multiple_of(zero_every) {
            if (s >> 32) & 1 == 0 {
                0.0
            } else {
                -0.0
            }
        } else {
            ((s >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0
        }
    })
}

fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (idx, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {idx}: {x} vs {y}"
        );
    }
}

/// All three tape GEMMs at `(m, k, n)` against their references.
fn check_tape_gemms(m: usize, k: usize, n: usize, seed: u64, zero_every: u64) {
    let a = operand(m, k, seed, zero_every);
    let b = operand(k, n, seed ^ 1, zero_every);
    assert_bits(&matmul(&a, &b), &ref_ikj_skip(&a, &b), "matmul");
    let a_t = operand(k, m, seed ^ 2, zero_every);
    assert_bits(&matmul_at(&a_t, &b), &ref_rank1_skip(&a_t, &b), "matmul_at");
    let b_t = operand(n, k, seed ^ 3, zero_every);
    assert_bits(&matmul_bt(&a, &b_t), &ref_dot(&a, &b_t), "matmul_bt");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `m` in 0–9 runs every 4-row remainder; `n` straddles the 32-wide
    /// register tile; `k = 0` is the empty sum. Zero densities cover the
    /// branch-free dense path, rare zeros and the skipping path.
    #[test]
    fn tape_gemms_bitwise_match_reference_loops(
        m in 0usize..10,
        n in prop::sample::select(vec![1usize, 7, 31, 32, 33, 40, 160]),
        k in prop::sample::select(vec![0usize, 1, 16, 40, 160]),
        zero_every in prop::sample::select(vec![0u64, 64, 4]),
        seed in 0u64..1_000_000,
    ) {
        check_tape_gemms(m, k, n, seed, zero_every);
    }
}

/// Above `PAR_THRESHOLD` output elements the kernel splits the output by
/// rows across threads (on a multi-core machine); the bits must not move.
/// `m = 130` leaves a ragged 4-row remainder in every chunk.
#[test]
fn tape_gemms_bitwise_match_reference_loops_threaded() {
    let (m, k, n) = (130, 40, 160);
    assert!(m * n > PAR_THRESHOLD);
    check_tape_gemms(m, k, n, 2026, 64);
    check_tape_gemms(m, k, n, 7, 4);
}

proptest! {
    #[test]
    fn matmul_agrees_with_naive((m, k, n) in dims(), seed in 0u64..1000) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s >> 16) as u32 as f32 / u32::MAX as f32) - 0.5
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        assert_close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_transposed_variants_consistent((m, k, n) in dims(), seed in 0u64..1000) {
        let mut s = seed.wrapping_add(7);
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as u32 as f32 / u32::MAX as f32) - 0.5
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let c = matmul(&a, &b);
        assert_close(&matmul_bt(&a, &b.transpose()), &c, 1e-4);
        assert_close(&matmul_at(&a.transpose(), &b), &c, 1e-4);
    }

    #[test]
    fn matmul_distributes_over_add(a in mat(4, 5), b in mat(4, 5), c in mat(5, 3)) {
        let lhs = matmul(&ops::add(&a, &b), &c);
        let rhs = ops::add(&matmul(&a, &c), &matmul(&b, &c));
        assert_close(&lhs, &rhs, 1e-3);
    }

    #[test]
    fn transpose_is_involution(a in mat(6, 9)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_commutes(a in mat(3, 7), b in mat(3, 7)) {
        prop_assert_eq!(ops::add(&a, &b), ops::add(&b, &a));
    }

    #[test]
    fn mul_commutes(a in mat(3, 7), b in mat(3, 7)) {
        prop_assert_eq!(ops::mul(&a, &b), ops::mul(&b, &a));
    }

    #[test]
    fn sigmoid_bounded(a in mat(4, 4)) {
        let s = ops::sigmoid(&a);
        prop_assert!(s.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn tanh_bounded(a in mat(4, 4)) {
        let t = ops::tanh(&a);
        prop_assert!(t.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn softplus_nonnegative(a in mat(4, 4)) {
        let s = ops::softplus(&a);
        prop_assert!(s.as_slice().iter().all(|&v| v >= 0.0 && v.is_finite()));
    }

    #[test]
    fn softmax_rows_are_distributions(a in mat(5, 6)) {
        let s = ops::softmax_rows(&a);
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn hstack_then_slice_roundtrips(a in mat(3, 4), b in mat(3, 2)) {
        let h = Matrix::hstack(&[&a, &b]);
        prop_assert_eq!(h.slice_cols(0, 4), a);
        prop_assert_eq!(h.slice_cols(4, 6), b);
    }

    #[test]
    fn sum_rows_matches_total(a in mat(6, 3)) {
        let by_col = ops::sum_rows(&a);
        let total: f32 = by_col.as_slice().iter().sum();
        prop_assert!((total - a.sum()).abs() < 1e-3 * (1.0 + a.sum().abs()));
    }
}
