//! Scalar transcendental primitives shared by every elementwise kernel.
//!
//! There is exactly one tape-side `sigmoid` and one `tanh` in the
//! workspace: every training-graph op routes through the functions here,
//! and so does every layer that serves on the tape (the PitModel, the
//! Transformer). The batched LSTM kernels use the faster
//! `batched::fast_tanh` / `fast_sigmoid` under a pinned tolerance instead.
//!
//! The implementations are branch-free polynomial forms (Cephes-style `expf`
//! with Cody–Waite range reduction) instead of `libm` calls so that LLVM can
//! auto-vectorize the elementwise loops in [`crate::ops`]. On the serving
//! path the LSTM gate activations are ~35% of decode walltime with `libm`;
//! the vectorized forms cut that several-fold while staying within ~2 ulp of
//! the reference, and training and tape-served inference use the same
//! scalars.

/// Natural exponential, branch-free.
///
/// Inputs are clamped to `[-87.3, 88.7]`; beyond that range the exact result
/// underflows to `0` / exceeds `f32::MAX` anyway, and the clamp keeps the
/// `2^n` exponent construction in range. Accuracy is ~2 ulp over the clamped
/// domain. `NaN` propagates.
#[inline(always)]
// The literals below are kept digit-for-digit as published (Cephes
// coefficients, exact Cody–Waite split) so they can be checked against the
// reference; clippy would truncate them to the shortest roundtripping form.
#[allow(clippy::excessive_precision)]
pub fn exp(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // 1.5 * 2^23: adding then subtracting rounds to the nearest integer for
    // |t| < 2^22 without an explicit `round` call (which does not lower to a
    // single vector instruction on every target).
    const MAGIC: f32 = 12_582_912.0;
    // Cody–Waite split of ln 2: the high part is exact in f32, so
    // `x - n*LN2_HI` is exact and the low part restores the residual.
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;

    let x = x.clamp(-87.3, 88.7);
    let t = x * LOG2_E + MAGIC;
    let n = t - MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;

    // Degree-5 minimax polynomial for (e^r - 1 - r) / r^2 on [-ln2/2, ln2/2]
    // (coefficients from Cephes `expf`).
    let p = 1.987_569_15e-4;
    let p = p * r + 1.398_199_95e-3;
    let p = p * r + 8.333_451_9e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_55e-1;
    let p = p * r + 5.000_000_1e-1;
    let z = (r * r) * p + r + 1.0;

    // Scale by 2^n through the exponent bits. The integer n is still sitting
    // in the low mantissa bits of `t` (= MAGIC + n with a fixed exponent), so
    // it can be moved into exponent position with pure integer ops on the bit
    // pattern: bits(t) = E | (0x40_0000 + n), and adding `127 - 0x40_0000`
    // then shifting left by 23 yields `(n + 127) << 23` — E's contribution
    // overflows out of the word entirely. This avoids a float→int cast, whose
    // saturating semantics (`fptosi.sat`) have no vector form on x86 and
    // would force LLVM to scalarize the whole loop. n ∈ [-126, 128] after the
    // clamp, so the construction never produces a subnormal exponent.
    let scale = f32::from_bits(t.to_bits().wrapping_add(0xFFC0_007F) << 23);
    z * scale
}

/// Logistic sigmoid `1 / (1 + e^-x)`.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Hyperbolic tangent via `tanh x = sign(x) · (1 - 2t/(1+t))`, `t = e^-2|x|`.
///
/// The form only ever exponentiates non-positive arguments, so it cannot
/// overflow; saturation to ±1 falls out of `t → 0`.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let t = exp(-2.0 * x.abs());
    let m = 1.0 - 2.0 * (t / (1.0 + t));
    m.copysign(x)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exp_close_to_libm() {
        let mut worst = 0.0f32;
        let mut x = -87.0f32;
        while x < 88.0 {
            let got = super::exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.037;
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
    }

    #[test]
    fn exp_edges() {
        // The input clamp floors deep-underflow results at exp(-87.3) — tiny
        // but not zero; downstream sigmoid/tanh saturate exactly regardless.
        assert!(super::exp(-1000.0) < 1.3e-38);
        assert!(super::exp(1000.0) >= f32::MAX);
        assert!(super::exp(f32::NAN).is_nan());
        assert_eq!(super::exp(0.0), 1.0);
    }

    #[test]
    fn sigmoid_close_to_reference() {
        let mut x = -30.0f32;
        while x < 30.0 {
            let got = super::sigmoid(x);
            let want = (1.0f64 / (1.0 + (-(x as f64)).exp())) as f32;
            assert!(
                (got - want).abs() < 1e-6,
                "sigmoid({x}) = {got}, want {want}"
            );
            x += 0.013;
        }
        assert_eq!(super::sigmoid(-100.0), 0.0);
        assert_eq!(super::sigmoid(100.0), 1.0);
    }

    #[test]
    fn tanh_close_to_reference() {
        let mut x = -20.0f32;
        while x < 20.0 {
            let got = super::tanh(x);
            let want = (x as f64).tanh() as f32;
            assert!((got - want).abs() < 1e-6, "tanh({x}) = {got}, want {want}");
            x += 0.011;
        }
        assert_eq!(super::tanh(0.0), 0.0);
        assert_eq!(super::tanh(50.0), 1.0);
        assert_eq!(super::tanh(-50.0), -1.0);
        // Sign of zero is preserved (matters for copysign-based forms).
        assert!(super::tanh(-0.0).is_sign_negative());
    }
}
