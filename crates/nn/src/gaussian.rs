//! The probabilistic output head and Gaussian likelihood of the paper.
//!
//! §III-B: "a neural network predicts all parameters θ of a predefined
//! probability distribution p(z|θ) ... θ = (µ, σ) can be calculated as
//! µ = Wµᵀ h + bµ, σ = log(1 + exp(Wσᵀ h + bσ))". Training maximises the
//! log-likelihood (Algorithm 1 / Eq. 1); forecasting samples from p(·|θ)
//! ancestrally (Algorithm 2).

use crate::linear::Linear;
use crate::params::{Binding, ParamStore};
use rand::rngs::StdRng;
use rand::Rng;
use rpf_autodiff::Var;
use rpf_tensor::batched::dual_affine_into;
use rpf_tensor::{ops, Matrix};

/// Lower bound on sigma to keep the likelihood finite.
pub const SIGMA_FLOOR: f32 = 1e-3;

/// Numerically stable scalar softplus `log(1 + e^x)`.
///
/// The naive form `(1.0 + x.exp()).ln()` overflows to `inf` once `x ≳ 88`
/// (`e^88` exceeds `f32::MAX`); the equivalent `max(x, 0) + ln1p(e^{-|x|})`
/// never exponentiates a positive argument, so it is exact for large `x`
/// and returns `e^x`-accurate values for very negative `x`.
pub fn softplus(x: f32) -> f32 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// The paper's sigma link on a concrete pre-activation:
/// `σ = softplus(raw) + SIGMA_FLOOR`, overflow-safe at any `raw`.
pub fn sigma_from_raw(raw: f32) -> f32 {
    softplus(raw) + SIGMA_FLOOR
}

/// Gaussian distribution parameters for a batch, as tape nodes.
#[derive(Clone, Copy, Debug)]
pub struct GaussianParams {
    pub mu: Var,
    pub sigma: Var,
}

/// Projects a hidden state to `(µ, σ)` per the paper's link functions.
#[derive(Clone, Copy, Debug)]
pub struct GaussianHead {
    pub mu: Linear,
    pub sigma: Linear,
}

impl GaussianHead {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        hidden_dim: usize,
    ) -> GaussianHead {
        GaussianHead {
            mu: Linear::new(store, rng, &format!("{name}.mu"), hidden_dim, 1),
            sigma: Linear::new(store, rng, &format!("{name}.sigma"), hidden_dim, 1),
        }
    }

    /// `h` is `(batch, hidden)`; returns per-row `(µ, σ)` with
    /// `σ = softplus(Wσ h + bσ) + floor`.
    pub fn forward(&self, bind: &Binding<'_>, h: Var) -> GaussianParams {
        let t = bind.tape();
        let mu = self.mu.forward(bind, h);
        let sigma_raw = self.sigma.forward(bind, h);
        let sigma = t.add_scalar(t.softplus(sigma_raw), SIGMA_FLOOR);
        GaussianParams { mu, sigma }
    }

    /// Tape-free forward for the batched decode, with the weights read
    /// straight from `store`: `h` is `(batch, hidden)`; writes `(batch, 1)`
    /// `(mu, sigma)` into caller-owned outputs. The mu/sigma projections
    /// run as one fused pass over the block (`dual_affine_into`), then
    /// softplus and the sigma floor in place. Within a few ulps of
    /// [`GaussianHead::forward`]; row-independent, so each row's output is
    /// invariant to the rest of the batch.
    pub fn forward_batched(
        &self,
        store: &ParamStore,
        h: &Matrix,
        mu: &mut Matrix,
        sigma: &mut Matrix,
    ) {
        let _scope = rpf_obs::ops::class_scope(rpf_obs::ops::OpClass::GaussianHead);
        dual_affine_into(
            h,
            store.value(self.mu.w),
            store.value(self.mu.b).as_slice()[0],
            store.value(self.sigma.w),
            store.value(self.sigma.b).as_slice()[0],
            mu,
            sigma,
        );
        ops::softplus_assign(sigma);
        ops::add_scalar_assign(sigma, SIGMA_FLOOR);
    }
}

/// Weighted Gaussian negative log-likelihood (the negation of the paper's
/// Eq. 1, so lower is better):
///
/// `L = Σ_i w_i [ log σ_i + (z_i − µ_i)² / (2 σ_i²) ] / Σ_i w_i`
///
/// `weights` implements the paper's Fig 7 step 1 ("adding larger weights to
/// the loss for instances with rank changes").
pub fn gaussian_nll(
    bind: &Binding<'_>,
    params: GaussianParams,
    target: Var,
    weights: Option<Var>,
) -> Var {
    let t = bind.tape();
    let diff = t.sub(target, params.mu);
    let sq = t.square(diff);
    let var2 = t.scale(t.square(params.sigma), 2.0);
    let per_point = t.add(t.log(params.sigma), t.div(sq, var2));
    match weights {
        Some(w) => {
            let weighted = t.mul(per_point, w);
            let total_w = t.sum(w);
            t.div(t.sum(weighted), total_w)
        }
        None => t.mean(per_point),
    }
}

/// One standard-normal draw via Box–Muller. The scalar primitive behind
/// both the matrix samplers and the per-trajectory stream samplers — all
/// paths must consume the generator identically (two uniforms per normal)
/// so sequential and stream-parallel sampling stay bit-compatible.
pub fn draw_standard_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7..1.0f32);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// One draw from `N(mu, sigma)`.
pub fn draw_gaussian(rng: &mut StdRng, mu: f32, sigma: f32) -> f32 {
    mu + sigma * draw_standard_normal(rng)
}

/// One Student-t draw: `mu + sigma · Z / sqrt(V/k)` with `Z ~ N(0,1)` and
/// `V ~ chi²(k)` built from `k = max(ceil(nu), 3)` squared normals —
/// element-for-element the same recipe as [`sample_student_t`].
pub fn draw_student_t(rng: &mut StdRng, mu: f32, sigma: f32, nu: f32) -> f32 {
    let k = nu.ceil().max(3.0) as usize;
    let z = draw_standard_normal(rng);
    let chi2: f32 = (0..k).map(|_| draw_standard_normal(rng).powi(2)).sum();
    mu + sigma * z / (chi2 / k as f32).sqrt().max(1e-4)
}

/// Draw one sample per row from `N(mu, sigma)` given concrete parameter
/// values (forecast time, no tape involvement).
pub fn sample_gaussian(rng: &mut StdRng, mu: &Matrix, sigma: &Matrix) -> Matrix {
    assert_eq!(mu.shape(), sigma.shape(), "sample_gaussian shape mismatch");
    let mut out = mu.clone();
    for (o, &s) in out.as_mut_slice().iter_mut().zip(sigma.as_slice()) {
        *o += s * draw_standard_normal(rng);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rpf_autodiff::Tape;

    #[test]
    fn sigma_is_strictly_positive() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let head = GaussianHead::new(&mut store, &mut rng, "out", 8);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &store);
        let h = tape.leaf(Matrix::from_fn(5, 8, |r, c| {
            (r as f32 - 2.0) * (c as f32 - 4.0)
        }));
        let p = head.forward(&bind, h);
        let sigma = tape.value(p.sigma);
        assert!(sigma.as_slice().iter().all(|&s| s >= SIGMA_FLOOR));
    }

    #[test]
    fn nll_is_minimized_at_true_mean() {
        // For fixed sigma, NLL(mu = z) < NLL(mu != z).
        let tape = Tape::new();
        let store = ParamStore::new();
        let bind = Binding::new(&tape, &store);
        let z = tape.leaf(Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let sigma = tape.leaf(Matrix::full(3, 1, 1.0));

        let mu_exact = tape.leaf(Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let mu_off = tape.leaf(Matrix::from_vec(3, 1, vec![2.0, 3.0, 4.0]));
        let nll_exact = gaussian_nll(
            &bind,
            GaussianParams {
                mu: mu_exact,
                sigma,
            },
            z,
            None,
        );
        let nll_off = gaussian_nll(&bind, GaussianParams { mu: mu_off, sigma }, z, None);
        assert!(tape.scalar(nll_exact) < tape.scalar(nll_off));
    }

    #[test]
    fn weights_emphasize_selected_rows() {
        // Doubling the weight of a badly-predicted row increases the loss.
        let tape = Tape::new();
        let store = ParamStore::new();
        let bind = Binding::new(&tape, &store);
        let z = tape.leaf(Matrix::from_vec(2, 1, vec![0.0, 10.0]));
        let mu = tape.leaf(Matrix::from_vec(2, 1, vec![0.0, 0.0]));
        let sigma = tape.leaf(Matrix::full(2, 1, 1.0));

        let w_flat = tape.leaf(Matrix::from_vec(2, 1, vec![1.0, 1.0]));
        let w_hot = tape.leaf(Matrix::from_vec(2, 1, vec![1.0, 9.0]));
        let nll_flat = gaussian_nll(&bind, GaussianParams { mu, sigma }, z, Some(w_flat));
        let nll_hot = gaussian_nll(&bind, GaussianParams { mu, sigma }, z, Some(w_hot));
        assert!(tape.scalar(nll_hot) > tape.scalar(nll_flat));
    }

    #[test]
    fn fitting_mu_sigma_by_gradient_descent_recovers_distribution() {
        // Observe data from N(3, 0.5) and fit (mu, sigma) directly.
        let mut rng = StdRng::seed_from_u64(14);
        let data = sample_gaussian(
            &mut rng,
            &Matrix::full(256, 1, 3.0),
            &Matrix::full(256, 1, 0.5),
        );
        let mut store = ParamStore::new();
        let mu_p = store.register("mu", Matrix::zeros(1, 1));
        let s_p = store.register("sigma_raw", Matrix::zeros(1, 1));
        for _ in 0..400 {
            store.zero_grads();
            let tape = Tape::new();
            let bind = Binding::new(&tape, &store);
            // Broadcast scalar params over rows via matmul with a ones column.
            let ones = tape.leaf(Matrix::ones(256, 1));
            let mu = tape.matmul(ones, bind.var(mu_p));
            let sigma =
                tape.add_scalar(tape.softplus(tape.matmul(ones, bind.var(s_p))), SIGMA_FLOOR);
            let z = tape.leaf(data.clone());
            let nll = gaussian_nll(&bind, GaussianParams { mu, sigma }, z, None);
            let __g = bind.into_grads(nll);
            store.apply_grads(__g);
            store.update_each(|_, v, g| rpf_tensor::ops::axpy(v, -0.05, g));
        }
        let mu = store.value(mu_p).get(0, 0);
        let sigma = sigma_from_raw(store.value(s_p).get(0, 0));
        assert!((mu - 3.0).abs() < 0.15, "mu {mu}");
        assert!((sigma - 0.5).abs() < 0.15, "sigma {sigma}");
    }

    #[test]
    fn softplus_survives_extreme_preactivations() {
        // The naive (1 + e^x).ln() overflows at x ≈ 88.73; the stable form
        // must stay finite and near-identity far beyond it.
        for raw in [88.0f32, 100.0, 500.0, 1e4, f32::MAX.ln()] {
            let s = softplus(raw);
            assert!(s.is_finite(), "softplus({raw}) = {s}");
            assert!((s - raw).abs() < 1e-3, "softplus({raw}) = {s} should ≈ x");
            assert!(sigma_from_raw(raw).is_finite());
        }
        // Deep negative tail: positive, tiny, finite.
        for raw in [-88.0f32, -500.0, -1e4] {
            let s = softplus(raw);
            assert!(s.is_finite() && s >= 0.0, "softplus({raw}) = {s}");
        }
        // Agreement with the naive form where that form is safe.
        for raw in [-5.0f32, -0.5, 0.0, 0.5, 5.0, 20.0] {
            let naive = (1.0 + raw.exp()).ln();
            assert!((softplus(raw) - naive).abs() < 1e-5);
        }
        // sigma_from_raw is floored everywhere.
        assert!(sigma_from_raw(-1e4) >= SIGMA_FLOOR);
    }

    #[test]
    fn samples_follow_parameters() {
        let mut rng = StdRng::seed_from_u64(15);
        let mu = Matrix::full(2000, 1, -1.0);
        let sigma = Matrix::full(2000, 1, 2.0);
        let s = sample_gaussian(&mut rng, &mu, &sigma);
        let mean = s.mean();
        let var = s
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / s.len() as f32;
        assert!((mean + 1.0).abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.2, "std {}", var.sqrt());
    }
}

/// Student-t negative log-likelihood with fixed degrees of freedom `nu`
/// (location `mu`, scale `sigma`), dropping the mu/sigma-independent
/// normalising constant:
///
/// `L = Σ w_i [ log σ_i + (ν+1)/2 · log(1 + (z_i − µ_i)² / (ν σ_i²)) ] / Σ w_i`
///
/// Heavy tails make the likelihood robust to the rare large rank jumps at
/// pit stops — the ablation counterpart to the paper's Gaussian head.
pub fn student_t_nll(
    bind: &Binding<'_>,
    params: GaussianParams,
    target: Var,
    weights: Option<Var>,
    nu: f32,
) -> Var {
    assert!(nu > 2.0, "need nu > 2 for finite variance");
    let t = bind.tape();
    let diff = t.sub(target, params.mu);
    let sq = t.square(diff);
    let nu_var = t.scale(t.square(params.sigma), nu);
    let ratio = t.div(sq, nu_var);
    let log_term = t.scale(t.log(t.add_scalar(ratio, 1.0)), (nu + 1.0) / 2.0);
    let per_point = t.add(t.log(params.sigma), log_term);
    match weights {
        Some(w) => {
            let weighted = t.mul(per_point, w);
            t.div(t.sum(weighted), t.sum(w))
        }
        None => t.mean(per_point),
    }
}

/// Draw one Student-t sample per row: `mu + sigma · Z / sqrt(V/nu)` with
/// `Z ~ N(0,1)` and `V ~ chi²(nu)` built from `ceil(nu)` squared normals.
pub fn sample_student_t(rng: &mut StdRng, mu: &Matrix, sigma: &Matrix, nu: f32) -> Matrix {
    assert_eq!(mu.shape(), sigma.shape());
    let mut out = mu.clone();
    for (o, &s) in out.as_mut_slice().iter_mut().zip(sigma.as_slice()) {
        *o = draw_student_t(rng, *o, s, nu);
    }
    out
}

#[cfg(test)]
mod student_t_tests {
    use super::*;
    use rand::SeedableRng;
    use rpf_autodiff::Tape;

    #[test]
    fn t_nll_minimized_at_true_location() {
        let tape = Tape::new();
        let store = ParamStore::new();
        let bind = Binding::new(&tape, &store);
        let z = tape.leaf(Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let sigma = tape.leaf(Matrix::full(3, 1, 1.0));
        let exact = tape.leaf(Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let off = tape.leaf(Matrix::from_vec(3, 1, vec![3.0, 4.0, 5.0]));
        let a = student_t_nll(&bind, GaussianParams { mu: exact, sigma }, z, None, 5.0);
        let b = student_t_nll(&bind, GaussianParams { mu: off, sigma }, z, None, 5.0);
        assert!(tape.scalar(a) < tape.scalar(b));
    }

    #[test]
    fn t_nll_penalises_outliers_less_than_gaussian() {
        // The whole point of heavy tails: a 10-sigma outlier costs far less
        // under Student-t than under the Gaussian.
        let tape = Tape::new();
        let store = ParamStore::new();
        let bind = Binding::new(&tape, &store);
        let z = tape.leaf(Matrix::full(1, 1, 10.0));
        let mu = tape.leaf(Matrix::full(1, 1, 0.0));
        let sigma = tape.leaf(Matrix::full(1, 1, 1.0));
        let t_loss = student_t_nll(&bind, GaussianParams { mu, sigma }, z, None, 5.0);
        let g_loss = gaussian_nll(&bind, GaussianParams { mu, sigma }, z, None);
        assert!(
            tape.scalar(t_loss) < tape.scalar(g_loss) / 2.0,
            "t {} vs gaussian {}",
            tape.scalar(t_loss),
            tape.scalar(g_loss)
        );
    }

    #[test]
    fn t_nll_gradients_check_out() {
        let mu0 = Matrix::from_vec(4, 1, vec![0.3, -0.2, 0.8, 0.0]);
        let z = Matrix::from_vec(4, 1, vec![1.0, -1.0, 0.5, 2.0]);
        let raw_sigma = Matrix::from_vec(4, 1, vec![0.1, 0.5, -0.3, 0.2]);
        let err = rpf_autodiff::gradcheck(&mu0, 1e-2, |t, mu| {
            let z = t.leaf(z.clone());
            let rs = t.leaf(raw_sigma.clone());
            let sigma = t.add_scalar(t.softplus(rs), SIGMA_FLOOR);
            // Recreate the nll inline (gradcheck has no Binding).
            let diff = t.sub(z, mu);
            let sq = t.square(diff);
            let nu = 5.0f32;
            let nu_var = t.scale(t.square(sigma), nu);
            let ratio = t.div(sq, nu_var);
            let log_term = t.scale(t.log(t.add_scalar(ratio, 1.0)), (nu + 1.0) / 2.0);
            t.mean(t.add(t.log(sigma), log_term))
        });
        assert!(err < 2e-2, "gradient error {err}");
    }

    #[test]
    fn t_samples_are_centered_and_heavier_tailed() {
        let mut rng = StdRng::seed_from_u64(21);
        let mu = Matrix::full(4000, 1, 2.0);
        let sigma = Matrix::full(4000, 1, 1.0);
        let t = sample_student_t(&mut rng, &mu, &sigma, 5.0);
        let mean = t.mean();
        assert!((mean - 2.0).abs() < 0.15, "mean {mean}");
        // Tail mass beyond 3 sigma should exceed the Gaussian's ~0.3%.
        let tail = t
            .as_slice()
            .iter()
            .filter(|&&v| (v - 2.0).abs() > 3.0)
            .count() as f32
            / t.len() as f32;
        assert!(tail > 0.005, "tail fraction {tail} not heavy");
    }
}
