//! One-hidden-layer feed-forward network (the paper's neural classifier).

use crate::{log_sigmoid, sigmoid, Differentiable, Model};
use gopher_linalg::{vecops, Matrix};
use gopher_prng::Rng;

/// A feed-forward network with one tanh hidden layer and a sigmoid output,
/// matching the paper's "1 layer, 10 nodes" configuration.
///
/// Architecture: `p(x) = σ(w₂ᵀ tanh(W₁ x + b₁) + b₂)` with cross-entropy
/// loss. Parameter layout (a single flat vector):
///
/// ```text
/// [ W₁ row 0 | W₁ row 1 | … | W₁ row h−1 | b₁ | w₂ | b₂ ]
/// ```
///
/// The per-example loss has no rank-one structure, so the model states its
/// gradient and its Hessian itself: the Hessian through an exact
/// Hessian–vector product, Pearlmutter's R-operator (see
/// [`accumulate_hessian_vec`](Differentiable::accumulate_hessian_vec)), and
/// the full per-example Hessian as `p` such products against basis vectors.
/// The loss is non-convex, so the Hessian at the optimum may be
/// indefinite; the influence engine damps it (see `gopher-influence`).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    params: Vec<f64>,
    n_inputs: usize,
    hidden: usize,
    l2: f64,
}

/// Intermediate activations reused between forward and backward passes.
struct Forward {
    /// Hidden activations `tanh(W₁x + b₁)`.
    h: Vec<f64>,
    /// Output probability.
    p: f64,
    /// Pre-sigmoid output.
    z: f64,
}

impl Mlp {
    /// Creates an MLP with `hidden` tanh units and small random initial
    /// weights (scaled by 1/√fan-in, drawn from `rng`).
    ///
    /// # Panics
    /// If `hidden == 0` or `l2` is negative/non-finite.
    pub fn new(n_inputs: usize, hidden: usize, l2: f64, rng: &mut Rng) -> Self {
        assert!(hidden > 0, "mlp needs at least one hidden unit");
        assert!(
            l2 >= 0.0 && l2.is_finite(),
            "l2 must be a non-negative finite value"
        );
        let n_params = hidden * n_inputs + hidden + hidden + 1;
        let mut params = Vec::with_capacity(n_params);
        let w1_scale = 1.0 / (n_inputs as f64).sqrt();
        for _ in 0..hidden * n_inputs {
            params.push(rng.normal_with(0.0, w1_scale));
        }
        params.extend(std::iter::repeat_n(0.0, hidden)); // b₁
        let w2_scale = 1.0 / (hidden as f64).sqrt();
        for _ in 0..hidden {
            params.push(rng.normal_with(0.0, w2_scale));
        }
        params.push(0.0); // b₂
        Self {
            params,
            n_inputs,
            hidden,
            l2,
        }
    }

    /// Number of hidden units.
    pub fn hidden_units(&self) -> usize {
        self.hidden
    }

    #[inline]
    fn w1_row(&self, unit: usize) -> &[f64] {
        let start = unit * self.n_inputs;
        &self.params[start..start + self.n_inputs]
    }

    #[inline]
    fn b1(&self) -> &[f64] {
        let start = self.hidden * self.n_inputs;
        &self.params[start..start + self.hidden]
    }

    #[inline]
    fn w2(&self) -> &[f64] {
        let start = self.hidden * self.n_inputs + self.hidden;
        &self.params[start..start + self.hidden]
    }

    #[inline]
    fn b2(&self) -> f64 {
        self.params[self.params.len() - 1]
    }

    fn forward(&self, x: &[f64]) -> Forward {
        debug_assert_eq!(x.len(), self.n_inputs);
        let mut h = Vec::with_capacity(self.hidden);
        let b1 = self.b1();
        for unit in 0..self.hidden {
            let a = vecops::dot(self.w1_row(unit), x) + b1[unit];
            h.push(a.tanh());
        }
        let z = vecops::dot(self.w2(), &h) + self.b2();
        Forward {
            p: sigmoid(z),
            h,
            z,
        }
    }

    /// Backpropagates `dz` (the derivative of the scalar objective w.r.t. the
    /// pre-sigmoid output `z`) into the parameter-gradient buffer.
    fn backprop(&self, x: &[f64], fwd: &Forward, dz: f64, out: &mut [f64]) {
        let h = &fwd.h;
        let w2 = self.w2();
        let d = self.n_inputs;
        let hidden = self.hidden;
        // Output layer.
        let w2_start = hidden * d + hidden;
        for (i, &hi) in h.iter().enumerate() {
            out[w2_start + i] += dz * hi;
        }
        out[hidden * d + hidden + hidden] += dz; // b₂
                                                 // Hidden layer.
        for unit in 0..hidden {
            let da = dz * w2[unit] * (1.0 - h[unit] * h[unit]);
            if da == 0.0 {
                continue;
            }
            let row = &mut out[unit * d..(unit + 1) * d];
            vecops::axpy(da, x, row);
            out[hidden * d + unit] += da; // b₁
        }
    }
}

impl Model for Mlp {
    fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        self.forward(x).p
    }
}

impl Differentiable for Mlp {
    fn n_params(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> &[f64] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn l2(&self) -> f64 {
        self.l2
    }

    fn loss(&self, x: &[f64], y: f64) -> f64 {
        let fwd = self.forward(x);
        -(y * log_sigmoid(fwd.z) + (1.0 - y) * log_sigmoid(-fwd.z))
    }

    fn accumulate_grad(&self, x: &[f64], y: f64, out: &mut [f64]) {
        let fwd = self.forward(x);
        self.backprop(x, &fwd, fwd.p - y, out);
    }

    fn accumulate_grad_proba(&self, x: &[f64], out: &mut [f64]) {
        let fwd = self.forward(x);
        self.backprop(x, &fwd, fwd.p * (1.0 - fwd.p), out);
    }

    /// Pearlmutter's R-operator (Pearlmutter 1994, "Fast Exact
    /// Multiplication by the Hessian"): with `R{·}` the directional
    /// derivative along `v`, `∇²θ L · v = R{∇θ L}`. One forward pass, one
    /// R-forward pass through the hidden layer to `R{z}`, and one backward
    /// pass that differentiates each term of the gradient's backpropagation.
    fn accumulate_hessian_vec(&self, x: &[f64], y: f64, v: &[f64], out: &mut [f64]) {
        let fwd = self.forward(x);
        self.hessian_vec_at(x, y, &fwd, v, &mut Vec::with_capacity(self.hidden), out);
    }

    /// The per-example Hessian, one basis product `H eⱼ` per row `j` (the
    /// exact Hessian is symmetric); the `p` products share one forward pass
    /// and one scratch buffer.
    fn accumulate_hessian(&self, x: &[f64], y: f64, out: &mut Matrix) {
        let p = self.n_params();
        debug_assert_eq!((out.rows(), out.cols()), (p, p));
        let fwd = self.forward(x);
        let mut r_h = Vec::with_capacity(self.hidden);
        let mut basis = vec![0.0; p];
        for j in 0..p {
            basis[j] = 1.0;
            self.hessian_vec_at(x, y, &fwd, &basis, &mut r_h, out.row_mut(j));
            basis[j] = 0.0;
        }
    }
}

impl Mlp {
    /// The R-operator's R-forward and backward passes of
    /// [`accumulate_hessian_vec`](Differentiable::accumulate_hessian_vec)
    /// at `fwd`, the forward pass of `x`; `r_h` is scratch for `R{h}`.
    fn hessian_vec_at(
        &self,
        x: &[f64],
        y: f64,
        fwd: &Forward,
        v: &[f64],
        r_h: &mut Vec<f64>,
        out: &mut [f64],
    ) {
        let (d, hidden) = (self.n_inputs, self.hidden);
        let b1_start = hidden * d;
        let w2_start = b1_start + hidden;
        let w2 = self.w2();
        let v_w2 = &v[w2_start..w2_start + hidden];
        // R-forward: R{aₖ} = v_W₁ₖᵀx + v_b₁ₖ, R{hₖ} = (1 − hₖ²) R{aₖ},
        // R{z} = v_w₂ᵀh + w₂ᵀR{h} + v_b₂.
        r_h.clear();
        let mut r_z = v[w2_start + hidden];
        for (unit, &h) in fwd.h.iter().enumerate() {
            let r_a = vecops::dot(&v[unit * d..(unit + 1) * d], x) + v[b1_start + unit];
            let rh = (1.0 - h * h) * r_a;
            r_z += v_w2[unit] * h + w2[unit] * rh;
            r_h.push(rh);
        }
        // Backward: δz = p − y and R{δz} = p(1 − p) R{z}.
        let dz = fwd.p - y;
        let r_dz = fwd.p * (1.0 - fwd.p) * r_z;
        for (unit, (&h, &rh)) in fwd.h.iter().zip(r_h.iter()).enumerate() {
            out[w2_start + unit] += r_dz * h + dz * rh;
            // δaₖ = δz w₂ₖ (1 − hₖ²), so R{δaₖ} =
            // (1 − hₖ²)(R{δz} w₂ₖ + δz v_w₂ₖ) − 2 δz w₂ₖ hₖ R{hₖ}.
            let r_da =
                (1.0 - h * h) * (r_dz * w2[unit] + dz * v_w2[unit]) - 2.0 * dz * w2[unit] * h * rh;
            vecops::axpy(r_da, x, &mut out[unit * d..(unit + 1) * d]);
            out[b1_start + unit] += r_da;
        }
        out[w2_start + hidden] += r_dz;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Mlp {
        let mut rng = Rng::new(42);
        Mlp::new(3, 4, 0.0, &mut rng)
    }

    #[test]
    fn parameter_layout_sizes() {
        let m = model();
        assert_eq!(m.n_params(), 4 * 3 + 4 + 4 + 1);
        assert_eq!(m.n_inputs(), 3);
        assert_eq!(m.hidden_units(), 4);
    }

    #[test]
    fn loss_matches_cross_entropy_of_proba() {
        let m = model();
        let x = [0.5, -1.0, 2.0];
        let p = m.predict_proba(&x);
        assert!((m.loss(&x, 1.0) + p.ln()).abs() < 1e-10);
        assert!((m.loss(&x, 0.0) + (1.0 - p).ln()).abs() < 1e-10);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let m = model();
        let x = [0.5, -1.0, 2.0];
        for &y in &[0.0, 1.0] {
            let mut g = vec![0.0; m.n_params()];
            m.accumulate_grad(&x, y, &mut g);
            let eps = 1e-6;
            for j in 0..m.n_params() {
                let mut mp = m.clone();
                mp.params_mut()[j] += eps;
                let mut mm = m.clone();
                mm.params_mut()[j] -= eps;
                let fd = (mp.loss(&x, y) - mm.loss(&x, y)) / (2.0 * eps);
                assert!(
                    (g[j] - fd).abs() < 1e-5,
                    "y={y} param {j}: analytic {} vs fd {fd}",
                    g[j]
                );
            }
        }
    }

    #[test]
    fn grad_proba_matches_finite_difference() {
        let m = model();
        let x = [0.2, 0.8, -0.4];
        let mut g = vec![0.0; m.n_params()];
        m.accumulate_grad_proba(&x, &mut g);
        let eps = 1e-6;
        for j in 0..m.n_params() {
            let mut mp = m.clone();
            mp.params_mut()[j] += eps;
            let mut mm = m.clone();
            mm.params_mut()[j] -= eps;
            let fd = (mp.predict_proba(&x) - mm.predict_proba(&x)) / (2.0 * eps);
            assert!((g[j] - fd).abs() < 1e-6, "param {j}: {} vs {fd}", g[j]);
        }
    }

    /// A German-encoded training set and a briefly trained 10-unit MLP on
    /// it: the size and regime the influence engine sees.
    fn german_model() -> (gopher_data::Encoded, Mlp) {
        let raw = gopher_data::generators::german(300, 11);
        let data = gopher_data::Encoder::fit(&raw).transform(&raw);
        let mut model = Mlp::new(data.n_cols(), 10, 1e-3, &mut Rng::new(5));
        let cfg = crate::train::GdConfig {
            max_epochs: 200,
            ..Default::default()
        };
        crate::train::fit_gd(&mut model, &data, &cfg);
        (data, model)
    }

    #[test]
    fn analytic_hessian_is_symmetric() {
        let (data, m) = german_model();
        let p = m.n_params();
        for r in [0, 7, 123] {
            let mut h = Matrix::zeros(p, p);
            m.accumulate_hessian(data.x.row(r), data.y[r], &mut h);
            let scale = h.max_abs();
            assert!(scale > 0.0);
            for i in 0..p {
                for j in 0..i {
                    assert!(
                        (h[(i, j)] - h[(j, i)]).abs() <= 1e-12 * scale,
                        "row {r}: asymmetry at ({i},{j}): {} vs {}",
                        h[(i, j)],
                        h[(j, i)]
                    );
                }
            }
        }
    }

    #[test]
    fn hessian_vec_matches_gradient_difference() {
        // H·v against the central difference (∇L(θ+εv) − ∇L(θ−εv)) / 2ε,
        // on German-encoded rows of both labels.
        use gopher_linalg::vecops::sub;
        let norm_inf = |x: &[f64]| x.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        let (data, m) = german_model();
        let pn = m.n_params();
        let mut rng = Rng::new(9);
        let v: Vec<f64> = (0..pn).map(|_| rng.normal()).collect();
        let eps = 1e-5 / norm_inf(&v);
        let shifted_grad = |sign: f64, r: usize| {
            let mut s = m.clone();
            for (t, vi) in s.params_mut().iter_mut().zip(&v) {
                *t += sign * eps * vi;
            }
            let mut g = vec![0.0; pn];
            s.accumulate_grad(data.x.row(r), data.y[r], &mut g);
            g
        };
        for r in [0, 1, 2, 50, 99, 200] {
            let mut hv = vec![0.0; pn];
            m.accumulate_hessian_vec(data.x.row(r), data.y[r], &v, &mut hv);
            let (gp, gm) = (shifted_grad(1.0, r), shifted_grad(-1.0, r));
            let fd: Vec<f64> = gp
                .iter()
                .zip(&gm)
                .map(|(a, b)| (a - b) / (2.0 * eps))
                .collect();
            let rel = norm_inf(&sub(&hv, &fd)) / norm_inf(&hv);
            assert!(rel <= 1e-7, "row {r}: relative error {rel}");
        }
    }

    /// The shared-forward Hessian is the basis Hessian–vector products,
    /// bit for bit.
    #[test]
    fn hessian_rows_are_basis_hessian_vector_products() {
        let (data, m) = german_model();
        let p = m.n_params();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for r in [0, 7, 123] {
            let (x, y) = (data.x.row(r), data.y[r]);
            let mut h = Matrix::zeros(p, p);
            m.accumulate_hessian(x, y, &mut h);
            let mut basis = vec![0.0; p];
            for j in 0..p {
                basis[j] = 1.0;
                let mut column = vec![0.0; p];
                m.accumulate_hessian_vec(x, y, &basis, &mut column);
                basis[j] = 0.0;
                assert_eq!(bits(h.row(j)), bits(&column), "row {r}, basis {j}");
            }
        }
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let mut r1 = Rng::new(7);
        let mut r2 = Rng::new(7);
        let a = Mlp::new(5, 3, 0.01, &mut r1);
        let b = Mlp::new(5, 3, 0.01, &mut r2);
        assert_eq!(a, b);
    }
}
