//! Linear SVM with squared-hinge loss.

use crate::rank_one::Terms;
use crate::{sigmoid, Differentiable, Model};
use gopher_linalg::vecops;

/// A linear support vector machine trained with the *squared* hinge loss,
/// which (unlike the plain hinge) is differentiable everywhere and twice
/// differentiable except on the measure-zero set `margin = 1` — satisfying
/// the paper's smoothness requirement for influence functions.
///
/// With `ỹ = 2y − 1 ∈ {−1, +1}` and margin `m = ỹ (wᵀx + b)`:
/// * loss `L = max(0, 1 − m)²`
/// * gradient `∇θL = −2 max(0, 1 − m) ỹ x̃`
/// * Hessian `∇²θL = 2 x̃ x̃ᵀ` if `m < 1`, else `0`
///
/// stated as the rank-one terms `g = −2 max(0, 1 − m) ỹ` and `w` (2 or 0).
///
/// Probabilities use the sigmoid of the decision value (a fixed-scale Platt
/// calibration). This surrogate is what the smooth fairness metrics and
/// their θ-gradients are computed from; hard predictions use the sign of the
/// decision function, consistent with `σ(z) ≥ 0.5 ⇔ z ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    params: Vec<f64>,
    n_inputs: usize,
    l2: f64,
}

impl LinearSvm {
    /// Creates a zero-initialized SVM for `n_inputs` features.
    ///
    /// # Panics
    /// If `l2` is negative or non-finite.
    pub fn new(n_inputs: usize, l2: f64) -> Self {
        assert!(
            l2 >= 0.0 && l2.is_finite(),
            "l2 must be a non-negative finite value"
        );
        Self {
            params: vec![0.0; n_inputs + 1],
            n_inputs,
            l2,
        }
    }

    /// The decision-function value `wᵀx + b`.
    #[inline]
    pub fn decision(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n_inputs);
        vecops::dot(&self.params[..self.n_inputs], x) + self.params[self.n_inputs]
    }

    /// The hinge slack `max(0, 1 − m)` for a labeled example.
    #[inline]
    fn slack(&self, x: &[f64], y: f64) -> (f64, f64) {
        let ty = 2.0 * y - 1.0;
        let margin = ty * self.decision(x);
        ((1.0 - margin).max(0.0), ty)
    }
}

impl Model for LinearSvm {
    fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(self.decision(x))
    }
}

impl Differentiable for LinearSvm {
    fn n_params(&self) -> usize {
        self.n_inputs + 1
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
        let (slack, _) = self.slack(x, y);
        slack * slack
    }

    fn accumulate_grad_proba(&self, x: &[f64], out: &mut [f64]) {
        let p = self.predict_proba(x);
        let w = p * (1.0 - p);
        vecops::axpy(w, x, &mut out[..self.n_inputs]);
        out[self.n_inputs] += w;
    }

    #[inline]
    fn rank_one(&self, x: &[f64], y: f64) -> Option<Terms> {
        // Beyond the margin the slack is zero, and so are both terms.
        let (slack, ty) = self.slack(x, y);
        Some(Terms {
            grad: -2.0 * slack * ty,
            weight: if slack > 0.0 { 2.0 } else { 0.0 },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_linalg::Matrix;

    fn model() -> LinearSvm {
        let mut m = LinearSvm::new(2, 0.0);
        m.params_mut().copy_from_slice(&[1.0, -0.5, 0.1]);
        m
    }

    #[test]
    fn loss_zero_beyond_margin() {
        let m = model();
        // decision(x) = 3.1 for x = [3, 0.2]; label 1 → margin 3.1 > 1.
        let x = [3.0, 0.2];
        assert_eq!(m.loss(&x, 1.0), 0.0);
        let mut g = vec![0.0; 3];
        m.accumulate_grad(&x, 1.0, &mut g);
        assert_eq!(g, vec![0.0; 3], "no gradient beyond the margin");
        // Same point with label 0 is violated: margin = −3.1.
        assert!(m.loss(&x, 0.0) > 0.0);
    }

    #[test]
    fn gradient_matches_finite_difference_inside_margin() {
        let m = model();
        let x = [0.3, 0.4]; // decision 0.2 → inside margin for both labels
        for &y in &[0.0, 1.0] {
            let mut g = vec![0.0; 3];
            m.accumulate_grad(&x, y, &mut g);
            let eps = 1e-6;
            for j in 0..3 {
                let mut mp = m.clone();
                mp.params_mut()[j] += eps;
                let mut mm = m.clone();
                mm.params_mut()[j] -= eps;
                let fd = (mp.loss(&x, y) - mm.loss(&x, y)) / (2.0 * eps);
                assert!(
                    (g[j] - fd).abs() < 1e-5,
                    "y={y} param {j}: {} vs {fd}",
                    g[j]
                );
            }
        }
    }

    #[test]
    fn hessian_vec_matches_full_hessian() {
        let m = model();
        let x = [0.3, 0.4];
        let y = 0.0;
        let mut h = Matrix::zeros(3, 3);
        m.accumulate_hessian(&x, y, &mut h);
        let v = [1.0, 2.0, -0.5];
        let mut hv = vec![0.0; 3];
        m.accumulate_hessian_vec(&x, y, &v, &mut hv);
        let expected = h.matvec(&v);
        for j in 0..3 {
            assert!((hv[j] - expected[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn hessian_zero_beyond_margin() {
        let m = model();
        let x = [3.0, 0.2];
        let mut h = Matrix::zeros(3, 3);
        m.accumulate_hessian(&x, 1.0, &mut h);
        assert_eq!(h.max_abs(), 0.0);
    }

    #[test]
    fn rank_one_structure_matches_full_hessian() {
        let m = model();
        // Inside the margin: weight 2, x̃ = [x, 1].
        let x = [0.3, 0.4];
        let w = m.rank_one(&x, 0.0).expect("SVM is rank-1").weight;
        assert_eq!(w, 2.0);
        let mut h = Matrix::zeros(3, 3);
        m.accumulate_hessian(&x, 0.0, &mut h);
        let aug = [0.3, 0.4, 1.0];
        for i in 0..3 {
            for j in 0..3 {
                assert!((h[(i, j)] - w * aug[i] * aug[j]).abs() < 1e-12);
            }
        }
        // Beyond the margin: zero terms match the zero gradient and Hessian.
        let far = [3.0, 0.2];
        let terms = m.rank_one(&far, 1.0).expect("SVM is rank-1");
        assert_eq!((terms.grad, terms.weight), (0.0, 0.0));
    }

    #[test]
    fn predictions_follow_decision_sign() {
        let m = model();
        assert_eq!(m.predict(&[3.0, 0.2]), 1.0);
        assert_eq!(m.predict(&[-3.0, 0.2]), 0.0);
        assert!(m.predict_proba(&[3.0, 0.2]) > 0.5);
        assert!(m.predict_proba(&[-3.0, 0.2]) < 0.5);
    }
}
