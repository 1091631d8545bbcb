//! Twice-differentiable binary classifiers.
//!
//! The paper's machinery (influence functions, one-step gradient descent,
//! update-based explanations) needs, for a trained model with parameters θ:
//!
//! * the per-example data loss `L(z, θ)` and its gradient `∇θ L(z, θ)`;
//! * exact Hessian–vector products `∇²θ L(z, θ) · v`: the [`rank_one`]
//!   kernel for the linear models, Pearlmutter's R-operator for the MLP;
//! * the predicted probability `p(x; θ)` and its parameter gradient
//!   `∇θ p(x; θ)` (used by the smooth fairness metrics).
//!
//! Three models cover the paper's evaluation:
//! [`LogisticRegression`], [`LinearSvm`] (squared hinge — twice
//! differentiable almost everywhere, with a sigmoid probability surrogate),
//! and [`Mlp`] (one hidden layer of 10 tanh units, the paper's feed-forward
//! network).
//!
//! L2 regularization strength is carried *by the model* (`Model::l2`) so the
//! trainer and the influence engine can never disagree about the objective:
//!
//! `J(θ) = (1/n) Σᵢ L(zᵢ, θ) + (λ/2)‖θ‖²`.

#![forbid(unsafe_code)]

mod forest;
mod logistic;
mod mlp;
pub mod rank_one;
mod svm;
pub mod train;

pub use forest::{Forest, ForestConfig};
pub use logistic::LogisticRegression;
pub use mlp::Mlp;
pub use svm::LinearSvm;

use gopher_linalg::Matrix;

/// A binary classifier: the prediction-side contract every model family
/// satisfies, differentiable or not.
///
/// Models are `Send + Sync`: the parallel query engine shares one trained
/// model across scorer threads and clones it into ground-truth retraining
/// workers, so a model must be plain data (parameter vectors for the
/// analytic families, bagged trees for [`Forest`]).
///
/// Everything gradient-shaped lives on the [`Differentiable`] subtrait, so
/// non-analytic families (tree ensembles) type-check against
/// prediction-level code and fail to *compile* — rather than panic — when
/// handed to Hessian-based machinery.
pub trait Model: Clone + Send + Sync {
    /// Number of input features (length of the `x` slices).
    fn n_inputs(&self) -> usize;

    /// Predicted probability of the favorable class, `p(x; θ) ∈ (0, 1)`.
    fn predict_proba(&self, x: &[f64]) -> f64;

    /// Hard prediction with the conventional 0.5 threshold.
    fn predict(&self, x: &[f64]) -> f64 {
        if self.predict_proba(x) >= 0.5 {
            1.0
        } else {
            0.0
        }
    }
}

/// A [`Model`] with a twice-differentiable per-example loss over an explicit
/// parameter vector θ — the contract the Hessian-based influence engine and
/// the gradient trainers require.
///
/// All gradient-like methods *accumulate* into their output buffer so callers
/// can sum over examples without intermediate allocations. Implementations
/// must keep `params`, `n_params` and `n_inputs` mutually consistent.
pub trait Differentiable: Model {
    /// Number of parameters (length of [`params`](Self::params)).
    fn n_params(&self) -> usize;

    /// Current parameter vector θ.
    fn params(&self) -> &[f64];

    /// Mutable parameter vector.
    fn params_mut(&mut self) -> &mut [f64];

    /// L2 regularization strength λ of the training objective.
    fn l2(&self) -> f64;

    /// Per-example data loss `L(z, θ)` (no regularization term).
    fn loss(&self, x: &[f64], y: f64) -> f64;

    /// Accumulates `∇θ L(z, θ)` into `out` (`out += grad`).
    ///
    /// Provided for rank-one models (see [`rank_one`](Self::rank_one)):
    /// it adds `g x̃` through [`rank_one::add_grad`]. Every other model
    /// must override it.
    ///
    /// # Panics
    /// If the model implements neither this method nor `rank_one`.
    fn accumulate_grad(&self, x: &[f64], y: f64, out: &mut [f64]) {
        let terms = self
            .rank_one(x, y)
            .expect("a model without rank-one structure must implement accumulate_grad");
        rank_one::add_grad(terms.grad, x, out);
    }

    /// Accumulates `∇θ L(z, θ)` into `out` and returns `L(z, θ)` from the
    /// same pass. The default evaluates gradient and loss separately;
    /// models whose gradient and loss share a decision value should
    /// override to compute it once. Implementations must return exactly
    /// [`loss`](Self::loss) and add exactly what
    /// [`accumulate_grad`](Self::accumulate_grad) adds — callers rely on
    /// the fused pass being bit-identical to the two-pass form.
    fn accumulate_grad_and_loss(&self, x: &[f64], y: f64, out: &mut [f64]) -> f64 {
        self.accumulate_grad(x, y, out);
        self.loss(x, y)
    }

    /// Accumulates `∇θ p(x; θ)` into `out`.
    fn accumulate_grad_proba(&self, x: &[f64], out: &mut [f64]);

    /// The rank-one structure of the per-example loss, when the model has
    /// one: the gradient scale `g` and Hessian weight `w` with
    /// `∇θ L(z, θ) = g x̃` and `∇²θ L(z, θ) = w x̃ x̃ᵀ`, where `x̃ = [x, 1]`
    /// (so `n_params == n_inputs + 1`). Any loss of `θᵀx̃` has this shape.
    /// A weight may be `0.0` (e.g. a non-support vector), in which case the
    /// Hessian contribution is the zero matrix.
    ///
    /// Returning `Some` is all a rank-one model implements of its gradient
    /// and Hessian: the provided [`accumulate_grad`](Self::accumulate_grad),
    /// [`accumulate_hessian_vec`](Self::accumulate_hessian_vec) and
    /// [`accumulate_hessian`](Self::accumulate_hessian) apply the two
    /// scalars through the [`rank_one`] kernels, as do the influence
    /// engine's stored per-row state and its incremental update. `None`
    /// (the default) is a property of the model, not of the example: such
    /// a model overrides those three methods instead.
    fn rank_one(&self, x: &[f64], y: f64) -> Option<rank_one::Terms> {
        let _ = (x, y);
        None
    }

    /// Accumulates the exact per-example Hessian–vector product
    /// `∇²θ L(z, θ) · v` into `out`.
    ///
    /// Provided for rank-one models (see [`rank_one`](Self::rank_one));
    /// every other model must override it.
    ///
    /// # Panics
    /// If the model implements neither this method nor `rank_one`.
    fn accumulate_hessian_vec(&self, x: &[f64], y: f64, v: &[f64], out: &mut [f64]) {
        let terms = self
            .rank_one(x, y)
            .expect("a model without rank-one structure must implement accumulate_hessian_vec");
        rank_one::add_hessian_vec(terms.weight, x, v, out);
    }

    /// Accumulates the per-example Hessian `∇²θ L(z, θ)` into `out`.
    ///
    /// Provided for rank-one models (see [`rank_one`](Self::rank_one)):
    /// it adds the outer product `w x̃ x̃ᵀ`. Every other model must
    /// override it.
    ///
    /// # Panics
    /// If the model implements neither this method nor `rank_one`.
    fn accumulate_hessian(&self, x: &[f64], y: f64, out: &mut Matrix) {
        let terms = self
            .rank_one(x, y)
            .expect("a model without rank-one structure must implement accumulate_hessian");
        rank_one::add_hessian(out, terms.weight, x);
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `ln(σ(z))`.
#[inline]
pub fn log_sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        -(-z).exp().ln_1p()
    } else {
        z - z.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0) < 1e-300);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn log_sigmoid_matches_ln_of_sigmoid() {
        for &z in &[-3.0, -0.5, 0.0, 0.5, 3.0] {
            assert!((log_sigmoid(z) - sigmoid(z).ln()).abs() < 1e-12, "z={z}");
        }
        // And stays finite where naive ln(sigmoid) underflows.
        assert!(log_sigmoid(-800.0).is_finite());
        assert!((log_sigmoid(-800.0) + 800.0).abs() < 1e-9);
    }
}
