//! Training: full-batch gradient descent (with momentum) and damped Newton.
//!
//! The objective everywhere is `J(θ) = (1/n) Σᵢ L(zᵢ, θ) + (λ/2)‖θ‖²` with
//! `λ = model.l2()`. Influence functions assume θ* is a stationary point of
//! `J`, so trainers iterate until the gradient norm is small, not merely
//! until the loss stops improving.

use crate::{Differentiable, Model};
use gopher_data::Encoded;
use gopher_linalg::{vecops, Cholesky, Matrix};

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Iterations (epochs for GD, Newton steps for Newton) performed.
    pub iterations: usize,
    /// Final objective value `J(θ)`.
    pub final_loss: f64,
    /// Final gradient norm `‖∇J(θ)‖₂`.
    pub grad_norm: f64,
    /// Whether the gradient tolerance was reached. [`fit_newton`] also sets
    /// it when the fit stops as a stall (no step along the Newton direction
    /// improves θ any further), in which case `grad_norm` may exceed the
    /// tolerance.
    pub converged: bool,
}

/// The regularized objective `J(θ)` on a dataset.
pub fn objective<M: Differentiable>(model: &M, data: &Encoded) -> f64 {
    let n = data.n_rows().max(1);
    let mut total = 0.0;
    for r in 0..data.n_rows() {
        total += model.loss(data.x.row(r), data.y[r]);
    }
    let theta = model.params();
    total / n as f64 + 0.5 * model.l2() * vecops::dot(theta, theta)
}

/// Writes `∇J(θ) = (1/n) Σ ∇L + λθ` into `out` (overwriting it).
pub fn full_gradient<M: Differentiable>(model: &M, data: &Encoded, out: &mut [f64]) {
    debug_assert_eq!(out.len(), model.n_params());
    out.iter_mut().for_each(|g| *g = 0.0);
    for r in 0..data.n_rows() {
        model.accumulate_grad(data.x.row(r), data.y[r], out);
    }
    let n = data.n_rows().max(1) as f64;
    let l2 = model.l2();
    for (g, t) in out.iter_mut().zip(model.params()) {
        *g = *g / n + l2 * t;
    }
}

/// Fraction of examples whose hard prediction matches the label.
pub fn accuracy<M: Model>(model: &M, data: &Encoded) -> f64 {
    if data.n_rows() == 0 {
        return 0.0;
    }
    let correct = (0..data.n_rows())
        .filter(|&r| model.predict(data.x.row(r)) == data.y[r])
        .count();
    correct as f64 / data.n_rows() as f64
}

/// Configuration for full-batch gradient descent with momentum.
#[derive(Debug, Clone)]
pub struct GdConfig {
    /// Step size.
    pub learning_rate: f64,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Stop when `‖∇J‖₂` falls below this.
    pub grad_tol: f64,
    /// Classical momentum coefficient in `[0, 1)`.
    pub momentum: f64,
}

impl Default for GdConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.5,
            max_epochs: 2000,
            grad_tol: 1e-6,
            momentum: 0.9,
        }
    }
}

/// Trains `model` in place by full-batch gradient descent.
pub fn fit_gd<M: Differentiable>(model: &mut M, data: &Encoded, cfg: &GdConfig) -> TrainReport {
    let p = model.n_params();
    let mut grad = vec![0.0; p];
    let mut velocity = vec![0.0; p];
    let mut iterations = 0;
    let mut grad_norm = f64::INFINITY;
    for epoch in 0..cfg.max_epochs {
        full_gradient(model, data, &mut grad);
        grad_norm = vecops::norm2(&grad);
        iterations = epoch;
        if grad_norm < cfg.grad_tol {
            break;
        }
        for ((v, g), t) in velocity.iter_mut().zip(&grad).zip(model.params_mut()) {
            *v = cfg.momentum * *v - cfg.learning_rate * g;
            *t += *v;
        }
    }
    TrainReport {
        iterations,
        final_loss: objective(model, data),
        grad_norm,
        converged: grad_norm < cfg.grad_tol,
    }
}

/// Configuration for damped Newton's method.
#[derive(Debug, Clone)]
pub struct NewtonConfig {
    /// Maximum Newton steps.
    pub max_iter: usize,
    /// Stop when `‖∇J‖₂` falls below this.
    pub grad_tol: f64,
    /// Initial Hessian damping (escalated automatically if the Hessian is
    /// not positive definite).
    pub damping: f64,
}

impl Default for NewtonConfig {
    fn default() -> Self {
        Self {
            max_iter: 50,
            grad_tol: 1e-10,
            damping: 1e-8,
        }
    }
}

/// Trains `model` in place by damped Newton with backtracking line search.
///
/// Each step solves `H s = ∇J` and backtracks on `J` from the full step
/// until `J` decreases. Near the optimum that comparison stops meaning
/// anything: once the predicted decrease `½ ∇Jᵀ s` is at or below the
/// rounding error of `J`'s n-term sum (`n·ε·|J|`), the full step is judged
/// by the gradient norm at the trial point instead, and taken if that norm
/// is smaller. A step that improves neither stops the fit as a *stall*,
/// which also counts as [`converged`](TrainReport::converged): no step
/// along the Newton direction makes θ measurably better for this data, so
/// the report's `grad_norm` may then sit above `grad_tol`.
///
/// `J` and `∇J` are evaluated once per accepted point and carried forward
/// into the next step and the report.
///
/// Practical for models with rank-one Hessians (logistic regression, SVM);
/// for the MLP each step assembles the Hessian from `n_params` exact
/// Hessian–vector products per row, which is usable for testing but slow —
/// prefer [`fit_gd`] there.
pub fn fit_newton<M: Differentiable>(
    model: &mut M,
    data: &Encoded,
    cfg: &NewtonConfig,
) -> TrainReport {
    let p = model.n_params();
    let n = data.n_rows().max(1) as f64;
    let mut grad = vec![0.0; p];
    full_gradient(model, data, &mut grad);
    let mut grad_norm = vecops::norm2(&grad);
    let mut loss = objective(model, data);
    let mut trial_grad = vec![0.0; p];
    let trial_at = |model: &M, step: &[f64], alpha: f64| {
        let mut trial = model.clone();
        for (t, s) in trial.params_mut().iter_mut().zip(step) {
            *t -= alpha * s;
        }
        trial
    };
    let mut iterations = 0;
    let mut stalled = false;
    for iter in 0..cfg.max_iter {
        iterations = iter;
        if grad_norm < cfg.grad_tol {
            break;
        }
        // Assemble H = (1/n) Σ ∇²L + λI.
        let mut h = Matrix::zeros(p, p);
        for r in 0..data.n_rows() {
            model.accumulate_hessian(data.x.row(r), data.y[r], &mut h);
        }
        h.scale(1.0 / n);
        h.add_diagonal(model.l2());
        let (chol, _) =
            Cholesky::factor_damped(&h, cfg.damping, 24).expect("damping escalation succeeds");
        let step = chol.solve(&grad);
        if 0.5 * vecops::dot(&grad, &step) <= n * f64::EPSILON * loss.abs() {
            // J's sum rounds at about n·ε·|J|, so it cannot resolve this
            // step's decrease: judge the full step by ∇J instead.
            let trial = trial_at(model, &step, 1.0);
            full_gradient(&trial, data, &mut trial_grad);
            let trial_norm = vecops::norm2(&trial_grad);
            if trial_norm >= grad_norm {
                stalled = true;
                break;
            }
            *model = trial;
            std::mem::swap(&mut grad, &mut trial_grad);
            grad_norm = trial_norm;
            loss = objective(model, data);
            continue;
        }
        // Backtracking line search on J.
        let mut alpha = 1.0;
        let mut improved = false;
        for _ in 0..30 {
            let trial = trial_at(model, &step, alpha);
            let trial_loss = objective(&trial, data);
            if trial_loss < loss {
                *model = trial;
                loss = trial_loss;
                improved = true;
                break;
            }
            alpha *= 0.5;
        }
        if !improved {
            // No step along the Newton direction improves the objective even
            // after 30 halvings: θ is numerically optimal for this data.
            stalled = true;
            break;
        }
        full_gradient(model, data, &mut grad);
        grad_norm = vecops::norm2(&grad);
    }
    TrainReport {
        iterations,
        final_loss: loss,
        grad_norm,
        converged: grad_norm < cfg.grad_tol || stalled,
    }
}

/// Trains with the method best suited to the model: Newton for models with
/// a rank-one Hessian, gradient descent otherwise.
pub fn fit_default<M: Differentiable>(model: &mut M, data: &Encoded) -> TrainReport {
    // Having a rank-one Hessian is a property of the model, not of the
    // example, so any input answers it.
    let probe = vec![0.0; model.n_inputs()];
    if model.rank_one(&probe, 0.0).is_some() {
        fit_newton(model, data, &NewtonConfig::default())
    } else {
        fit_gd(model, data, &GdConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearSvm, LogisticRegression, Mlp};
    use gopher_data::generators::{adult, german};
    use gopher_data::{Dataset, Encoder};
    use gopher_prng::Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn german_encoded(n: usize) -> Encoded {
        let d = german(n, 5);
        let enc = Encoder::fit(&d);
        enc.transform(&d)
    }

    /// The encoded training side of a 70/30 split of `raw` drawn with
    /// `Rng::new(seed)`, as sessions split and encode their data.
    fn train_split(raw: &Dataset, seed: u64) -> Encoded {
        let (train, _) = raw.train_test_split(0.3, &mut Rng::new(seed));
        Encoder::fit(&train).transform(&train)
    }

    /// Damped Newton that judges every step by `J` alone: up to 30
    /// halvings per step, and `J` and `∇J` evaluated again at the point it
    /// stops at. [`fit_newton`] must reproduce it bit for bit on every fit
    /// this loop finishes without stalling.
    fn fit_newton_reference<M: Differentiable>(
        model: &mut M,
        data: &Encoded,
        cfg: &NewtonConfig,
    ) -> TrainReport {
        let p = model.n_params();
        let n = data.n_rows().max(1) as f64;
        let mut grad = vec![0.0; p];
        let mut iterations = 0;
        let mut stalled = false;
        for iter in 0..cfg.max_iter {
            full_gradient(model, data, &mut grad);
            let grad_norm = vecops::norm2(&grad);
            iterations = iter;
            if grad_norm < cfg.grad_tol {
                break;
            }
            let mut h = Matrix::zeros(p, p);
            for r in 0..data.n_rows() {
                model.accumulate_hessian(data.x.row(r), data.y[r], &mut h);
            }
            h.scale(1.0 / n);
            h.add_diagonal(model.l2());
            let (chol, _) = Cholesky::factor_damped(&h, cfg.damping, 24).unwrap();
            let step = chol.solve(&grad);
            let base = objective(model, data);
            let mut alpha = 1.0;
            let mut improved = false;
            for _ in 0..30 {
                let mut trial = model.clone();
                for (t, s) in trial.params_mut().iter_mut().zip(&step) {
                    *t -= alpha * s;
                }
                if objective(&trial, data) < base {
                    model.params_mut().copy_from_slice(trial.params());
                    improved = true;
                    break;
                }
                alpha *= 0.5;
            }
            if !improved {
                stalled = true;
                break;
            }
        }
        full_gradient(model, data, &mut grad);
        let grad_norm = vecops::norm2(&grad);
        TrainReport {
            iterations,
            final_loss: objective(model, data),
            grad_norm,
            converged: grad_norm < cfg.grad_tol || stalled,
        }
    }

    /// A model that counts its per-example `loss` evaluations across all
    /// of its clones (the trainer clones a model for every trial point).
    #[derive(Clone)]
    struct CountLoss<M> {
        inner: M,
        calls: Arc<AtomicUsize>,
    }

    impl<M: Model> Model for CountLoss<M> {
        fn n_inputs(&self) -> usize {
            self.inner.n_inputs()
        }
        fn predict_proba(&self, x: &[f64]) -> f64 {
            self.inner.predict_proba(x)
        }
    }

    impl<M: Differentiable> Differentiable for CountLoss<M> {
        fn n_params(&self) -> usize {
            self.inner.n_params()
        }
        fn params(&self) -> &[f64] {
            self.inner.params()
        }
        fn params_mut(&mut self) -> &mut [f64] {
            self.inner.params_mut()
        }
        fn l2(&self) -> f64 {
            self.inner.l2()
        }
        fn loss(&self, x: &[f64], y: f64) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.loss(x, y)
        }
        fn accumulate_grad(&self, x: &[f64], y: f64, out: &mut [f64]) {
            self.inner.accumulate_grad(x, y, out);
        }
        fn accumulate_grad_proba(&self, x: &[f64], out: &mut [f64]) {
            self.inner.accumulate_grad_proba(x, out);
        }
        fn rank_one(&self, x: &[f64], y: f64) -> Option<crate::rank_one::Terms> {
            self.inner.rank_one(x, y)
        }
    }

    #[test]
    fn newton_converges_past_the_rounding_error_of_the_objective() {
        // The last steps of this fit predict decreases far below the
        // rounding error of J's 7,000-term sum: judged by J alone, it
        // stalls (at ‖∇J‖ = 3.1e-9 after 56 passes of J).
        let data = train_split(&german(10_000, 2022), 7);
        let cfg = NewtonConfig::default();
        let mut reference = LogisticRegression::new(data.n_cols(), 1e-3);
        let stalled = fit_newton_reference(&mut reference, &data, &cfg);
        assert!(stalled.grad_norm >= cfg.grad_tol, "{stalled:?}");

        let calls = Arc::new(AtomicUsize::new(0));
        let mut model = CountLoss {
            inner: LogisticRegression::new(data.n_cols(), 1e-3),
            calls: Arc::clone(&calls),
        };
        let report = fit_newton(&mut model, &data, &cfg);
        assert!(
            report.grad_norm < cfg.grad_tol,
            "grad norm {}",
            report.grad_norm
        );
        let calls = calls.load(Ordering::Relaxed);
        assert_eq!(calls % data.n_rows(), 0, "J is only evaluated in full");
        let passes = calls / data.n_rows();
        assert!(
            passes <= 2 * report.iterations,
            "{passes} passes of J over {} Newton steps",
            report.iterations
        );
    }

    fn assert_matches_reference<M: Differentiable>(model: M, data: &Encoded, what: &str) {
        let cfg = NewtonConfig::default();
        let mut reference = model.clone();
        let want = fit_newton_reference(&mut reference, data, &cfg);
        assert!(
            want.grad_norm < cfg.grad_tol,
            "{what}: the reference stalled at grad norm {}",
            want.grad_norm
        );
        let mut fitted = model;
        let got = fit_newton(&mut fitted, data, &cfg);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fitted.params()), bits(reference.params()), "{what}");
        assert_eq!(got.iterations, want.iterations, "{what}");
        assert_eq!(
            got.final_loss.to_bits(),
            want.final_loss.to_bits(),
            "{what}"
        );
        assert_eq!(got.grad_norm.to_bits(), want.grad_norm.to_bits(), "{what}");
        assert_eq!(got.converged, want.converged, "{what}");
    }

    #[test]
    fn newton_is_bit_identical_to_the_reference_where_it_never_stalls() {
        let german2k = train_split(&german(2_000, 7), 7);
        let adult4k = train_split(&adult(4_000, 7), 7);
        let cols = german2k.n_cols();
        assert_matches_reference(
            LogisticRegression::new(cols, 1e-3),
            &german2k,
            "German-2k LR",
        );
        assert_matches_reference(LinearSvm::new(cols, 1e-3), &german2k, "German-2k SVM");
        let cols = adult4k.n_cols();
        assert_matches_reference(LogisticRegression::new(cols, 1e-3), &adult4k, "Adult-4k LR");
    }

    #[test]
    fn newton_reaches_stationary_point_for_logistic() {
        let data = german_encoded(600);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        let report = fit_newton(&mut model, &data, &NewtonConfig::default());
        assert!(report.converged, "grad norm {}", report.grad_norm);
        assert!(report.grad_norm < 1e-8);
        let acc = accuracy(&model, &data);
        assert!(acc > 0.65, "training accuracy {acc}");
    }

    #[test]
    fn gd_approaches_newton_solution_on_logistic() {
        let data = german_encoded(300);
        let mut newton = LogisticRegression::new(data.n_cols(), 1e-2);
        fit_newton(&mut newton, &data, &NewtonConfig::default());
        let mut gd = LogisticRegression::new(data.n_cols(), 1e-2);
        let report = fit_gd(
            &mut gd,
            &data,
            &GdConfig {
                learning_rate: 0.5,
                max_epochs: 8000,
                grad_tol: 1e-7,
                momentum: 0.9,
            },
        );
        assert!(report.converged, "gd grad norm {}", report.grad_norm);
        let gap = objective(&gd, &data) - objective(&newton, &data);
        assert!(gap.abs() < 1e-5, "objective gap {gap}");
    }

    #[test]
    fn svm_trains_to_low_gradient() {
        let data = german_encoded(400);
        let mut model = LinearSvm::new(data.n_cols(), 1e-3);
        let report = fit_newton(&mut model, &data, &NewtonConfig::default());
        // Squared hinge is piecewise quadratic: Newton converges fast, but a
        // support-vector boundary crossing can stall it slightly above tol.
        assert!(report.grad_norm < 1e-5, "grad norm {}", report.grad_norm);
        assert!(accuracy(&model, &data) > 0.65);
    }

    #[test]
    fn mlp_trains_with_gd() {
        let data = german_encoded(300);
        let mut rng = Rng::new(3);
        let mut model = Mlp::new(data.n_cols(), 6, 1e-3, &mut rng);
        let before = objective(&model, &data);
        let report = fit_gd(
            &mut model,
            &data,
            &GdConfig {
                learning_rate: 0.3,
                max_epochs: 3000,
                grad_tol: 1e-5,
                momentum: 0.9,
            },
        );
        assert!(report.final_loss < before, "loss must decrease");
        assert!(report.grad_norm < 1e-3, "grad norm {}", report.grad_norm);
        assert!(accuracy(&model, &data) > 0.7);
    }

    #[test]
    fn objective_includes_regularization() {
        let data = german_encoded(50);
        let mut model = LogisticRegression::new(data.n_cols(), 1.0);
        model.params_mut().iter_mut().for_each(|t| *t = 1.0);
        let with_reg = objective(&model, &data);
        let mut unreg = LogisticRegression::new(data.n_cols(), 0.0);
        unreg.params_mut().iter_mut().for_each(|t| *t = 1.0);
        let without = objective(&unreg, &data);
        let p = model.n_params() as f64;
        assert!((with_reg - without - 0.5 * p).abs() < 1e-9);
    }

    #[test]
    fn full_gradient_is_zero_at_optimum() {
        let data = german_encoded(200);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-2);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        let mut g = vec![0.0; model.n_params()];
        full_gradient(&model, &data, &mut g);
        assert!(vecops::norm2(&g) < 1e-8);
    }

    #[test]
    fn warm_start_retraining_is_fast() {
        let data = german_encoded(400);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        // Remove 5% of rows and retrain from the previous optimum.
        let mask: Vec<bool> = (0..data.n_rows()).map(|r| r % 20 == 0).collect();
        let reduced = data.remove_rows(&mask);
        let mut warm = model.clone();
        let report = fit_newton(&mut warm, &reduced, &NewtonConfig::default());
        assert!(report.converged);
        assert!(
            report.iterations <= 10,
            "warm start took {} iterations",
            report.iterations
        );
    }
}
