//! The influence engine: precomputation and parameter-change estimators.

use gopher_data::Encoded;
use gopher_linalg::{conjugate_gradient, vecops, Cholesky, Matrix, SparseRows};
use gopher_models::train::{fit_default, full_gradient, objective, NewtonConfig, TrainReport};
use gopher_models::{rank_one, Differentiable};

/// Relative parameter drift (since the last full Hessian assembly) beyond
/// which an incremental update gives up and rebuilds the engine from scratch.
/// The stored Hessian is evaluated at the parameters of the last full
/// assembly; each warm retrain moves θ a little, and once the accumulated
/// move exceeds this bound the curvature is considered stale. Estimator
/// error scales with the drift, so 1% staleness is well below the
/// approximation error of the influence estimators themselves.
const UPDATE_DRIFT_TOL: f64 = 1e-2;

/// Quasi-Newton iterations allowed for the warm retrain inside
/// [`InfluenceEngine::update`] before handing over to the full trainer.
const WARM_RETRAIN_MAX_ITER: usize = 12;

/// Relative residual target of [`Estimator::NewtonStep`]'s conjugate
/// gradient solve.
const NEWTON_CG_TOL: f64 = 1e-10;

/// Iteration cap of that solve (further capped at `4p`).
const NEWTON_CG_MAX_ITER: usize = 500;

/// Which approximation of the retraining effect to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// Sum of single-point influence functions (paper §4.1.1, first order).
    FirstOrder,
    /// Second-order group influence (paper Eq. 10 / Basu et al. 2020).
    SecondOrder,
    /// Matrix-free Newton step on the reduced objective (our extension).
    NewtonStep,
    /// One explicit gradient-descent step (paper Eq. 13) with this learning
    /// rate.
    OneStepGd {
        /// Learning rate η of the single step.
        learning_rate: f64,
    },
}

impl Estimator {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Self::FirstOrder => "first-order IF",
            Self::SecondOrder => "second-order IF",
            Self::NewtonStep => "newton step",
            Self::OneStepGd { .. } => "one-step GD",
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct InfluenceConfig {
    /// Extra damping added to the Hessian before factorization (beyond the
    /// model's own λ). Escalated automatically if factorization fails, which
    /// happens for the non-convex MLP.
    pub damping: f64,
}

impl Default for InfluenceConfig {
    fn default() -> Self {
        Self { damping: 1e-6 }
    }
}

/// Why an update rebuilt the influence state from scratch instead of
/// absorbing the delta incrementally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebuildCause {
    /// The model has no rank-one Hessian structure to patch (the MLP), so
    /// every delta retrains and rebuilds.
    NoRankOneHessian,
    /// The warm quasi-Newton retrain did not meet the trainer's gradient
    /// tolerance; the line-searched trainer took over.
    RetrainStalled,
    /// The parameters drifted more than `UPDATE_DRIFT_TOL` (`1e-2`) from
    /// where the Hessian was last assembled in full.
    Drift {
        /// The drift that tripped the bound, `‖θ − θ_H‖ / (1 + ‖θ‖)`.
        relative: f64,
    },
    /// The delta added rows to a forest, whose per-tree unlearning only
    /// absorbs removals (see `UnlearningBackend`).
    ForestAddition,
}

impl RebuildCause {
    /// The kebab-case name the JSON surfaces report.
    pub fn name(&self) -> &'static str {
        match self {
            Self::NoRankOneHessian => "no-rank-one-hessian",
            Self::RetrainStalled => "retrain-stalled",
            Self::Drift { .. } => "drift",
            Self::ForestAddition => "forest-addition",
        }
    }
}

/// What [`InfluenceEngine::update`] did to absorb a training-set delta.
#[derive(Debug, Clone)]
pub struct EngineUpdateReport {
    /// Why the engine was rebuilt from scratch, or `None` when the delta
    /// was absorbed incrementally.
    pub rebuild: Option<RebuildCause>,
    /// Diagnostics of the warm retrain on the post-delta training set.
    pub retrain: TrainReport,
}

impl EngineUpdateReport {
    /// Whether the update fell back to a full rebuild.
    pub fn fell_back(&self) -> bool {
        self.rebuild.is_some()
    }
}

/// Precomputed state for influence queries against one trained model.
///
/// Construction costs one pass to collect per-example gradients and
/// per-row Hessian weights, plus the Hessian assembly (`O(n·nnz²)` over
/// each row's nonzero features for rank-one models, `p` exact
/// Hessian–vector products per row otherwise — this mirrors the paper's
/// "pre-compute the gradients and Hessian at start-up").
///
/// Per-row state is stored sparse. A model with rank-one per-row Hessians
/// keeps each row's nonzero features ([`SparseRows`]) and two scalars, its
/// gradient scale and Hessian weight (the gradient is the scale times
/// `x̃ = [x, 1]`); any other model keeps each row's nonzero gradient
/// entries. One-hot encoded rows are mostly zeros (German: 13 nonzero
/// features of 35), so a query over `m` rows costs `O(m·nnz)` for the
/// subset gradient and for each rank-one subset Hessian–vector product,
/// plus `O(p²)` per solve. The gathers add the dense loops' nonzero terms
/// in the dense loops' order, so every answer is bit-identical to a dense
/// layout's.
pub struct InfluenceEngine<M: Differentiable> {
    model: M,
    /// Per-example gradients and Hessian state at θ*, one row per training
    /// example.
    rows: RowState,
    /// `Σ_r ∇L(z_r, θ*)`, summed in row order: the full-data gradient
    /// one-step GD reads on every call.
    grad_sum: Vec<f64>,
    /// Damped full Hessian `H = (1/n) Σ ∇²L + λI + damping·I`.
    hessian: Matrix,
    chol: Cholesky,
    /// Damping actually applied (config damping, possibly escalated).
    damping_used: f64,
    config: InfluenceConfig,
    n: usize,
    /// Parameters at which the Hessian was last assembled in full; the drift
    /// bound in [`update`](Self::update) is measured against this point.
    hessian_theta: Vec<f64>,
}

/// What the engine keeps per training row.
enum RowState {
    /// A model with rank-one per-example structure (see
    /// [`Differentiable::rank_one`]): gradient `g x̃` and Hessian `w x̃ x̃ᵀ`.
    /// Each row keeps its nonzero features and its two scalars, so the
    /// subset gradient and the subset Hessian–vector product walk the same
    /// entries and never re-evaluate the model.
    RankOne {
        /// Each row's nonzero encoded features.
        features: SparseRows,
        /// Each row's gradient scale `g` at θ*.
        scales: Vec<f64>,
        /// Each row's Hessian weight `w` at θ*.
        weights: Vec<f64>,
    },
    /// Any other model (the MLP): each row's gradient as its nonzero
    /// entries; Hessian–vector products run the model's own per-row
    /// product.
    General {
        /// Per-example gradients at θ*.
        grads: SparseRows,
    },
}

impl RowState {
    /// Every row of `train` at the model's parameters, and the sum of
    /// their gradients in row order.
    fn new<M: Differentiable>(model: &M, train: &Encoded) -> (Self, Vec<f64>) {
        let (n, p) = (train.n_rows(), model.n_params());
        let mut grad_sum = vec![0.0; p];
        if model.rank_one(train.x.row(0), train.y[0]).is_some() {
            let mut rows = Self::RankOne {
                features: SparseRows::from_dense(&train.x),
                scales: Vec::with_capacity(n),
                weights: Vec::with_capacity(n),
            };
            for r in 0..n {
                rows.push_rank_one(model, train.x.row(r), train.y[r], &mut grad_sum);
            }
            return (rows, grad_sum);
        }
        let mut grads = SparseRows::new(p);
        let mut grad = vec![0.0; p];
        for r in 0..n {
            grad.fill(0.0);
            model.accumulate_grad(train.x.row(r), train.y[r], &mut grad);
            vecops::axpy(1.0, &grad, &mut grad_sum);
            grads.push_dense(&grad);
        }
        (Self::General { grads }, grad_sum)
    }

    /// Records the scalars of rank-one row `(x, y)` (its features are
    /// already stored) and adds its gradient `g x̃` to `grad_sum`.
    fn push_rank_one<M: Differentiable>(
        &mut self,
        model: &M,
        x: &[f64],
        y: f64,
        grad_sum: &mut [f64],
    ) {
        let Self::RankOne {
            scales, weights, ..
        } = self
        else {
            unreachable!("only rank-one rows record rank-one scalars")
        };
        let terms = model
            .rank_one(x, y)
            .expect("rank-one structure is a property of the model, not of the row");
        rank_one::add_grad(terms.grad, x, grad_sum);
        scales.push(terms.grad);
        weights.push(terms.weight);
    }
}

impl<M: Differentiable> InfluenceEngine<M> {
    /// Precomputes gradients and the factored Hessian at the model's current
    /// parameters (assumed trained to a stationary point).
    ///
    /// # Panics
    /// If the training set is empty or the Hessian cannot be made positive
    /// definite even with escalated damping.
    pub fn new(model: M, train: &Encoded, config: InfluenceConfig) -> Self {
        let n = train.n_rows();
        assert!(n > 0, "influence engine needs a non-empty training set");
        let p = model.n_params();

        // Per-example gradients (or rank-one scalars) and their sum, in one
        // pass.
        let (rows, grad_sum) = RowState::new(&model, train);

        // Hessian assembly: `Σ w x̃ x̃ᵀ` over each row's nonzero features
        // from the weights just stored, or the model's own per-row Hessian
        // without rank-one structure.
        let mut hessian = Matrix::zeros(p, p);
        for r in 0..n {
            match &rows {
                RowState::RankOne {
                    features, weights, ..
                } => rank_one::add_hessian(&mut hessian, weights[r], features.row(r)),
                RowState::General { .. } => {
                    model.accumulate_hessian(train.x.row(r), train.y[r], &mut hessian)
                }
            }
        }
        hessian.scale(1.0 / n as f64);
        hessian.add_diagonal(model.l2());

        let (chol, damping_used) = Cholesky::factor_damped(&hessian, config.damping, 24)
            .expect("Hessian must factor after damping escalation");
        // Keep the damped Hessian so all estimators see the same operator.
        hessian.add_diagonal(damping_used);

        let hessian_theta = model.params().to_vec();
        Self {
            model,
            rows,
            grad_sum,
            hessian,
            chol,
            damping_used,
            config,
            n,
            hessian_theta,
        }
    }

    /// Absorbs a training-set delta without rebuilding from scratch.
    ///
    /// `new_train` is the post-delta training set: the engine's training
    /// rows without `removed_rows` (in order), then the `added` rows, as
    /// `Encoded::patched` builds it. `removed` and `added` are the encoded
    /// `(x, y)` rows that left and entered it. The engine
    /// 1. patches its damped mean Hessian exactly at the current parameters
    ///    (`S_new = S_old − Σ h_removed + Σ h_added`, `O(|Δ| p²)`) and
    ///    factors the patched matrix afresh (`O(p³)`, escalating the
    ///    damping if the patch lost definiteness),
    /// 2. warm-retrains by quasi-Newton steps through that factor until the
    ///    true gradient norm on `new_train` meets the Newton trainer's
    ///    tolerance, and
    /// 3. recomputes all per-row gradients, their sum, and the per-row
    ///    gradient scales and Hessian weights at the new optimum (`O(n p)`)
    ///    into the storage they already had, and patches the stored
    ///    features from the delta.
    ///
    /// Fallback: a model without rank-one Hessians, a warm-retrain stall,
    /// or accumulated parameter drift beyond `UPDATE_DRIFT_TOL` (`1e-2`,
    /// relative) rebuilds the engine in full (`O(n p²)`), and the report
    /// names the cause. Either way the engine ends consistent with
    /// `new_train`.
    ///
    /// # Panics
    /// If `new_train` is empty, if its row count is not the engine's minus
    /// `removed_rows` plus `added`, or if the patched Hessian cannot be made
    /// positive definite even with escalated damping.
    pub fn update(
        &mut self,
        new_train: &Encoded,
        removed_rows: &[usize],
        removed: &[(&[f64], f64)],
        added: &[(&[f64], f64)],
    ) -> EngineUpdateReport {
        let n_new = new_train.n_rows();
        assert!(n_new > 0, "influence engine needs a non-empty training set");
        if let RowState::General { .. } = self.rows {
            // No per-row Hessian structure to patch: retrain and rebuild.
            let retrain = self.rebuild_from_scratch(new_train);
            return EngineUpdateReport {
                rebuild: Some(RebuildCause::NoRankOneHessian),
                retrain,
            };
        }
        let p = self.n_params();
        let n_old = self.n as f64;
        let c = self.model.l2() + self.damping_used;

        // Exact incremental Hessian at the engine's current parameters:
        // recover the raw per-row sum S from the stored damped mean, patch
        // it with the delta rows only, and re-normalize.
        let mut hessian_new = self.hessian.clone();
        hessian_new.add_diagonal(-c);
        hessian_new.scale(n_old);
        let mut delta = Matrix::zeros(p, p);
        for &(x, y) in added {
            self.model.accumulate_hessian(x, y, &mut delta);
        }
        hessian_new.add_scaled(1.0, &delta);
        let mut removed_sum = Matrix::zeros(p, p);
        for &(x, y) in removed {
            self.model.accumulate_hessian(x, y, &mut removed_sum);
        }
        hessian_new.add_scaled(-1.0, &removed_sum);
        hessian_new.scale(1.0 / n_new as f64);
        hessian_new.add_diagonal(c);

        // Factor the patched Hessian afresh (`O(p³)`: microseconds at this
        // repo's p, against milliseconds for the rest of the update). A
        // patch that lost definiteness gets escalated damping, and the
        // stored Hessian carries it too.
        let (chol, extra) = Cholesky::factor_damped(&hessian_new, 0.0, 24)
            .expect("patched Hessian must factor after damping escalation");
        if extra > 0.0 {
            hessian_new.add_diagonal(extra);
            self.damping_used += extra;
        }

        // Warm quasi-Newton retrain: steps through the (fixed) factor,
        // judged on the true gradient of the post-delta objective.
        let cfg = NewtonConfig::default();
        let mut model = self.model.clone();
        let mut grad = vec![0.0; p];
        let mut iterations = 0;
        let mut converged = false;
        for iter in 0..WARM_RETRAIN_MAX_ITER {
            full_gradient(&model, new_train, &mut grad);
            iterations = iter;
            if vecops::norm2(&grad) < cfg.grad_tol {
                converged = true;
                break;
            }
            let step = chol.solve(&grad);
            for (t, s) in model.params_mut().iter_mut().zip(&step) {
                *t -= s;
            }
        }
        if !converged {
            // The loop takes its last step without re-testing; check it.
            full_gradient(&model, new_train, &mut grad);
            converged = vecops::norm2(&grad) < cfg.grad_tol;
        }
        if !converged {
            // Stalled (e.g. an SVM support boundary crossing): hand over to
            // the line-searched trainer and rebuild everything at its answer.
            let retrain = self.rebuild_from_scratch(new_train);
            return EngineUpdateReport {
                rebuild: Some(RebuildCause::RetrainStalled),
                retrain,
            };
        }

        // Drift bound: the Hessian is still evaluated at the parameters of
        // the last full assembly. Once θ has wandered too far from there,
        // rebuild curvature in full at the converged parameters. θ itself is
        // exact either way (the retrain converged on the true gradient);
        // only estimator curvature is at stake.
        let drift_sq: f64 = model
            .params()
            .iter()
            .zip(&self.hessian_theta)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let drift = drift_sq.sqrt() / (1.0 + vecops::norm2(model.params()));
        if drift > UPDATE_DRIFT_TOL {
            let retrain = TrainReport {
                iterations,
                final_loss: objective(&model, new_train),
                grad_norm: vecops::norm2(&grad),
                converged: true,
            };
            *self = Self::new(model, new_train, self.config.clone());
            return EngineUpdateReport {
                rebuild: Some(RebuildCause::Drift { relative: drift }),
                retrain,
            };
        }

        // Commit: per-row gradients are always recomputed in full at the new
        // optimum (exact, O(n p)); the Hessian keeps its patched form. The
        // features move only where rows left or arrived, and the per-row
        // scalars refill the storage they already have: fresh allocations
        // would fault in every page again on each update.
        let RowState::RankOne {
            features,
            scales,
            weights,
        } = &mut self.rows
        else {
            unreachable!("a model without rank-one structure rebuilt above")
        };
        let mut keep = vec![true; self.n];
        for &r in removed_rows {
            keep[r] = false;
        }
        features.retain_rows(&keep);
        for &(x, _) in added {
            features.push_dense(x);
        }
        assert_eq!(
            features.rows(),
            n_new,
            "update: new_train must be the training rows without removed_rows, then added"
        );
        scales.clear();
        weights.clear();
        // The same pass also sums the per-row losses, replacing a separate
        // `objective` sweep in `objective`'s row order, so the reported
        // final loss is exactly what `objective` computes. Gradient sum and
        // per-row scalars follow `new`'s row order too.
        let mut data_loss = 0.0;
        let mut grad_sum = vec![0.0; p];
        for r in 0..n_new {
            let (x, y) = (new_train.x.row(r), new_train.y[r]);
            data_loss += model.loss(x, y);
            self.rows.push_rank_one(&model, x, y, &mut grad_sum);
        }
        let theta = model.params();
        let final_loss = data_loss / n_new as f64 + 0.5 * model.l2() * vecops::dot(theta, theta);
        let retrain = TrainReport {
            iterations,
            final_loss,
            grad_norm: vecops::norm2(&grad),
            converged: true,
        };
        self.model = model;
        self.grad_sum = grad_sum;
        self.hessian = hessian_new;
        self.chol = chol;
        self.n = n_new;
        EngineUpdateReport {
            rebuild: None,
            retrain,
        }
    }

    /// Full-cost fallback: retrains with the default trainer (warm-started
    /// from the current parameters) and rebuilds every precomputed artifact.
    fn rebuild_from_scratch(&mut self, train: &Encoded) -> TrainReport {
        let mut model = self.model.clone();
        let report = fit_default(&mut model, train);
        *self = Self::new(model, train, self.config.clone());
        report
    }

    /// The model the engine was built around.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Number of training examples.
    pub fn n_train(&self) -> usize {
        self.n
    }

    /// Number of parameters.
    pub fn n_params(&self) -> usize {
        self.model.n_params()
    }

    /// The damping that was actually applied to the Hessian.
    pub fn damping_used(&self) -> f64 {
        self.damping_used
    }

    /// `Σ_r ∇L(z_r, θ*)` over the whole training set: the per-row
    /// gradients summed in row order, kept current by build and
    /// [`update`](Self::update).
    pub fn gradient_sum(&self) -> &[f64] {
        &self.grad_sum
    }

    /// `g_S = Σ_{z∈S} ∇L(z, θ*)` for the given training rows, added in row
    /// order: `g x̃` over each row's nonzero features for rank-one models,
    /// each row's stored gradient entries otherwise.
    pub fn subset_gradient(&self, rows: &[u32]) -> Vec<f64> {
        let p = self.n_params();
        let mut g = vec![0.0; p];
        match &self.rows {
            RowState::RankOne {
                features, scales, ..
            } => {
                for &r in rows {
                    let r = r as usize;
                    rank_one::add_grad(scales[r], features.row(r), &mut g);
                }
            }
            RowState::General { grads } => {
                for &r in rows {
                    grads.row(r as usize).axpy(1.0, &mut g);
                }
            }
        }
        g
    }

    /// Applies the subset's mean Hessian (plus λI): `out = H̃_S · v`.
    ///
    /// Models with rank-one per-row Hessians read each row's stored weight
    /// and nonzero features through the [`rank_one`] kernel — the
    /// arithmetic of their own per-row Hessian–vector product, without
    /// re-evaluating the model or walking zero features. The rest (the
    /// MLP) run their own exact per-row product.
    pub fn subset_hessian_vec(&self, train: &Encoded, rows: &[u32], v: &[f64]) -> Vec<f64> {
        let p = self.n_params();
        let m = rows.len().max(1) as f64;
        let mut out = vec![0.0; p];
        if rows.is_empty() {
            return out;
        }
        for &r in rows {
            let r = r as usize;
            match &self.rows {
                RowState::RankOne {
                    features, weights, ..
                } => rank_one::add_hessian_vec(weights[r], features.row(r), v, &mut out),
                RowState::General { .. } => {
                    self.model
                        .accumulate_hessian_vec(train.x.row(r), train.y[r], v, &mut out)
                }
            }
        }
        // Mean over the subset, then the subset's regularizer share.
        let l2 = self.model.l2() + self.damping_used;
        for (o, vi) in out.iter_mut().zip(v) {
            *o = *o / m + l2 * vi;
        }
        out
    }

    /// Estimated parameter change `Δθ ≈ θ̄_S − θ*` caused by removing the
    /// given training rows and retraining.
    pub fn param_change(&self, train: &Encoded, rows: &[u32], estimator: Estimator) -> Vec<f64> {
        let p = self.n_params();
        if rows.is_empty() {
            return vec![0.0; p];
        }
        let n = self.n as f64;
        let m = rows.len() as f64;
        let g_s = self.subset_gradient(rows);
        match estimator {
            Estimator::FirstOrder => {
                // Δθ = (1/n) H⁻¹ g_S.
                let mut delta = self.chol.solve(&g_s);
                vecops::scale(1.0 / n, &mut delta);
                delta
            }
            Estimator::SecondOrder => {
                // Δθ₁ = (1/n) H⁻¹ g̃_S;  Δθ = Δθ₁ + (m/n) H⁻¹ (H̃_S Δθ₁).
                let g_tilde = self.add_reg_share(&g_s, m);
                let mut d1 = self.chol.solve(&g_tilde);
                vecops::scale(1.0 / n, &mut d1);
                let hs_d1 = self.subset_hessian_vec(train, rows, &d1);
                let mut corr = self.chol.solve(&hs_d1);
                vecops::scale(m / n, &mut corr);
                vecops::axpy(1.0, &d1, &mut corr);
                corr
            }
            Estimator::NewtonStep => {
                // Solve (nH − mH̃_S) Δθ = g̃_S by CG with a matrix-free
                // operator. The operator is SPD whenever m < n and the
                // damped H dominates (guaranteed for convex losses).
                let g_tilde = self.add_reg_share(&g_s, m);
                let apply = |v: &[f64]| -> Vec<f64> {
                    let mut hv = self.hessian.matvec(v);
                    vecops::scale(n, &mut hv);
                    let hs_v = self.subset_hessian_vec(train, rows, v);
                    vecops::axpy(-m, &hs_v, &mut hv);
                    hv
                };
                let out = conjugate_gradient(
                    apply,
                    &g_tilde,
                    NEWTON_CG_TOL,
                    NEWTON_CG_MAX_ITER.min(4 * p),
                );
                out.x
            }
            Estimator::OneStepGd { learning_rate } => {
                // Paper Eq. 13: θ̄ = θ − η(∇L(D, θ*) − (1/n) g_S), where
                // ∇L(D, θ*) is the mean data gradient (−λθ* at the optimum).
                let mut mean_grad = self.grad_sum.clone();
                vecops::scale(1.0 / n, &mut mean_grad);
                let mut delta = vec![0.0; p];
                for i in 0..p {
                    delta[i] = -learning_rate * (mean_grad[i] - g_s[i] / n);
                }
                delta
            }
        }
    }

    /// `g̃_S = g_S + m(λ + damping)θ*`.
    fn add_reg_share(&self, g_s: &[f64], m: f64) -> Vec<f64> {
        let l2 = self.model.l2() + self.damping_used;
        let mut g = g_s.to_vec();
        vecops::axpy(m * l2, self.model.params(), &mut g);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_data::generators::german;
    use gopher_data::Encoder;
    use gopher_models::train::{fit_newton, NewtonConfig};
    use gopher_models::{LogisticRegression, Model};

    impl Model for Ridge {
        fn n_inputs(&self) -> usize {
            self.n_inputs
        }
        fn predict_proba(&self, x: &[f64]) -> f64 {
            let z = vecops::dot(&self.params[..self.n_inputs], x) + self.params[self.n_inputs];
            z.clamp(0.0, 1.0)
        }
    }
    use gopher_prng::Rng;

    /// Ridge regression (squared loss) — quadratic, so the Newton estimator
    /// must match exact retraining to machine precision.
    #[derive(Debug, Clone)]
    struct Ridge {
        params: Vec<f64>,
        n_inputs: usize,
        l2: f64,
    }

    impl Differentiable for Ridge {
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
            let z = vecops::dot(&self.params[..self.n_inputs], x) + self.params[self.n_inputs];
            0.5 * (z - y) * (z - y)
        }
        fn accumulate_grad_proba(&self, x: &[f64], out: &mut [f64]) {
            vecops::axpy(1.0, x, &mut out[..self.n_inputs]);
            out[self.n_inputs] += 1.0;
        }
        fn rank_one(&self, x: &[f64], y: f64) -> Option<rank_one::Terms> {
            let z = vecops::dot(&self.params[..self.n_inputs], x) + self.params[self.n_inputs];
            Some(rank_one::Terms {
                grad: z - y,
                weight: 1.0,
            })
        }
    }

    fn random_encoded(n: usize, d: usize, seed: u64) -> Encoded {
        let mut rng = Rng::new(seed);
        let mut x = Matrix::zeros(n, d);
        let mut y = Vec::with_capacity(n);
        let mut privileged = Vec::with_capacity(n);
        for r in 0..n {
            for c in 0..d {
                x[(r, c)] = rng.normal();
            }
            y.push(if rng.bernoulli(0.5) { 1.0 } else { 0.0 });
            privileged.push(rng.bernoulli(0.5));
        }
        Encoded { x, y, privileged }
    }

    /// Closed-form ridge optimum on a dataset.
    fn ridge_fit(data: &Encoded, l2: f64) -> Ridge {
        let n = data.n_rows();
        let d = data.n_cols();
        let p = d + 1;
        let mut h = Matrix::zeros(p, p);
        let mut b = vec![0.0; p];
        for r in 0..n {
            let x = data.x.row(r);
            for i in 0..d {
                for j in 0..d {
                    h[(i, j)] += x[i] * x[j];
                }
                h[(i, d)] += x[i];
                h[(d, i)] += x[i];
                b[i] += x[i] * data.y[r];
            }
            h[(d, d)] += 1.0;
            b[d] += data.y[r];
        }
        h.scale(1.0 / n as f64);
        h.add_diagonal(l2);
        vecops::scale(1.0 / n as f64, &mut b);
        let chol = Cholesky::factor(&h).unwrap();
        let params = chol.solve(&b);
        Ridge {
            params,
            n_inputs: d,
            l2,
        }
    }

    #[test]
    fn newton_estimator_is_exact_for_quadratic_loss() {
        let data = random_encoded(200, 5, 1);
        let l2 = 0.1;
        let model = ridge_fit(&data, l2);
        let engine = InfluenceEngine::new(model.clone(), &data, InfluenceConfig { damping: 0.0 });
        // Remove 15% of rows.
        let rows: Vec<u32> = (0..30).collect();
        let delta = engine.param_change(&data, &rows, Estimator::NewtonStep);
        // Exact retraining on the remaining rows.
        let keep: Vec<usize> = (30..200).collect();
        let reduced = data.select_rows(&keep);
        let exact = ridge_fit(&reduced, l2);
        for j in 0..model.n_params() {
            let predicted = model.params()[j] + delta[j];
            assert!(
                (predicted - exact.params()[j]).abs() < 1e-8,
                "param {j}: newton {predicted} vs exact {}",
                exact.params()[j]
            );
        }
    }

    #[test]
    fn second_order_beats_first_order_for_quadratic_loss() {
        let data = random_encoded(300, 4, 2);
        let l2 = 0.05;
        let model = ridge_fit(&data, l2);
        let engine = InfluenceEngine::new(model.clone(), &data, InfluenceConfig { damping: 0.0 });
        let mut fo_err = 0.0;
        let mut so_err = 0.0;
        let mut rng = Rng::new(3);
        for trial in 0..5 {
            let m = 30 + trial * 15; // 10% … 30%
            let rows: Vec<u32> = rng
                .sample_indices(300, m)
                .into_iter()
                .map(|r| r as u32)
                .collect();
            let keep: Vec<usize> = (0..300).filter(|r| !rows.contains(&(*r as u32))).collect();
            let exact = ridge_fit(&data.select_rows(&keep), l2);
            let truth = vecops::sub(exact.params(), model.params());
            let fo = engine.param_change(&data, &rows, Estimator::FirstOrder);
            let so = engine.param_change(&data, &rows, Estimator::SecondOrder);
            fo_err += vecops::norm2(&vecops::sub(&fo, &truth));
            so_err += vecops::norm2(&vecops::sub(&so, &truth));
        }
        assert!(
            so_err < fo_err,
            "second order ({so_err}) should beat first order ({fo_err})"
        );
    }

    #[test]
    fn estimators_match_retraining_direction_on_logistic() {
        let raw = german(600, 21);
        let enc = Encoder::fit(&raw);
        let data = enc.transform(&raw);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        let engine = InfluenceEngine::new(model.clone(), &data, InfluenceConfig::default());
        // Remove a contiguous 10% block.
        let rows: Vec<u32> = (0..60).collect();
        let keep: Vec<usize> = (60..600).collect();
        let reduced = data.select_rows(&keep);
        let mut retrained = model.clone();
        fit_newton(&mut retrained, &reduced, &NewtonConfig::default());
        let truth = vecops::sub(retrained.params(), model.params());
        let truth_norm = vecops::norm2(&truth);
        assert!(truth_norm > 1e-6, "removal must move the parameters");
        for est in [
            Estimator::FirstOrder,
            Estimator::SecondOrder,
            Estimator::NewtonStep,
        ] {
            let delta = engine.param_change(&data, &rows, est);
            let cos =
                vecops::dot(&delta, &truth) / (vecops::norm2(&delta) * truth_norm).max(1e-300);
            assert!(cos > 0.9, "{}: cosine to ground truth {cos}", est.label());
        }
        // Newton should be the most accurate.
        let newton = engine.param_change(&data, &rows, Estimator::NewtonStep);
        let fo = engine.param_change(&data, &rows, Estimator::FirstOrder);
        let newton_err = vecops::norm2(&vecops::sub(&newton, &truth));
        let fo_err = vecops::norm2(&vecops::sub(&fo, &truth));
        assert!(
            newton_err <= fo_err,
            "newton err {newton_err} should not exceed FO err {fo_err}"
        );
    }

    #[test]
    fn empty_subset_changes_nothing() {
        let data = random_encoded(50, 3, 4);
        let model = ridge_fit(&data, 0.1);
        let engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        for est in [
            Estimator::FirstOrder,
            Estimator::SecondOrder,
            Estimator::NewtonStep,
            Estimator::OneStepGd { learning_rate: 0.1 },
        ] {
            let delta = engine.param_change(&data, &[], est);
            assert_eq!(delta, vec![0.0; engine.n_params()], "{}", est.label());
        }
    }

    #[test]
    fn one_step_gd_points_along_subset_gradient() {
        let raw = german(300, 22);
        let enc = Encoder::fit(&raw);
        let data = enc.transform(&raw);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        let engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        let rows: Vec<u32> = (0..30).collect();
        let delta = engine.param_change(&data, &rows, Estimator::OneStepGd { learning_rate: 0.5 });
        let g_s = engine.subset_gradient(&rows);
        // At the optimum, Δθ ≈ η(g_S/n + λθ*): dominated by g_S, so the
        // directions should be strongly aligned.
        let cos =
            vecops::dot(&delta, &g_s) / (vecops::norm2(&delta) * vecops::norm2(&g_s)).max(1e-300);
        assert!(cos > 0.95, "cosine {cos}");
    }

    /// German train set with rows `removed` dropped and `dup` duplicated at
    /// the tail — the frozen-encoder shape session updates produce.
    fn with_delta(data: &Encoded, removed: &[usize], dup: &[usize]) -> Encoded {
        let keep: Vec<usize> = (0..data.n_rows())
            .filter(|r| !removed.contains(r))
            .collect();
        let mut rows: Vec<Vec<f64>> = keep.iter().map(|&r| data.x.row(r).to_vec()).collect();
        let mut y: Vec<f64> = keep.iter().map(|&r| data.y[r]).collect();
        let mut privileged: Vec<bool> = keep.iter().map(|&r| data.privileged[r]).collect();
        for &r in dup {
            rows.push(data.x.row(r).to_vec());
            y.push(data.y[r]);
            privileged.push(data.privileged[r]);
        }
        Encoded {
            x: Matrix::from_rows(&rows),
            y,
            privileged,
        }
    }

    fn delta_pairs(data: &Encoded, rows: &[usize]) -> Vec<(Vec<f64>, f64)> {
        rows.iter()
            .map(|&r| (data.x.row(r).to_vec(), data.y[r]))
            .collect()
    }

    fn as_refs(pairs: &[(Vec<f64>, f64)]) -> Vec<(&[f64], f64)> {
        pairs.iter().map(|(x, y)| (x.as_slice(), *y)).collect()
    }

    fn fitted_engine(n: usize, seed: u64) -> (Encoded, InfluenceEngine<LogisticRegression>) {
        let raw = german(n, seed);
        let enc = Encoder::fit(&raw);
        let data = enc.transform(&raw);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        let engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        (data, engine)
    }

    #[test]
    fn incremental_hessian_matches_full_assembly() {
        // Small |Δ|/n keeps the parameter drift inside the incremental
        // regime (percent-level deltas legitimately trigger a full rebuild).
        let (data, mut engine) = fitted_engine(4000, 31);
        let theta_old = engine.model().params().to_vec();
        let removed: Vec<usize> = (0..2).collect();
        let dup: Vec<usize> = (100..102).collect();
        let new_train = with_delta(&data, &removed, &dup);
        let rm = delta_pairs(&data, &removed);
        let add = delta_pairs(&data, &dup);
        let report = engine.update(&new_train, &removed, &as_refs(&rm), &as_refs(&add));
        assert_eq!(report.rebuild, None, "small delta must stay incremental");
        assert!(report.retrain.converged);
        // The reported norm is the full gradient's at the retrained θ.
        let mut grad = vec![0.0; engine.n_params()];
        full_gradient(engine.model(), &new_train, &mut grad);
        assert_eq!(report.retrain.grad_norm, vecops::norm2(&grad));
        assert!(report.retrain.grad_norm < NewtonConfig::default().grad_tol);
        // Assemble the Hessian in full at the *old* parameters — the point
        // the incremental patch was evaluated at — and compare.
        let mut frozen = engine.model().clone();
        frozen.params_mut().copy_from_slice(&theta_old);
        let p = frozen.n_params();
        let mut full = Matrix::zeros(p, p);
        for r in 0..new_train.n_rows() {
            frozen.accumulate_hessian(new_train.x.row(r), new_train.y[r], &mut full);
        }
        full.scale(1.0 / new_train.n_rows() as f64);
        full.add_diagonal(frozen.l2() + engine.damping_used());
        let scale = full.max_abs();
        for i in 0..p {
            for j in 0..p {
                let diff = (engine.hessian[(i, j)] - full[(i, j)]).abs();
                assert!(
                    diff <= 1e-9 * scale,
                    "H[({i},{j})]: incremental {} vs full {}",
                    engine.hessian[(i, j)],
                    full[(i, j)]
                );
            }
        }
    }

    #[test]
    fn updated_engine_matches_fresh_engine() {
        let (data, mut engine) = fitted_engine(4000, 32);
        let removed: Vec<usize> = vec![3, 77, 201];
        let dup: Vec<usize> = vec![10, 11, 12];
        let new_train = with_delta(&data, &removed, &dup);
        let rm = delta_pairs(&data, &removed);
        let add = delta_pairs(&data, &dup);
        let report = engine.update(&new_train, &removed, &as_refs(&rm), &as_refs(&add));
        assert!(report.retrain.converged);
        assert_eq!(report.rebuild, None, "small delta must stay incremental");
        assert!(report.retrain.grad_norm < NewtonConfig::default().grad_tol);
        // A from-scratch session on the post-delta data reaches the same
        // (unique, convex) optimum.
        let mut fresh = LogisticRegression::new(new_train.n_cols(), 1e-3);
        let fresh_report = fit_newton(&mut fresh, &new_train, &NewtonConfig::default());
        assert!(fresh_report.converged);
        for (a, b) in engine.model().params().iter().zip(fresh.params()) {
            assert!((a - b).abs() < 1e-6, "params diverged: {a} vs {b}");
        }
        // And the estimators agree with a fresh engine's to within the
        // documented curvature-staleness bound (the updated engine's Hessian
        // is evaluated at the pre-delta parameters).
        let fresh_engine = InfluenceEngine::new(fresh, &new_train, InfluenceConfig::default());
        let rows: Vec<u32> = (0..25).collect();
        for est in [Estimator::FirstOrder, Estimator::SecondOrder] {
            let a = engine.param_change(&new_train, &rows, est);
            let b = fresh_engine.param_change(&new_train, &rows, est);
            let rel = vecops::norm2(&vecops::sub(&a, &b)) / vecops::norm2(&b).max(1e-300);
            assert!(rel < 1e-2, "{}: relative gap {rel}", est.label());
        }
    }

    /// `‖solve(H v) − v‖ / ‖v‖` for the engine's stored factor and Hessian.
    fn factor_residual<M: Differentiable>(engine: &InfluenceEngine<M>) -> f64 {
        let v: Vec<f64> = (0..engine.n_params())
            .map(|i| 1.0 / (i as f64 + 1.0))
            .collect();
        let back = engine.chol.solve(&engine.hessian.matvec(&v));
        vecops::norm2(&vecops::sub(&back, &v)) / vecops::norm2(&v)
    }

    #[test]
    fn indefinite_patch_escalates_damping_and_still_converges() {
        let (data, mut engine) = fitted_engine(200, 33);
        let damping_before = engine.damping_used();
        // Claim row 0 was removed far more times than it exists: the
        // patched Hessian loses definiteness.
        let rm: Vec<(Vec<f64>, f64)> = (0..120)
            .map(|_| (data.x.row(0).to_vec(), data.y[0]))
            .collect();
        let report = engine.update(&data, &[], &as_refs(&rm), &[]);
        assert!(
            engine.damping_used() > damping_before,
            "an indefinite patch must escalate the damping: {} -> {}",
            damping_before,
            engine.damping_used()
        );
        // The training set itself is unchanged, so θ stays optimal.
        assert!(report.retrain.converged);
        assert_eq!(report.rebuild, None);
        assert!(factor_residual(&engine) <= 1e-10);
    }

    /// An unbalanced delta changes n, and with it the mean-form Hessian's
    /// normalization: the stored factor must still solve the stored
    /// Hessian.
    #[test]
    fn factor_solves_the_stored_hessian_after_an_unbalanced_delta() {
        let (data, mut engine) = fitted_engine(4000, 38);
        let removed: Vec<usize> = vec![5, 6, 700];
        let new_train = with_delta(&data, &removed, &[]);
        let rm = delta_pairs(&data, &removed);
        let report = engine.update(&new_train, &removed, &as_refs(&rm), &[]);
        assert_eq!(report.rebuild, None, "small delta must stay incremental");
        assert_eq!(engine.n_train(), new_train.n_rows());
        let residual = factor_residual(&engine);
        assert!(residual <= 1e-10, "factor residual {residual}");
    }

    #[test]
    fn update_on_mlp_rebuilds_in_full() {
        let raw = german(150, 34);
        let enc = Encoder::fit(&raw);
        let data = enc.transform(&raw);
        let mut rng = Rng::new(7);
        let mut model = gopher_models::Mlp::new(data.n_cols(), 4, 1e-3, &mut rng);
        gopher_models::train::fit_gd(
            &mut model,
            &data,
            &gopher_models::train::GdConfig {
                max_epochs: 300,
                grad_tol: 1e-4,
                ..Default::default()
            },
        );
        let mut engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        let new_train = with_delta(&data, &[0], &[1]);
        let rm = delta_pairs(&data, &[0]);
        let add = delta_pairs(&data, &[1]);
        let report = engine.update(&new_train, &[0], &as_refs(&rm), &as_refs(&add));
        assert_eq!(
            report.rebuild,
            Some(RebuildCause::NoRankOneHessian),
            "MLP has no rank-1 structure to patch"
        );
        assert_eq!(engine.n_train(), new_train.n_rows());
    }

    /// The stored-weight subset HVP against the model's own per-row HVPs,
    /// bit for bit.
    fn assert_weighted_hvp_matches_per_row<M: Differentiable>(
        engine: &InfluenceEngine<M>,
        train: &Encoded,
    ) {
        let p = engine.n_params();
        let v: Vec<f64> = (0..p).map(|i| (i % 5) as f64 * 0.37 - 0.8).collect();
        let rows: Vec<u32> = (0..train.n_rows() as u32).step_by(3).collect();
        let got = engine.subset_hessian_vec(train, &rows, &v);
        let mut want = vec![0.0; p];
        for &r in &rows {
            let r = r as usize;
            engine
                .model()
                .accumulate_hessian_vec(train.x.row(r), train.y[r], &v, &mut want);
        }
        let m = rows.len() as f64;
        let l2 = engine.model().l2() + engine.damping_used();
        for (o, vi) in want.iter_mut().zip(&v) {
            *o = *o / m + l2 * vi;
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    /// The per-row state build and `update` keep is exactly what a fresh
    /// per-row pass computes: the stored-weight HVP against the models' own
    /// HVPs (LR; SVM, whose rows at zero slack carry weight 0) and the
    /// gradient sum against the row-order sum of the stored gradients.
    #[test]
    fn stored_row_state_matches_per_row_recomputation_bit_for_bit() {
        let row_sum = |engine: &InfluenceEngine<LogisticRegression>| {
            let mut sum = vec![0.0; engine.n_params()];
            for r in 0..engine.n_train() {
                vecops::axpy(1.0, &engine.subset_gradient(&[r as u32]), &mut sum);
            }
            sum
        };
        // LR, before and after an incremental update.
        let (data, mut engine) = fitted_engine(1500, 36);
        assert_weighted_hvp_matches_per_row(&engine, &data);
        assert_eq!(engine.gradient_sum(), row_sum(&engine).as_slice());
        let new_train = with_delta(&data, &[4, 90], &[7, 8]);
        let rm = delta_pairs(&data, &[4, 90]);
        let add = delta_pairs(&data, &[7, 8]);
        let report = engine.update(&new_train, &[4, 90], &as_refs(&rm), &as_refs(&add));
        assert_eq!(report.rebuild, None, "small delta must stay incremental");
        assert_weighted_hvp_matches_per_row(&engine, &new_train);
        assert_eq!(engine.gradient_sum(), row_sum(&engine).as_slice());

        // SVM: rows beyond the margin (zero slack) carry weight 0.
        let raw = german(1500, 37);
        let data = Encoder::fit(&raw).transform(&raw);
        let mut svm = gopher_models::LinearSvm::new(data.n_cols(), 1e-3);
        gopher_models::train::fit_default(&mut svm, &data);
        let weights: Vec<f64> = (0..data.n_rows())
            .map(|r| svm.rank_one(data.x.row(r), data.y[r]).unwrap().weight)
            .collect();
        assert!(weights.contains(&0.0), "some rows must sit at zero slack");
        assert!(
            weights.contains(&2.0),
            "some rows must sit inside the margin"
        );
        let mut engine = InfluenceEngine::new(svm, &data, InfluenceConfig::default());
        assert_weighted_hvp_matches_per_row(&engine, &data);
        let new_train = with_delta(&data, &[11, 300], &[12, 13]);
        let rm = delta_pairs(&data, &[11, 300]);
        let add = delta_pairs(&data, &[12, 13]);
        engine.update(&new_train, &[11, 300], &as_refs(&rm), &as_refs(&add));
        assert_weighted_hvp_matches_per_row(&engine, &new_train);
    }

    #[test]
    fn subset_gradient_sums_rows() {
        let data = random_encoded(20, 3, 5);
        let model = ridge_fit(&data, 0.2);
        let engine = InfluenceEngine::new(model.clone(), &data, InfluenceConfig::default());
        let g = engine.subset_gradient(&[2, 7]);
        let mut expected = vec![0.0; engine.n_params()];
        for r in [2, 7] {
            model.accumulate_grad(data.x.row(r), data.y[r], &mut expected);
        }
        for (a, b) in g.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The dense per-row gradient loop: each row's gradient (`g x̃` over
    /// every feature for rank-one models) accumulated into a zeroed
    /// `p`-vector, then added whole, in row order.
    fn dense_subset_gradient<M: Differentiable>(
        engine: &InfluenceEngine<M>,
        train: &Encoded,
        rows: &[u32],
    ) -> Vec<f64> {
        let p = engine.n_params();
        let mut g = vec![0.0; p];
        for &r in rows {
            let (x, y) = (train.x.row(r as usize), train.y[r as usize]);
            let mut row = vec![0.0; p];
            match engine.model().rank_one(x, y) {
                Some(terms) => {
                    vecops::axpy(terms.grad, x, &mut row[..p - 1]);
                    row[p - 1] += terms.grad;
                }
                None => engine.model().accumulate_grad(x, y, &mut row),
            }
            vecops::axpy(1.0, &row, &mut g);
        }
        g
    }

    /// The dense subset Hessian–vector product: rank-one rows through
    /// `w (x̃ᵀv) x̃` over every feature of the dense row, the rest through
    /// the model's own per-row product.
    fn dense_subset_hessian_vec<M: Differentiable>(
        engine: &InfluenceEngine<M>,
        train: &Encoded,
        rows: &[u32],
        v: &[f64],
    ) -> Vec<f64> {
        let model = engine.model();
        let mut out = vec![0.0; engine.n_params()];
        if rows.is_empty() {
            return out;
        }
        for &r in rows {
            let (x, y) = (train.x.row(r as usize), train.y[r as usize]);
            match model.rank_one(x, y).map(|t| t.weight) {
                Some(0.0) => {}
                Some(w) => {
                    let d = x.len();
                    let scale = w * (vecops::dot(x, &v[..d]) + v[d]);
                    vecops::axpy(scale, x, &mut out[..d]);
                    out[d] += scale;
                }
                None => model.accumulate_hessian_vec(x, y, v, &mut out),
            }
        }
        let m = rows.len() as f64;
        let l2 = model.l2() + engine.damping_used();
        for (o, vi) in out.iter_mut().zip(v) {
            *o = *o / m + l2 * vi;
        }
        out
    }

    /// `param_change` over the dense loops above.
    fn dense_param_change<M: Differentiable>(
        engine: &InfluenceEngine<M>,
        train: &Encoded,
        rows: &[u32],
        estimator: Estimator,
    ) -> Vec<f64> {
        let p = engine.n_params();
        if rows.is_empty() {
            return vec![0.0; p];
        }
        let (n, m) = (engine.n_train() as f64, rows.len() as f64);
        let g_s = dense_subset_gradient(engine, train, rows);
        let mut g_tilde = g_s.clone();
        let l2 = engine.model().l2() + engine.damping_used();
        vecops::axpy(m * l2, engine.model().params(), &mut g_tilde);
        match estimator {
            Estimator::FirstOrder => vecops::scaled(1.0 / n, &engine.chol.solve(&g_s)),
            Estimator::SecondOrder => {
                let d1 = vecops::scaled(1.0 / n, &engine.chol.solve(&g_tilde));
                let hs_d1 = dense_subset_hessian_vec(engine, train, rows, &d1);
                let mut corr = vecops::scaled(m / n, &engine.chol.solve(&hs_d1));
                vecops::axpy(1.0, &d1, &mut corr);
                corr
            }
            Estimator::NewtonStep => {
                let apply = |v: &[f64]| -> Vec<f64> {
                    let mut hv = vecops::scaled(n, &engine.hessian.matvec(v));
                    let hs_v = dense_subset_hessian_vec(engine, train, rows, v);
                    vecops::axpy(-m, &hs_v, &mut hv);
                    hv
                };
                let cap = NEWTON_CG_MAX_ITER.min(4 * p);
                conjugate_gradient(apply, &g_tilde, NEWTON_CG_TOL, cap).x
            }
            Estimator::OneStepGd { learning_rate } => {
                let all: Vec<u32> = (0..engine.n_train() as u32).collect();
                let mean_grad =
                    vecops::scaled(1.0 / n, &dense_subset_gradient(engine, train, &all));
                (0..p)
                    .map(|i| -learning_rate * (mean_grad[i] - g_s[i] / n))
                    .collect()
            }
        }
    }

    /// The sparse gathers against the dense loops, bit for bit, on three
    /// subsets and under every estimator.
    fn assert_matches_dense_reference<M: Differentiable>(
        engine: &InfluenceEngine<M>,
        train: &Encoded,
        label: &str,
    ) {
        let n = train.n_rows() as u32;
        assert_eq!(engine.n_train(), train.n_rows(), "{label}");
        let v: Vec<f64> = (0..engine.n_params())
            .map(|i| (i % 7) as f64 * 0.29 - 0.8)
            .collect();
        let subsets: [Vec<u32>; 3] = [
            (0..n).step_by(3).collect(),
            (n / 4..n / 2).collect(),
            vec![0, n - 1],
        ];
        for rows in &subsets {
            assert_eq!(
                bits(&engine.subset_gradient(rows)),
                bits(&dense_subset_gradient(engine, train, rows)),
                "{label}: subset gradient"
            );
            assert_eq!(
                bits(&engine.subset_hessian_vec(train, rows, &v)),
                bits(&dense_subset_hessian_vec(engine, train, rows, &v)),
                "{label}: subset Hessian-vector product"
            );
            for est in [
                Estimator::FirstOrder,
                Estimator::SecondOrder,
                Estimator::NewtonStep,
                Estimator::OneStepGd { learning_rate: 0.5 },
            ] {
                assert_eq!(
                    bits(&engine.param_change(train, rows, est)),
                    bits(&dense_param_change(engine, train, rows, est)),
                    "{label}: {}",
                    est.label()
                );
            }
        }
    }

    /// Checks `engine` against the dense reference as built, after a small
    /// delta, and after a delta large enough to rebuild; returns the two
    /// updates' rebuild causes.
    fn check_through_updates<M: Differentiable>(
        mut engine: InfluenceEngine<M>,
        data: &Encoded,
        label: &str,
    ) -> [Option<RebuildCause>; 2] {
        assert_matches_dense_reference(&engine, data, label);
        let small = with_delta(data, &[4], &[7]);
        let rm = delta_pairs(data, &[4]);
        let add = delta_pairs(data, &[7]);
        let first = engine.update(&small, &[4], &as_refs(&rm), &as_refs(&add));
        assert_matches_dense_reference(&engine, &small, &format!("{label} after update"));
        let removed: Vec<usize> = (0..small.n_rows() / 4).collect();
        let large = with_delta(&small, &removed, &[]);
        let rm = delta_pairs(&small, &removed);
        let second = engine.update(&large, &removed, &as_refs(&rm), &[]);
        assert_matches_dense_reference(&engine, &large, &format!("{label} after rebuild"));
        [first.rebuild, second.rebuild]
    }

    /// `subset_gradient`, `subset_hessian_vec` and `param_change` walk only
    /// stored nonzeros, and must give the dense loops' bits: German LR,
    /// the SVM (whose zero-slack rows carry weight 0 and a zero gradient),
    /// the MLP, and a design with injected `0.0` and `-0.0` features and a
    /// zero-residual row, each as built, after an incremental update and
    /// after a rebuild.
    #[test]
    fn sparse_gathers_match_the_dense_loops_bit_for_bit() {
        let (data, engine) = fitted_engine(4000, 41);
        let causes = check_through_updates(engine, &data, "lr");
        assert_eq!(causes[0], None, "lr: a small delta stays incremental");
        assert!(
            matches!(causes[1], Some(RebuildCause::Drift { .. })),
            "lr: {causes:?}"
        );

        let raw = german(1500, 42);
        let data = Encoder::fit(&raw).transform(&raw);
        let mut svm = gopher_models::LinearSvm::new(data.n_cols(), 1e-3);
        gopher_models::train::fit_default(&mut svm, &data);
        assert!((0..data.n_rows())
            .any(|r| svm.rank_one(data.x.row(r), data.y[r]).unwrap().weight == 0.0));
        let engine = InfluenceEngine::new(svm, &data, InfluenceConfig::default());
        let causes = check_through_updates(engine, &data, "svm");
        assert!(causes[1].is_some(), "svm: {causes:?}");

        let raw = german(150, 43);
        let data = Encoder::fit(&raw).transform(&raw);
        let mut mlp = gopher_models::Mlp::new(data.n_cols(), 4, 1e-3, &mut Rng::new(8));
        gopher_models::train::fit_gd(
            &mut mlp,
            &data,
            &gopher_models::train::GdConfig {
                max_epochs: 200,
                ..Default::default()
            },
        );
        let engine = InfluenceEngine::new(mlp, &data, InfluenceConfig::default());
        let causes = check_through_updates(engine, &data, "mlp");
        assert_eq!(causes, [Some(RebuildCause::NoRankOneHessian); 2]);

        let mut data = random_encoded(400, 6, 44);
        let mut rng = Rng::new(45);
        for r in 0..data.n_rows() {
            for c in 0..data.n_cols() {
                if rng.bernoulli(0.5) {
                    data.x[(r, c)] = if rng.bernoulli(0.5) { 0.0 } else { -0.0 };
                }
            }
        }
        data.x.row_mut(3).fill(-0.0);
        let model = ridge_fit(&data, 0.1);
        let d = data.n_cols();
        data.y[5] = vecops::dot(&model.params()[..d], data.x.row(5)) + model.params()[d];
        let engine = InfluenceEngine::new(model, &data, InfluenceConfig::default());
        assert!(
            engine.subset_gradient(&[5]).iter().all(|&g| g == 0.0),
            "row 5 has zero residual"
        );
        let causes = check_through_updates(engine, &data, "sparse design");
        assert!(causes[1].is_some(), "sparse design: {causes:?}");
    }
}
