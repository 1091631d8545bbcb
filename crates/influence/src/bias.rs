//! Bias-change estimation: from parameter changes to fairness-metric changes.

use crate::engine::{Estimator, InfluenceEngine};
use gopher_data::Encoded;
use gopher_fairness::FairnessMetric;
use gopher_linalg::vecops;
use gopher_models::Differentiable;

/// Causal responsibility `R_F(S) = (F(θ*) − F(θ̄_S)) / F(θ*)` (paper
/// Definition 3.2): the bias reduction `F(θ*) − F(θ̄_S)` that removing `S`
/// brings, relative to the baseline bias `base = F(θ*)`.
///
/// Positive values mean removing `S` reduces bias. Returns 0 when the
/// baseline bias is (numerically) zero — an unbiased model has no root
/// causes to attribute — and then never evaluates `reduction`, so callers
/// skip the estimate, unlearning or retrain behind it. Every
/// responsibility in the workspace goes through this one formula: the
/// influence estimates, the forest's unlearning, and the ground truth.
pub fn responsibility(base: f64, reduction: impl FnOnce() -> f64) -> f64 {
    if base.abs() < 1e-12 {
        0.0
    } else {
        reduction() / base
    }
}

/// How to turn an estimated parameter change into an estimated bias change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BiasEval {
    /// Linearize: `ΔF = ∇θF(θ*)ᵀ Δθ` (paper Eq. 11).
    ChainRule,
    /// Re-evaluate the smooth metric at `θ* + Δθ`.
    ReEvalSmooth,
    /// Re-evaluate the hard (thresholded) metric at `θ* + Δθ`.
    ReEvalHard,
}

/// The metric-specific state [`BiasInfluence`] precomputes: the smooth bias
/// gradient and the baseline biases.
///
/// Computing this is the only per-metric cost of building a query object, so
/// a session serving many queries against one engine caches one
/// `BiasPrecomp` per metric and rebuilds [`BiasInfluence`] handles for free
/// via [`BiasInfluence::from_precomp`].
#[derive(Debug, Clone)]
pub struct BiasPrecomp {
    /// `∇θ F(θ*, D_test)` of the smooth metric.
    pub grad_f: Vec<f64>,
    /// Baseline hard bias `F(θ*, D_test)`.
    pub base_hard: f64,
    /// Baseline smooth bias.
    pub base_smooth: f64,
}

impl BiasPrecomp {
    /// Computes the gradient and baselines for one metric/model/test-set
    /// triple.
    pub fn compute<M: Differentiable>(metric: FairnessMetric, model: &M, test: &Encoded) -> Self {
        Self {
            grad_f: gopher_fairness::bias_gradient(metric, model, test),
            base_hard: gopher_fairness::bias(metric, model, test),
            base_smooth: gopher_fairness::smooth_bias(metric, model, test),
        }
    }
}

/// Influence queries specialized to one fairness metric and test set.
///
/// Precomputes the bias gradient `∇θF(θ*, D_test)` and the baseline bias so
/// each query costs one parameter-change estimate plus a dot product (chain
/// rule) or one metric evaluation (re-eval modes).
pub struct BiasInfluence<'a, M: Differentiable> {
    engine: &'a InfluenceEngine<M>,
    metric: FairnessMetric,
    test: &'a Encoded,
    grad_f: Vec<f64>,
    base_hard: f64,
    base_smooth: f64,
}

impl<'a, M: Differentiable> BiasInfluence<'a, M> {
    /// Builds the query object, computing the precomputation inline.
    pub fn new(engine: &'a InfluenceEngine<M>, metric: FairnessMetric, test: &'a Encoded) -> Self {
        let precomp = BiasPrecomp::compute(metric, engine.model(), test);
        Self::from_precomp(engine, metric, test, precomp)
    }

    /// Builds the query object around an already-computed [`BiasPrecomp`],
    /// reusing one engine handle across many `BiasInfluence` instances
    /// without re-deriving the metric gradient. The caller is responsible
    /// for the precomp matching `(metric, engine.model(), test)`.
    pub fn from_precomp(
        engine: &'a InfluenceEngine<M>,
        metric: FairnessMetric,
        test: &'a Encoded,
        precomp: BiasPrecomp,
    ) -> Self {
        Self {
            engine,
            metric,
            test,
            grad_f: precomp.grad_f,
            base_hard: precomp.base_hard,
            base_smooth: precomp.base_smooth,
        }
    }

    /// The metric being tracked.
    pub fn metric(&self) -> FairnessMetric {
        self.metric
    }

    /// Baseline hard bias `F(θ*, D_test)`.
    pub fn base_bias(&self) -> f64 {
        self.base_hard
    }

    /// Baseline smooth bias.
    pub fn base_smooth_bias(&self) -> f64 {
        self.base_smooth
    }

    /// Estimated bias change `ΔF ≈ F(θ̄_S) − F(θ*)` if the given training
    /// rows were removed.
    pub fn bias_change(
        &self,
        train: &Encoded,
        rows: &[u32],
        estimator: Estimator,
        eval: BiasEval,
    ) -> f64 {
        let delta = self.engine.param_change(train, rows, estimator);
        self.bias_change_from_delta(&delta, eval)
    }

    /// Bias change for an already-computed parameter change.
    pub fn bias_change_from_delta(&self, delta: &[f64], eval: BiasEval) -> f64 {
        match eval {
            BiasEval::ChainRule => vecops::dot(&self.grad_f, delta),
            BiasEval::ReEvalSmooth => {
                let shifted = self.shifted_model(delta);
                gopher_fairness::smooth_bias(self.metric, &shifted, self.test) - self.base_smooth
            }
            BiasEval::ReEvalHard => {
                let shifted = self.shifted_model(delta);
                gopher_fairness::bias(self.metric, &shifted, self.test) - self.base_hard
            }
        }
    }

    /// Causal responsibility (see [`responsibility`]) of removing the
    /// given training rows, using the estimated bias change.
    pub fn responsibility(
        &self,
        train: &Encoded,
        rows: &[u32],
        estimator: Estimator,
        eval: BiasEval,
    ) -> f64 {
        responsibility(self.base_hard, || {
            -self.bias_change(train, rows, estimator, eval)
        })
    }

    fn shifted_model(&self, delta: &[f64]) -> M {
        let mut shifted = self.engine.model().clone();
        for (t, d) in shifted.params_mut().iter_mut().zip(delta) {
            *t += d;
        }
        shifted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InfluenceConfig;
    use crate::retrain::retrain_without;
    use gopher_data::generators::german;
    use gopher_data::Encoder;
    use gopher_models::train::{fit_newton, NewtonConfig};
    use gopher_models::LogisticRegression;

    fn setup() -> (InfluenceEngine<LogisticRegression>, Encoded, Encoded) {
        let raw = german(900, 31);
        let mut rng = gopher_prng_rng();
        let (train_raw, test_raw) = raw.train_test_split(0.3, &mut rng);
        let enc = Encoder::fit(&train_raw);
        let train = enc.transform(&train_raw);
        let test = enc.transform(&test_raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        let engine = InfluenceEngine::new(model, &train, InfluenceConfig::default());
        (engine, train, test)
    }

    fn gopher_prng_rng() -> gopher_prng::Rng {
        gopher_prng::Rng::new(77)
    }

    #[test]
    fn chain_rule_tracks_ground_truth_bias_change() {
        let (engine, train, test) = setup();
        let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &test);
        assert!(bi.base_bias() > 0.0, "baseline bias {}", bi.base_bias());

        // Remove the privileged-and-positive rows most responsible for bias:
        // pick a 5% block of privileged positive examples.
        let rows: Vec<u32> = (0..train.n_rows() as u32)
            .filter(|&r| train.privileged[r as usize] && train.y[r as usize] == 1.0)
            .take(train.n_rows() / 20)
            .collect();
        assert!(!rows.is_empty());

        let outcome = retrain_without(engine.model(), &train, &rows);
        let true_change =
            gopher_fairness::smooth_bias(FairnessMetric::StatisticalParity, &outcome.model, &test)
                - bi.base_smooth_bias();

        for est in [
            Estimator::FirstOrder,
            Estimator::SecondOrder,
            Estimator::NewtonStep,
        ] {
            let est_change = bi.bias_change(&train, &rows, est, BiasEval::ChainRule);
            assert_eq!(
                est_change.signum(),
                true_change.signum(),
                "{}: estimated {est_change} vs true {true_change}",
                est.label()
            );
            assert!(
                (est_change - true_change).abs() < 0.6 * true_change.abs() + 0.01,
                "{}: estimated {est_change} vs true {true_change}",
                est.label()
            );
        }
    }

    #[test]
    fn reeval_smooth_is_at_least_as_accurate_as_chain_rule_for_newton() {
        let (engine, train, test) = setup();
        let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &test);
        let rows: Vec<u32> = (0..(train.n_rows() / 5) as u32).collect(); // 20%
        let outcome = retrain_without(engine.model(), &train, &rows);
        let true_change =
            gopher_fairness::smooth_bias(FairnessMetric::StatisticalParity, &outcome.model, &test)
                - bi.base_smooth_bias();
        let delta = engine.param_change(&train, &rows, Estimator::NewtonStep);
        let chain = bi.bias_change_from_delta(&delta, BiasEval::ChainRule);
        let reeval = bi.bias_change_from_delta(&delta, BiasEval::ReEvalSmooth);
        let chain_err = (chain - true_change).abs();
        let reeval_err = (reeval - true_change).abs();
        assert!(
            reeval_err <= chain_err + 1e-3,
            "re-eval err {reeval_err} vs chain err {chain_err}"
        );
    }

    #[test]
    fn responsibility_sign_convention() {
        let (engine, train, test) = setup();
        let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &test);
        // Privileged positives push bias up; removing them should have
        // positive responsibility.
        let up_rows: Vec<u32> = (0..train.n_rows() as u32)
            .filter(|&r| train.privileged[r as usize] && train.y[r as usize] == 1.0)
            .take(30)
            .collect();
        let r = bi.responsibility(
            &train,
            &up_rows,
            Estimator::SecondOrder,
            BiasEval::ChainRule,
        );
        assert!(r > 0.0, "responsibility of bias-increasing rows {r}");
        // Protected positives pull bias down; removing them should backfire.
        let down_rows: Vec<u32> = (0..train.n_rows() as u32)
            .filter(|&r| !train.privileged[r as usize] && train.y[r as usize] == 1.0)
            .take(30)
            .collect();
        let r2 = bi.responsibility(
            &train,
            &down_rows,
            Estimator::SecondOrder,
            BiasEval::ChainRule,
        );
        assert!(r2 < 0.0, "responsibility of bias-reducing rows {r2}");
    }

    #[test]
    fn zero_baseline_bias_yields_zero_responsibility() {
        let (engine, train, test) = setup();
        // Degenerate test set: the same point once per group, so every rate
        // is identical and the hard bias is exactly 0.
        let mut degenerate = test.select_rows(&[0, 0]);
        degenerate.privileged[0] = true;
        degenerate.privileged[1] = false;
        degenerate.y[0] = 1.0;
        degenerate.y[1] = 1.0;
        let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &degenerate);
        assert_eq!(bi.base_bias(), 0.0);
        let rows: Vec<u32> = (0..10).collect();
        assert_eq!(
            bi.responsibility(&train, &rows, Estimator::FirstOrder, BiasEval::ChainRule),
            0.0
        );
    }
}
