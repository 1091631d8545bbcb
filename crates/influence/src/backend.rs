//! Pluggable influence backends: one estimator stack per model family.
//!
//! The Pradhan et al. pipeline needs four capabilities from its influence
//! layer — score a training subset's responsibility for a bias metric,
//! produce the ground-truth retrained models for subsets, precompute
//! per-metric state, and absorb training-data deltas incrementally. For the
//! differentiable families those are Hessian-based influence functions
//! ([`InfluenceEngine`] is their backend); for tree ensembles they are
//! exact machine unlearning (Surve & Pradhan, [`UnlearningBackend`]).
//! [`InfluenceBackend`] is the seam between the two: the explanation
//! session is generic over it and never mentions gradients.
//!
//! [`ModelFamily`] closes the loop by naming, for each model type, its
//! backend and its default training procedure — the two facts a session
//! builder needs that `Model` alone cannot provide.
//!
//! For lr/svm/mlp the session's backend *is* the engine: the trait methods
//! call the engine's own update, the same `BiasInfluence` construction per
//! sweep, and the same warm-started retrains, so explanations through the
//! trait are bit-identical to the direct engine path (pinned by the
//! `influence_backend` integration tests).

use crate::bias::{responsibility, BiasEval, BiasInfluence, BiasPrecomp};
use crate::engine::{
    EngineUpdateReport, Estimator, InfluenceConfig, InfluenceEngine, RebuildCause,
};
use crate::retrain::retrain_without_many;
use gopher_data::Encoded;
use gopher_fairness::FairnessMetric;
use gopher_models::train::{fit_default, TrainReport};
use gopher_models::{Differentiable, Forest, LinearSvm, LogisticRegression, Mlp, Model};

/// A per-subset responsibility scorer for one sweep: maps covered training
/// rows to `R_F(S)`. Built once per sweep member and invoked once per
/// candidate pattern.
pub type SubsetScorer<'a> = Box<dyn Fn(&[u32]) -> f64 + Send + Sync + 'a>;

/// The influence estimator stack behind an explanation session: everything
/// the session needs from "how does removing training rows change the
/// model" without committing to gradients.
///
/// Implementations must be deterministic at any thread count: a scorer is
/// called from parallel sweep workers and its value for a subset must not
/// depend on call order.
pub trait InfluenceBackend: Send + Sync {
    /// The model family this backend estimates influence for.
    type Model: Model;

    /// Builds the backend around an **already trained** model. For
    /// Hessian-based backends this is where gradients and the factored
    /// Hessian are precomputed; for unlearning it is a cheap wrap.
    fn build(model: Self::Model, train: &Encoded, config: InfluenceConfig) -> Self;

    /// The trained model.
    fn model(&self) -> &Self::Model;

    /// Per-metric precomputation (baseline biases, and the metric gradient
    /// where the family has one). Sessions cache one per metric.
    fn precompute(&self, metric: FairnessMetric, test: &Encoded) -> BiasPrecomp;

    /// A responsibility scorer for one sweep over `train`, specialized to
    /// `(metric, estimator, eval)`. `precomp` must come from
    /// [`precompute`](Self::precompute) (or a cache of it) for the same
    /// metric and test set.
    ///
    /// Families without parameter gradients document how they interpret
    /// `estimator`/`eval` (the unlearning backend ignores the estimator and
    /// re-evaluates the metric directly).
    fn scorer<'a>(
        &'a self,
        train: &'a Encoded,
        test: &'a Encoded,
        metric: FairnessMetric,
        precomp: BiasPrecomp,
        estimator: Estimator,
        eval: BiasEval,
    ) -> SubsetScorer<'a>;

    /// Ground-truth oracle: for each subset, the model retrained from
    /// scratch without its rows, fanned out across up to `threads` workers.
    /// Results are in input order and bit-identical at any thread count.
    fn ground_truth_models(
        &self,
        train: &Encoded,
        subsets: &[Vec<u32>],
        threads: usize,
    ) -> Vec<Self::Model>;

    /// Absorbs a training-data delta incrementally. `old_train` is the
    /// pre-delta encoded training set (row ids in `removed_rows` index into
    /// it), `new_train` the post-delta one; `removed`/`added` are the delta
    /// rows as `(features, label)` pairs. Returns the same diagnostics shape
    /// as the engine's delta path so sessions report fallbacks uniformly.
    fn update(
        &mut self,
        old_train: &Encoded,
        new_train: &Encoded,
        removed_rows: &[usize],
        removed: &[(&[f64], f64)],
        added: &[(&[f64], f64)],
    ) -> EngineUpdateReport;
}

/// A model family: a [`Model`] that knows its default training procedure
/// and which [`InfluenceBackend`] estimates influence for it. This is the
/// bound session builders and CLI dispatch are generic over.
pub trait ModelFamily: Model {
    /// The influence backend for this family.
    type Backend: InfluenceBackend<Model = Self>;

    /// Trains the model to its family's convergence criterion (Newton/GD
    /// for the differentiable families, greedy tree growth for forests).
    fn fit(&mut self, train: &Encoded) -> TrainReport;
}

/// The Hessian-based influence backend for any [`Differentiable`] family:
/// per-row gradients and the factored Hessian, queried by
/// [`BiasInfluence`].
impl<M: Differentiable> InfluenceBackend for InfluenceEngine<M> {
    type Model = M;

    fn build(model: M, train: &Encoded, config: InfluenceConfig) -> Self {
        Self::new(model, train, config)
    }

    fn model(&self) -> &M {
        InfluenceEngine::model(self)
    }

    fn precompute(&self, metric: FairnessMetric, test: &Encoded) -> BiasPrecomp {
        BiasPrecomp::compute(metric, InfluenceEngine::model(self), test)
    }

    fn scorer<'a>(
        &'a self,
        train: &'a Encoded,
        test: &'a Encoded,
        metric: FairnessMetric,
        precomp: BiasPrecomp,
        estimator: Estimator,
        eval: BiasEval,
    ) -> SubsetScorer<'a> {
        let bi = BiasInfluence::from_precomp(self, metric, test, precomp);
        Box::new(move |rows: &[u32]| bi.responsibility(train, rows, estimator, eval))
    }

    fn ground_truth_models(&self, train: &Encoded, subsets: &[Vec<u32>], threads: usize) -> Vec<M> {
        retrain_without_many(InfluenceEngine::model(self), train, subsets, threads)
            .into_iter()
            .map(|outcome| outcome.model)
            .collect()
    }

    fn update(
        &mut self,
        _old_train: &Encoded,
        new_train: &Encoded,
        removed_rows: &[usize],
        removed: &[(&[f64], f64)],
        added: &[(&[f64], f64)],
    ) -> EngineUpdateReport {
        InfluenceEngine::update(self, new_train, removed_rows, removed, added)
    }
}

/// Example-based influence for [`Forest`] via exact machine unlearning:
/// a subset's responsibility is measured by *actually removing* its rows
/// from every tree's bootstrap sample (leaf statistics updated, only
/// affected nodes re-split) and re-evaluating the fairness metric — no
/// gradients anywhere. The ground-truth oracle is a scratch retrain (fresh
/// bootstraps and cutpoints on the reduced data), so the estimator/oracle
/// gap is exactly the bootstrap resampling noise the unlearning literature
/// measures against.
pub struct UnlearningBackend {
    forest: Forest,
}

impl UnlearningBackend {
    /// The unlearned-family model.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }
}

impl InfluenceBackend for UnlearningBackend {
    type Model = Forest;

    /// There is no Hessian to damp, so `config` is unused.
    ///
    /// # Panics
    /// If the forest has not been fit, or was fit on a different number of
    /// rows than `train` has.
    fn build(model: Forest, train: &Encoded, _config: InfluenceConfig) -> Self {
        assert!(model.is_fit(), "UnlearningBackend needs a fitted Forest");
        assert_eq!(
            model.n_train_rows(),
            train.n_rows(),
            "forest was fit on a different training set"
        );
        Self { forest: model }
    }

    fn model(&self) -> &Forest {
        &self.forest
    }

    /// No parameter vector means no metric gradient: `grad_f` stays empty
    /// and only the baselines are populated.
    fn precompute(&self, metric: FairnessMetric, test: &Encoded) -> BiasPrecomp {
        BiasPrecomp {
            grad_f: Vec::new(),
            base_hard: gopher_fairness::bias(metric, &self.forest, test),
            base_smooth: gopher_fairness::smooth_bias(metric, &self.forest, test),
        }
    }

    /// The `estimator` is ignored — unlearning *is* the estimator. `eval`
    /// keeps its spirit: `ReEvalSmooth` re-evaluates the smooth metric on
    /// the unlearned forest, while `ChainRule` (meaningless without a
    /// gradient) and `ReEvalHard` both re-evaluate the hard metric.
    fn scorer<'a>(
        &'a self,
        train: &'a Encoded,
        test: &'a Encoded,
        metric: FairnessMetric,
        precomp: BiasPrecomp,
        _estimator: Estimator,
        eval: BiasEval,
    ) -> SubsetScorer<'a> {
        let base_hard = precomp.base_hard;
        let base_smooth = precomp.base_smooth;
        Box::new(move |rows: &[u32]| {
            responsibility(base_hard, || {
                let unlearned = self.forest.unlearn(train, rows);
                let delta = match eval {
                    BiasEval::ReEvalSmooth => {
                        gopher_fairness::smooth_bias(metric, &unlearned, test) - base_smooth
                    }
                    BiasEval::ChainRule | BiasEval::ReEvalHard => {
                        gopher_fairness::bias(metric, &unlearned, test) - base_hard
                    }
                };
                -delta
            })
        })
    }

    fn ground_truth_models(
        &self,
        train: &Encoded,
        subsets: &[Vec<u32>],
        threads: usize,
    ) -> Vec<Forest> {
        gopher_par::par_map(threads, subsets, |_, rows| {
            let mut remove = vec![false; train.n_rows()];
            for &r in rows {
                remove[r as usize] = true;
            }
            let reduced = train.remove_rows(&remove);
            let mut forest = Forest::new(self.forest.n_inputs(), self.forest.config().clone());
            forest.fit(&reduced);
            forest
        })
    }

    /// Removals are **exact**: every tree unlearns the rows from its
    /// bootstrap sample and row ids are renumbered to the compacted
    /// training set. Additions are where per-tree unlearning is inexact —
    /// bootstrap membership of rows that never existed at fit time is
    /// undefined — so any added row triggers the documented full-rebuild
    /// fallback: a scratch refit on the new training set, reported as
    /// [`RebuildCause::ForestAddition`].
    fn update(
        &mut self,
        old_train: &Encoded,
        new_train: &Encoded,
        removed_rows: &[usize],
        _removed: &[(&[f64], f64)],
        added: &[(&[f64], f64)],
    ) -> EngineUpdateReport {
        if added.is_empty() {
            let mut removed: Vec<u32> = removed_rows.iter().map(|&r| r as u32).collect();
            removed.sort_unstable();
            self.forest.unlearn_in_place(old_train, &removed);
            self.forest.remap_after_removal(&removed);
            EngineUpdateReport {
                rebuild: None,
                retrain: train_error_report(&self.forest, new_train, 0),
            }
        } else {
            let mut forest = Forest::new(self.forest.n_inputs(), self.forest.config().clone());
            let retrain = forest.fit(new_train);
            self.forest = forest;
            EngineUpdateReport {
                rebuild: Some(RebuildCause::ForestAddition),
                retrain,
            }
        }
    }
}

/// A [`TrainReport`] in the trainer's shape for a forest that was *not*
/// refit: training error as the loss, no gradient, trivially converged.
fn train_error_report(forest: &Forest, train: &Encoded, iterations: usize) -> TrainReport {
    let n = train.n_rows();
    let errors = (0..n)
        .filter(|&r| forest.predict(train.x.row(r)) != train.y[r])
        .count();
    TrainReport {
        iterations,
        final_loss: errors as f64 / n.max(1) as f64,
        grad_norm: 0.0,
        converged: true,
    }
}

impl ModelFamily for LogisticRegression {
    type Backend = InfluenceEngine<Self>;
    fn fit(&mut self, train: &Encoded) -> TrainReport {
        fit_default(self, train)
    }
}

impl ModelFamily for LinearSvm {
    type Backend = InfluenceEngine<Self>;
    fn fit(&mut self, train: &Encoded) -> TrainReport {
        fit_default(self, train)
    }
}

impl ModelFamily for Mlp {
    type Backend = InfluenceEngine<Self>;
    fn fit(&mut self, train: &Encoded) -> TrainReport {
        fit_default(self, train)
    }
}

impl ModelFamily for Forest {
    type Backend = UnlearningBackend;
    fn fit(&mut self, train: &Encoded) -> TrainReport {
        Forest::fit(self, train)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retrain::retrain_without;
    use gopher_data::generators::german;
    use gopher_data::Encoder;
    use gopher_models::ForestConfig;
    use gopher_prng::Rng;

    fn split(n: usize, seed: u64) -> (Encoded, Encoded) {
        let mut rng = Rng::new(seed);
        let (train_raw, test_raw) = german(n, seed).train_test_split(0.3, &mut rng);
        let enc = Encoder::fit(&train_raw);
        (enc.transform(&train_raw), enc.transform(&test_raw))
    }

    /// The refactor-identity pin at the unit level: the backend's scorer is
    /// the exact same arithmetic as a hand-built `BiasInfluence`.
    #[test]
    fn hessian_scorer_is_bit_identical_to_direct_bias_influence() {
        let (train, test) = split(600, 21);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        ModelFamily::fit(&mut model, &train);
        let backend: InfluenceEngine<LogisticRegression> =
            InfluenceBackend::build(model, &train, InfluenceConfig::default());
        let metric = FairnessMetric::StatisticalParity;
        let precomp = backend.precompute(metric, &test);
        let bi = BiasInfluence::from_precomp(&backend, metric, &test, precomp.clone());
        let scorer = backend.scorer(
            &train,
            &test,
            metric,
            precomp,
            Estimator::SecondOrder,
            BiasEval::ChainRule,
        );
        for rows in [
            (0..30u32).collect::<Vec<u32>>(),
            (100..140).collect(),
            vec![7, 9, 11],
        ] {
            let direct =
                bi.responsibility(&train, &rows, Estimator::SecondOrder, BiasEval::ChainRule);
            assert_eq!(scorer(&rows).to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn hessian_ground_truth_matches_retrain_without() {
        let (train, test) = split(500, 23);
        let _ = test;
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        ModelFamily::fit(&mut model, &train);
        let backend: InfluenceEngine<LogisticRegression> =
            InfluenceBackend::build(model, &train, InfluenceConfig::default());
        let rows: Vec<u32> = (0..25).collect();
        let direct = retrain_without(backend.model(), &train, &rows).model;
        let many = backend.ground_truth_models(&train, std::slice::from_ref(&rows), 1);
        assert_eq!(many[0].params(), direct.params());
    }

    #[test]
    fn unlearning_scorer_sign_matches_scratch_retrain_on_strong_subsets() {
        let (train, test) = split(1000, 29);
        let mut forest = Forest::new(train.n_cols(), ForestConfig::default());
        ModelFamily::fit(&mut forest, &train);
        let backend = UnlearningBackend::build(forest, &train, InfluenceConfig::default());
        let metric = FairnessMetric::StatisticalParity;
        let precomp = backend.precompute(metric, &test);
        let base = precomp.base_hard;
        assert!(
            base > 0.0,
            "german data must show baseline bias, got {base}"
        );
        // A strong bias-driving subset: privileged positives.
        let rows: Vec<u32> = (0..train.n_rows() as u32)
            .filter(|&r| train.privileged[r as usize] && train.y[r as usize] == 1.0)
            .take(train.n_rows() / 10)
            .collect();
        let scorer = backend.scorer(
            &train,
            &test,
            metric,
            precomp,
            Estimator::FirstOrder,
            BiasEval::ReEvalSmooth,
        );
        let est = scorer(&rows);
        let oracle = backend
            .ground_truth_models(&train, std::slice::from_ref(&rows), 1)
            .pop()
            .expect("one subset in, one model out");
        let gt = -(gopher_fairness::bias(metric, &oracle, &test) - base) / base;
        assert_eq!(
            est.signum(),
            gt.signum(),
            "unlearning estimate {est} vs scratch-retrain ground truth {gt}"
        );
    }

    #[test]
    fn unlearning_update_removals_are_exact_and_additions_rebuild() {
        let (train, _) = split(500, 31);
        let mut forest = Forest::new(train.n_cols(), ForestConfig::default());
        ModelFamily::fit(&mut forest, &train);
        let mut backend =
            UnlearningBackend::build(forest.clone(), &train, InfluenceConfig::default());

        // Removal-only delta: exact unlearning, no fallback.
        let removed: Vec<usize> = vec![3, 10, 57, 200];
        let mut mask = vec![false; train.n_rows()];
        removed.iter().for_each(|&r| mask[r] = true);
        let new_train = train.remove_rows(&mask);
        let report = backend.update(&train, &new_train, &removed, &[], &[]);
        assert!(!report.fell_back());
        assert_eq!(backend.model().n_train_rows(), new_train.n_rows());
        // The unlearned forest matches unlearn-then-remap applied directly.
        let mut reference = forest.unlearn(&train, &[3, 10, 57, 200]);
        reference.remap_after_removal(&[3, 10, 57, 200]);
        for r in 0..new_train.n_rows() {
            let a = backend.model().predict_proba(new_train.x.row(r));
            let b = reference.predict_proba(new_train.x.row(r));
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Any addition triggers the documented full rebuild.
        let added_x: Vec<f64> = vec![0.0; train.n_cols()];
        let added: Vec<(&[f64], f64)> = vec![(added_x.as_slice(), 1.0)];
        let report = backend.update(&new_train, &new_train, &[], &[], &added);
        assert_eq!(report.rebuild, Some(RebuildCause::ForestAddition));
        assert!(report.retrain.converged);
    }
}
