//! Ground-truth retraining: the expensive baseline the estimators replace.

use gopher_data::Encoded;
use gopher_models::train::{fit_default, TrainReport};
use gopher_models::Differentiable;

/// Result of a ground-truth retraining run.
#[derive(Debug, Clone)]
pub struct RetrainOutcome<M> {
    /// The retrained model.
    pub model: M,
    /// Training diagnostics.
    pub report: TrainReport,
}

/// Retrains a copy of `model` on `train` minus the given rows, warm-starting
/// from the current parameters (as the paper does to speed up the retraining
/// baseline).
pub fn retrain_without<M: Differentiable>(
    model: &M,
    train: &Encoded,
    rows: &[u32],
) -> RetrainOutcome<M> {
    let mut remove = vec![false; train.n_rows()];
    for &r in rows {
        remove[r as usize] = true;
    }
    let reduced = train.remove_rows(&remove);
    let mut retrained = model.clone();
    let report = fit_default(&mut retrained, &reduced);
    RetrainOutcome {
        model: retrained,
        report,
    }
}

/// Fans [`retrain_without`] out over many row subsets across up to
/// `threads` worker threads, returning one outcome per subset in input
/// order. Each retraining is independent (its own model clone and reduced
/// dataset), so results are bit-identical to a sequential loop at any
/// thread count. This is the ground-truth hot path of a top-k explanation:
/// `k` retrains per query, each a full Newton solve.
pub fn retrain_without_many<M: Differentiable>(
    model: &M,
    train: &Encoded,
    subsets: &[Vec<u32>],
    threads: usize,
) -> Vec<RetrainOutcome<M>> {
    gopher_par::par_map(threads, subsets, |_, rows| {
        retrain_without(model, train, rows)
    })
}

/// Retrains a copy of `model` on an already-modified training set (used by
/// update-based explanations, where rows are perturbed instead of removed).
pub fn retrain_updated<M: Differentiable>(model: &M, updated_train: &Encoded) -> RetrainOutcome<M> {
    let mut retrained = model.clone();
    let report = fit_default(&mut retrained, updated_train);
    RetrainOutcome {
        model: retrained,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_data::generators::german;
    use gopher_data::Encoder;
    use gopher_models::train::{fit_newton, objective, NewtonConfig};
    use gopher_models::LogisticRegression;

    #[test]
    fn retraining_without_rows_changes_model() {
        let raw = german(400, 41);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        let rows: Vec<u32> = (0..40).collect();
        let outcome = retrain_without(&model, &train, &rows);
        assert!(outcome.report.converged);
        assert_ne!(outcome.model.params(), model.params());
        // The retrained model is optimal for the reduced set: its objective
        // there must not exceed the original model's.
        let mut remove = vec![false; train.n_rows()];
        rows.iter().for_each(|&r| remove[r as usize] = true);
        let reduced = train.remove_rows(&remove);
        assert!(objective(&outcome.model, &reduced) <= objective(&model, &reduced) + 1e-12);
    }

    #[test]
    fn retrain_fan_out_matches_sequential() {
        let raw = german(300, 43);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        let subsets: Vec<Vec<u32>> = vec![
            (0..20).collect(),
            (50..90).collect(),
            (100..110).collect(),
            (200..260).collect(),
        ];
        let sequential: Vec<_> = subsets
            .iter()
            .map(|rows| retrain_without(&model, &train, rows))
            .collect();
        for threads in [1, 4] {
            let fanned = retrain_without_many(&model, &train, &subsets, threads);
            assert_eq!(fanned.len(), sequential.len());
            for (f, s) in fanned.iter().zip(&sequential) {
                assert_eq!(f.model.params(), s.model.params(), "threads={threads}");
                assert_eq!(f.report.converged, s.report.converged);
            }
        }
    }

    #[test]
    fn retrain_updated_trains_on_given_data() {
        let raw = german(300, 42);
        let enc = Encoder::fit(&raw);
        let train = enc.transform(&raw);
        let mut model = LogisticRegression::new(train.n_cols(), 1e-3);
        fit_newton(&mut model, &train, &NewtonConfig::default());
        // Flip some labels and retrain.
        let mut modified = train.clone();
        for y in modified.y.iter_mut().take(50) {
            *y = 1.0 - *y;
        }
        let outcome = retrain_updated(&model, &modified);
        assert!(outcome.report.converged);
        assert_ne!(outcome.model.params(), model.params());
    }
}
