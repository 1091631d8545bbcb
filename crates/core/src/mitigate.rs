//! Greedy bias mitigation: iteratively remove Gopher's top explanation and
//! retrain until the bias target is met.
//!
//! This is the pre-processing repair loop the paper's introduction motivates
//! ("if the ML algorithm had been trained on the modified training data, it
//! would not have exhibited the unexpected behavior"): Gopher points at the
//! most responsible cohesive subset, we drop it, retrain, re-audit, and
//! repeat. Unlike blind reweighing, every removal is an *interpretable*
//! pattern, so the data owner can review what is being dropped.

use crate::session::{ExplainRequest, SessionBuilder};
use gopher_data::Dataset;
use gopher_influence::ModelFamily;

/// Stopping rules for the mitigation loop.
#[derive(Debug, Clone)]
pub struct MitigationConfig {
    /// Stop once `|bias|` falls to or below this.
    pub target_bias: f64,
    /// Hard cap on loop iterations.
    pub max_rounds: usize,
    /// Stop if more than this fraction of the original training data has
    /// been removed (guards against the degenerate "delete everything"
    /// solution the paper's interestingness score is designed to avoid).
    pub max_removed_fraction: f64,
}

impl Default for MitigationConfig {
    fn default() -> Self {
        Self {
            target_bias: 0.05,
            max_rounds: 5,
            max_removed_fraction: 0.3,
        }
    }
}

/// One round of the loop.
#[derive(Debug, Clone)]
pub struct MitigationRound {
    /// The pattern that was removed this round.
    pub pattern_text: String,
    /// Rows removed (indices into the *current* training set of the round).
    pub removed_rows: usize,
    /// Bias before the removal.
    pub bias_before: f64,
    /// Bias after retraining without the subset.
    pub bias_after: f64,
    /// Test accuracy after retraining.
    pub accuracy_after: f64,
}

/// Outcome of the mitigation loop.
#[derive(Debug, Clone)]
pub struct MitigationReport {
    /// Per-round log.
    pub rounds: Vec<MitigationRound>,
    /// Bias of the final model.
    pub final_bias: f64,
    /// Test accuracy of the final model.
    pub final_accuracy: f64,
    /// Total fraction of the original training data removed.
    pub removed_fraction: f64,
    /// Whether the bias target was reached.
    pub achieved: bool,
    /// The repaired training dataset.
    pub repaired_train: Dataset,
}

/// Runs the greedy mitigation loop, asking each round's model `request`
/// (its metric, thresholds and estimator; the loop sets `k = 1` and turns
/// ground truth off, since it retrains anyway).
///
/// `make_model` is invoked once for the original data and once per removal
/// round (`rounds + 1` times in all): each model is trained from scratch on
/// the shrinking data, and the model fitted to measure a round's
/// `bias_after` answers the next round's question.
pub fn mitigate<M: ModelFamily>(
    mut make_model: impl FnMut(usize) -> M,
    train_raw: &Dataset,
    test_raw: &Dataset,
    request: &ExplainRequest,
    config: &MitigationConfig,
) -> MitigationReport {
    assert!(
        config.target_bias >= 0.0,
        "target bias must be non-negative"
    );
    assert!(
        (0.0..=1.0).contains(&config.max_removed_fraction),
        "max_removed_fraction must be a fraction"
    );
    let original_rows = train_raw.n_rows();
    let mut current = train_raw.clone();
    let mut rounds = Vec::new();
    let mut final_bias = f64::NAN;
    let mut final_accuracy = f64::NAN;

    let request = ExplainRequest {
        k: 1,
        ground_truth_for_topk: false,
        ..request.clone()
    };

    // The model retrains every round, so each round needs a fresh session;
    // the per-query state (metric, thresholds) is the same request
    // throughout.
    let mut session = SessionBuilder::new().fit(&mut make_model, &current, test_raw);
    for _ in 0..config.max_rounds {
        let report = session.explain(&request).report;
        final_bias = report.base_bias;
        final_accuracy = report.accuracy;

        if report.base_bias.abs() <= config.target_bias {
            break;
        }
        let Some(top) = report.explanations.first() else {
            break; // no candidate passes the support threshold any more
        };
        let removed_so_far = original_rows - current.n_rows();
        let would_remove = top.candidate.coverage.count();
        if (removed_so_far + would_remove) as f64 / original_rows as f64
            > config.max_removed_fraction
        {
            break;
        }

        // Remove the subset and measure the retrained bias for the log.
        let mut mask = vec![false; current.n_rows()];
        for r in top.candidate.coverage.iter() {
            mask[r as usize] = true;
        }
        let next = current.remove_rows(&mask);
        let next_session = SessionBuilder::new().fit(&mut make_model, &next, test_raw);
        let bias_after =
            gopher_fairness::bias(request.metric, next_session.model(), next_session.test());
        let accuracy_after =
            gopher_models::train::accuracy(next_session.model(), next_session.test());
        rounds.push(MitigationRound {
            pattern_text: top.pattern_text.clone(),
            removed_rows: would_remove,
            bias_before: report.base_bias,
            bias_after,
            accuracy_after,
        });
        final_bias = bias_after;
        final_accuracy = accuracy_after;
        current = next;
        session = next_session;
        if bias_after.abs() <= config.target_bias {
            break;
        }
    }

    MitigationReport {
        rounds,
        final_bias,
        final_accuracy,
        removed_fraction: (original_rows - current.n_rows()) as f64 / original_rows as f64,
        achieved: final_bias.abs() <= config.target_bias,
        repaired_train: current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_data::generators::german;
    use gopher_models::LogisticRegression;
    use gopher_prng::Rng;

    fn split(seed: u64) -> (Dataset, Dataset) {
        let mut rng = Rng::new(seed);
        german(900, seed).train_test_split(0.3, &mut rng)
    }

    #[test]
    fn mitigation_reduces_bias_monotonically_enough() {
        let (train, test) = split(601);
        let report = mitigate(
            |cols| LogisticRegression::new(cols, 1e-3),
            &train,
            &test,
            &ExplainRequest::default(),
            &MitigationConfig {
                target_bias: 0.02,
                max_rounds: 4,
                max_removed_fraction: 0.4,
            },
        );
        assert!(
            !report.rounds.is_empty(),
            "at least one removal round expected"
        );
        let initial = report.rounds[0].bias_before;
        assert!(
            report.final_bias < initial,
            "bias should drop: {initial} -> {}",
            report.final_bias
        );
        assert!(report.removed_fraction <= 0.4 + 1e-9);
        // The log is internally consistent.
        for w in report.rounds.windows(2) {
            assert!((w[0].bias_after - w[1].bias_before).abs() < 1e-12);
        }
    }

    /// The model fitted to log a round's `bias_after` answers the next
    /// round's question, so the loop trains one model for the original data
    /// and one per round.
    #[test]
    fn each_round_trains_one_model() {
        let (train, test) = split(601);
        let mut builds = 0;
        let report = mitigate(
            |cols| {
                builds += 1;
                LogisticRegression::new(cols, 1e-3)
            },
            &train,
            &test,
            &ExplainRequest::default(),
            &MitigationConfig {
                target_bias: 0.0,
                max_rounds: 4,
                max_removed_fraction: 0.6,
            },
        );
        assert_eq!(
            report.rounds.len(),
            4,
            "every round should remove a pattern"
        );
        assert_eq!(builds, report.rounds.len() + 1);
    }

    #[test]
    fn loose_target_stops_immediately() {
        let (train, test) = split(602);
        let report = mitigate(
            |cols| LogisticRegression::new(cols, 1e-3),
            &train,
            &test,
            &ExplainRequest::default(),
            &MitigationConfig {
                target_bias: 10.0,
                ..Default::default()
            },
        );
        assert!(report.achieved);
        assert!(report.rounds.is_empty());
        assert_eq!(report.removed_fraction, 0.0);
        assert_eq!(report.repaired_train.n_rows(), train.n_rows());
    }

    #[test]
    fn removal_cap_is_respected() {
        let (train, test) = split(603);
        let report = mitigate(
            |cols| LogisticRegression::new(cols, 1e-3),
            &train,
            &test,
            &ExplainRequest::default(),
            &MitigationConfig {
                target_bias: 0.0,
                max_rounds: 10,
                max_removed_fraction: 0.10,
            },
        );
        assert!(report.removed_fraction <= 0.10 + 1e-9);
    }
}
