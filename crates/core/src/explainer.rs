//! The report types an explanation answer carries: one [`Explanation`] per
//! selected pattern inside an [`ExplanationReport`]. An
//! [`ExplainSession`](crate::ExplainSession) produces them, one report per
//! [`ExplainRequest`](crate::ExplainRequest).

use gopher_fairness::FairnessMetric;
use gopher_patterns::{Candidate, SearchStats};
use std::time::Duration;

/// One explanation in the final report.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Human-readable pattern, e.g. `age >= 45 ∧ gender = Female`.
    pub pattern_text: String,
    /// The underlying scored candidate (coverage, support, scores).
    pub candidate: Candidate,
    /// `Sup(φ)` — fraction of training rows covered.
    pub support: f64,
    /// Estimated causal responsibility from the influence estimator.
    pub est_responsibility: f64,
    /// Ground-truth relative bias reduction from actually retraining
    /// without the subset: `(F_old − F_new)/F_old` (only when
    /// `ground_truth_for_topk` is set).
    pub ground_truth_responsibility: Option<f64>,
    /// Ground-truth bias after removal (hard metric).
    pub ground_truth_new_bias: Option<f64>,
}

/// The full explanation report.
#[derive(Debug, Clone)]
pub struct ExplanationReport {
    /// Metric the report is about.
    pub metric: FairnessMetric,
    /// Bias of the original model on the test set (hard metric).
    pub base_bias: f64,
    /// Test accuracy of the original model.
    pub accuracy: f64,
    /// Top-k explanations, most interesting first.
    pub explanations: Vec<Explanation>,
    /// Lattice search statistics (per-level counts and timings).
    pub stats: SearchStats,
    /// Wall-clock time of candidate generation + selection (excludes
    /// engine precomputation and ground-truth retraining). For a warm
    /// session reusing a cached sweep this reports the original sweep's
    /// cost plus the (tiny) selection time.
    pub search_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::ExplanationReport;
    use crate::session::{ExplainRequest, SessionBuilder};
    use gopher_data::generators::german;
    use gopher_models::LogisticRegression;
    use gopher_prng::Rng;

    /// A fresh German-`n` LR session answering the default request (ground
    /// truth on).
    fn explain(n: usize, seed: u64) -> ExplanationReport {
        let mut rng = Rng::new(seed);
        let (train, test) = german(n, seed).train_test_split(0.3, &mut rng);
        SessionBuilder::new()
            .fit(|cols| LogisticRegression::new(cols, 1e-3), &train, &test)
            .explain(&ExplainRequest::default())
            .report
    }

    #[test]
    fn end_to_end_finds_bias_reducing_patterns() {
        let report = explain(900, 71);
        assert!(report.base_bias > 0.0, "baseline bias {}", report.base_bias);
        assert!(!report.explanations.is_empty());
        assert!(report.explanations.len() <= 3);
        // The top explanation must genuinely reduce bias when removed.
        let top = &report.explanations[0];
        let gt = top
            .ground_truth_responsibility
            .expect("ground truth requested");
        assert!(gt > 0.0, "top pattern should reduce bias, got {gt}");
        // Interestingness ordering is non-increasing.
        for w in report.explanations.windows(2) {
            assert!(
                w[0].candidate.interestingness >= w[1].candidate.interestingness - 1e-12,
                "explanations out of order"
            );
        }
    }

    #[test]
    fn top_pattern_mentions_planted_root_cause() {
        let report = explain(1200, 72);
        // The generator plants age/gender subgroups as the dominant bias
        // source; at least one top pattern should reference one of them.
        let mentions_planted = report
            .explanations
            .iter()
            .any(|e| e.pattern_text.contains("age") || e.pattern_text.contains("gender"));
        let texts: Vec<&str> = report
            .explanations
            .iter()
            .map(|e| e.pattern_text.as_str())
            .collect();
        assert!(
            mentions_planted,
            "no planted feature in explanations: {texts:?}"
        );
    }

    #[test]
    fn explanations_respect_support_threshold() {
        let report = explain(700, 73);
        let tau = ExplainRequest::default().lattice.support_threshold;
        for e in &report.explanations {
            assert!(e.support >= tau);
        }
    }

    #[test]
    fn explanations_are_diverse() {
        let report = explain(700, 74);
        let c = ExplainRequest::default().containment_threshold;
        for (i, a) in report.explanations.iter().enumerate() {
            for b in &report.explanations[..i] {
                let contain = gopher_patterns::topk::containment(&a.candidate, &b.candidate);
                assert!(contain < c, "containment {contain} >= threshold {c}");
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let report = explain(600, 75);
        assert!(!report.stats.levels.is_empty());
        assert!(report.stats.total_scored > 0);
        assert!(report.search_time.as_nanos() > 0);
    }
}
