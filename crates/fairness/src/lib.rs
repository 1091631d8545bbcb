//! Group fairness metrics with parameter gradients.
//!
//! Implements the three associational fairness notions of the paper
//! (Section 2) as signed *bias* values — positive means the privileged group
//! is favored:
//!
//! * **Statistical parity**: `P(Ŷ=1 | S=1) − P(Ŷ=1 | S=0)`
//! * **Equal opportunity**: `P(Ŷ=1 | Y=1, S=1) − P(Ŷ=1 | Y=1, S=0)`
//! * **Predictive parity**: `P(Y=1 | Ŷ=1, S=1) − P(Y=1 | Ŷ=1, S=0)`
//!
//! Each metric comes in two flavors:
//!
//! * [`bias`] — the *hard* metric over thresholded predictions. This is what
//!   gets reported (and what the paper calls ground truth bias).
//! * [`smooth_bias`] / [`bias_gradient`] — a differentiable surrogate that
//!   replaces the indicator `1[p ≥ 0.5]` with the probability `p` itself.
//!   The influence machinery (Eq. 11) needs `∇θ F`, which only exists for
//!   the smooth variant.
//!
//! A fourth differentiable metric, **average odds** — the mean of the TPR
//! and FPR gaps, `½[(TPR₁−TPR₀) + (FPR₁−FPR₀)]` — extends the paper's set
//! (it is the differentiable relative of equalized odds). Two report-only
//! extensions ([`disparate_impact_ratio`], [`equalized_odds_gap`]) round out
//! the audit surface.

#![forbid(unsafe_code)]

mod stats;

pub use stats::{group_confusion, ConfusionCounts, GroupStats};

use gopher_data::Encoded;
use gopher_models::{Differentiable, Model};

/// The fairness definitions from the paper (Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FairnessMetric {
    /// Equal positive-prediction rates across groups.
    StatisticalParity,
    /// Equal true-positive rates across groups.
    EqualOpportunity,
    /// Equal positive predictive values across groups.
    PredictiveParity,
    /// Equal average of TPR and FPR across groups (the differentiable
    /// relative of equalized odds; our extension beyond the paper's three).
    AverageOdds,
}

impl FairnessMetric {
    /// The paper's three metrics, for sweeps that reproduce its tables.
    pub const ALL: [FairnessMetric; 3] = [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualOpportunity,
        FairnessMetric::PredictiveParity,
    ];

    /// Every supported metric, including extensions.
    pub const EXTENDED: [FairnessMetric; 4] = [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualOpportunity,
        FairnessMetric::PredictiveParity,
        FairnessMetric::AverageOdds,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::StatisticalParity => "statistical parity",
            Self::EqualOpportunity => "equal opportunity",
            Self::PredictiveParity => "predictive parity",
            Self::AverageOdds => "average odds",
        }
    }
}

impl std::fmt::Display for FairnessMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a test row participates in a metric, and with what numerator
/// weight. Shared by the hard and smooth paths so they can never diverge on
/// row selection.
#[inline]
fn row_in_scope(metric: FairnessMetric, y: f64) -> bool {
    match metric {
        FairnessMetric::StatisticalParity | FairnessMetric::PredictiveParity => true,
        FairnessMetric::EqualOpportunity => y == 1.0,
        FairnessMetric::AverageOdds => true,
    }
}

/// Average-odds bias from a per-row prediction accessor: the mean of the
/// per-label-stratum rate gaps. Shared by the hard and smooth paths.
fn average_odds(test: &Encoded, mut pred: impl FnMut(usize) -> f64) -> f64 {
    // cell[group][label] = (Σ pred, count)
    let mut num = [[0.0f64; 2]; 2];
    let mut den = [[0.0f64; 2]; 2];
    for r in 0..test.n_rows() {
        let g = usize::from(test.privileged[r]);
        let y = usize::from(test.y[r] == 1.0);
        num[g][y] += pred(r);
        den[g][y] += 1.0;
    }
    let tpr_gap = rate(num[1][1], den[1][1]) - rate(num[0][1], den[0][1]);
    let fpr_gap = rate(num[1][0], den[1][0]) - rate(num[0][0], den[0][0]);
    0.5 * (tpr_gap + fpr_gap)
}

/// The hard (thresholded) bias `F(θ, D_test)` of a model.
///
/// Groups with an empty denominator contribute a rate of 0 (documented
/// convention; the synthetic benchmarks never trigger it).
pub fn bias<M: Model>(metric: FairnessMetric, model: &M, test: &Encoded) -> f64 {
    bias_from_predictions(metric, test, |r| model.predict(test.x.row(r)))
}

/// The hard bias of whatever model made the predictions `pred(r)` on test
/// row `r`: [`bias`] is this with `model.predict`, and a caller that kept
/// a model's hard predictions gets the same bits from them (the sums run
/// over the same rows in the same order). `pred` is only called for the
/// rows the metric reads.
pub fn bias_from_predictions(
    metric: FairnessMetric,
    test: &Encoded,
    mut pred: impl FnMut(usize) -> f64,
) -> f64 {
    match metric {
        FairnessMetric::AverageOdds => average_odds(test, pred),
        FairnessMetric::StatisticalParity | FairnessMetric::EqualOpportunity => {
            // rate = Σ ŷ / count per group.
            let mut num = [0.0f64; 2];
            let mut den = [0.0f64; 2];
            for r in 0..test.n_rows() {
                let y = test.y[r];
                if !row_in_scope(metric, y) {
                    continue;
                }
                let g = usize::from(test.privileged[r]);
                num[g] += pred(r);
                den[g] += 1.0;
            }
            rate(num[1], den[1]) - rate(num[0], den[0])
        }
        FairnessMetric::PredictiveParity => {
            // PPV = Σ y·ŷ / Σ ŷ per group.
            let mut num = [0.0f64; 2];
            let mut den = [0.0f64; 2];
            for r in 0..test.n_rows() {
                let y_hat = pred(r);
                let g = usize::from(test.privileged[r]);
                num[g] += test.y[r] * y_hat;
                den[g] += y_hat;
            }
            rate(num[1], den[1]) - rate(num[0], den[0])
        }
    }
}

/// The smooth (probability-based) bias used for gradients.
pub fn smooth_bias<M: Model>(metric: FairnessMetric, model: &M, test: &Encoded) -> f64 {
    match metric {
        FairnessMetric::AverageOdds => average_odds(test, |r| model.predict_proba(test.x.row(r))),
        FairnessMetric::StatisticalParity | FairnessMetric::EqualOpportunity => {
            let mut num = [0.0f64; 2];
            let mut den = [0.0f64; 2];
            for r in 0..test.n_rows() {
                let y = test.y[r];
                if !row_in_scope(metric, y) {
                    continue;
                }
                let g = usize::from(test.privileged[r]);
                num[g] += model.predict_proba(test.x.row(r));
                den[g] += 1.0;
            }
            rate(num[1], den[1]) - rate(num[0], den[0])
        }
        FairnessMetric::PredictiveParity => {
            let mut num = [0.0f64; 2];
            let mut den = [0.0f64; 2];
            for r in 0..test.n_rows() {
                let p = model.predict_proba(test.x.row(r));
                let g = usize::from(test.privileged[r]);
                num[g] += test.y[r] * p;
                den[g] += p;
            }
            rate(num[1], den[1]) - rate(num[0], den[0])
        }
    }
}

/// The gradient `∇θ F(θ, D_test)` of the smooth bias.
pub fn bias_gradient<M: Differentiable>(
    metric: FairnessMetric,
    model: &M,
    test: &Encoded,
) -> Vec<f64> {
    let p = model.n_params();
    match metric {
        FairnessMetric::AverageOdds => {
            // F = ½ Σ_y [mean_{priv,y} p − mean_{prot,y} p]: a weighted sum
            // of ∇θ p over the four (group, label) cells.
            let mut counts = [[0.0f64; 2]; 2];
            for r in 0..test.n_rows() {
                counts[usize::from(test.privileged[r])][usize::from(test.y[r] == 1.0)] += 1.0;
            }
            let mut grad = vec![0.0; p];
            let mut row_grad = vec![0.0; p];
            for r in 0..test.n_rows() {
                let g = usize::from(test.privileged[r]);
                let y = usize::from(test.y[r] == 1.0);
                if counts[g][y] == 0.0 {
                    continue;
                }
                let sign = if g == 1 { 0.5 } else { -0.5 };
                let w = sign / counts[g][y];
                row_grad.iter_mut().for_each(|v| *v = 0.0);
                model.accumulate_grad_proba(test.x.row(r), &mut row_grad);
                gopher_linalg::vecops::axpy(w, &row_grad, &mut grad);
            }
            grad
        }
        FairnessMetric::StatisticalParity | FairnessMetric::EqualOpportunity => {
            // F = mean_{priv} p_i − mean_{prot} p_i; the gradient is the
            // correspondingly weighted sum of ∇θ p_i.
            let mut counts = [0.0f64; 2];
            for r in 0..test.n_rows() {
                if row_in_scope(metric, test.y[r]) {
                    counts[usize::from(test.privileged[r])] += 1.0;
                }
            }
            let mut grad = vec![0.0; p];
            let mut row_grad = vec![0.0; p];
            for r in 0..test.n_rows() {
                if !row_in_scope(metric, test.y[r]) {
                    continue;
                }
                let g = usize::from(test.privileged[r]);
                if counts[g] == 0.0 {
                    continue;
                }
                let w = if g == 1 {
                    1.0 / counts[1]
                } else {
                    -1.0 / counts[0]
                };
                row_grad.iter_mut().for_each(|v| *v = 0.0);
                model.accumulate_grad_proba(test.x.row(r), &mut row_grad);
                gopher_linalg::vecops::axpy(w, &row_grad, &mut grad);
            }
            grad
        }
        FairnessMetric::PredictiveParity => {
            // F = A₁/B₁ − A₀/B₀ with A = Σ y p, B = Σ p per group;
            // ∇(A/B) = (B Σ y ∇p − A Σ ∇p) / B².
            let mut a = [0.0f64; 2];
            let mut b = [0.0f64; 2];
            let mut sum_y_gp = [vec![0.0; p], vec![0.0; p]];
            let mut sum_gp = [vec![0.0; p], vec![0.0; p]];
            let mut row_grad = vec![0.0; p];
            for r in 0..test.n_rows() {
                let g = usize::from(test.privileged[r]);
                let prob = model.predict_proba(test.x.row(r));
                a[g] += test.y[r] * prob;
                b[g] += prob;
                row_grad.iter_mut().for_each(|v| *v = 0.0);
                model.accumulate_grad_proba(test.x.row(r), &mut row_grad);
                gopher_linalg::vecops::axpy(test.y[r], &row_grad, &mut sum_y_gp[g]);
                gopher_linalg::vecops::axpy(1.0, &row_grad, &mut sum_gp[g]);
            }
            let mut grad = vec![0.0; p];
            for g in 0..2 {
                if b[g] == 0.0 {
                    continue;
                }
                let sign = if g == 1 { 1.0 } else { -1.0 };
                let b2 = b[g] * b[g];
                for j in 0..p {
                    grad[j] += sign * (b[g] * sum_y_gp[g][j] - a[g] * sum_gp[g][j]) / b2;
                }
            }
            grad
        }
    }
}

/// Disparate impact: `P(Ŷ=1 | S=0) / P(Ŷ=1 | S=1)` (the "80% rule" ratio).
/// Returns 1 when both rates are 0, and infinity when only the privileged
/// rate is 0.
pub fn disparate_impact_ratio<M: Model>(model: &M, test: &Encoded) -> f64 {
    let mut num = [0.0f64; 2];
    let mut den = [0.0f64; 2];
    for r in 0..test.n_rows() {
        let g = usize::from(test.privileged[r]);
        num[g] += model.predict(test.x.row(r));
        den[g] += 1.0;
    }
    let prot = rate(num[0], den[0]);
    let priv_ = rate(num[1], den[1]);
    if priv_ == 0.0 {
        if prot == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        prot / priv_
    }
}

/// Equalized-odds gap: `max(|ΔTPR|, |ΔFPR|)` between groups.
pub fn equalized_odds_gap<M: Model>(model: &M, test: &Encoded) -> f64 {
    let stats = group_confusion(model, test);
    let tpr_gap = (stats.privileged.tpr() - stats.protected.tpr()).abs();
    let fpr_gap = (stats.privileged.fpr() - stats.protected.fpr()).abs();
    tpr_gap.max(fpr_gap)
}

#[inline]
fn rate(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopher_data::generators::{adult, german};
    use gopher_data::Encoder;
    use gopher_models::train::{fit_newton, NewtonConfig};
    use gopher_models::LogisticRegression;

    fn trained_german() -> (LogisticRegression, Encoded) {
        let d = german(800, 11);
        let enc = Encoder::fit(&d);
        let data = enc.transform(&d);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        (model, data)
    }

    #[test]
    fn trained_model_exhibits_planted_bias() {
        let (model, data) = trained_german();
        for metric in FairnessMetric::ALL {
            let b = bias(metric, &model, &data);
            assert!(
                b > 0.0,
                "{metric} should favor the privileged group, got {b}"
            );
        }
    }

    #[test]
    fn stored_predictions_give_the_same_bits_as_the_model() {
        let (model, data) = trained_german();
        let preds: Vec<f64> = (0..data.n_rows())
            .map(|r| model.predict(data.x.row(r)))
            .collect();
        for metric in FairnessMetric::EXTENDED {
            assert_eq!(
                bias_from_predictions(metric, &data, |r| preds[r]).to_bits(),
                bias(metric, &model, &data).to_bits(),
                "{metric}"
            );
        }
    }

    #[test]
    fn smooth_bias_tracks_hard_bias() {
        let (model, data) = trained_german();
        for metric in FairnessMetric::ALL {
            let hard = bias(metric, &model, &data);
            let smooth = smooth_bias(metric, &model, &data);
            assert_eq!(hard.signum(), smooth.signum(), "{metric} sign mismatch");
            assert!(
                (hard - smooth).abs() < 0.3,
                "{metric}: hard {hard} vs smooth {smooth}"
            );
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (model, data) = trained_german();
        for metric in FairnessMetric::ALL {
            let grad = bias_gradient(metric, &model, &data);
            let eps = 1e-6;
            // Probe a handful of parameters.
            for j in [0usize, 3, 7, model.n_params() - 1] {
                let mut mp = model.clone();
                mp.params_mut()[j] += eps;
                let mut mm = model.clone();
                mm.params_mut()[j] -= eps;
                let fd = (smooth_bias(metric, &mp, &data) - smooth_bias(metric, &mm, &data))
                    / (2.0 * eps);
                assert!(
                    (grad[j] - fd).abs() < 1e-5,
                    "{metric} param {j}: {} vs {fd}",
                    grad[j]
                );
            }
        }
    }

    #[test]
    fn statistical_parity_on_constant_model_is_zero() {
        let d = german(200, 12);
        let enc = Encoder::fit(&d);
        let data = enc.transform(&d);
        // Untrained model: p = 0.5 everywhere → identical rates.
        let model = LogisticRegression::new(data.n_cols(), 0.0);
        assert_eq!(bias(FairnessMetric::StatisticalParity, &model, &data), 0.0);
        assert!(smooth_bias(FairnessMetric::StatisticalParity, &model, &data).abs() < 1e-12);
    }

    #[test]
    fn adult_gender_bias_is_detected() {
        let d = adult(2000, 13);
        let enc = Encoder::fit(&d);
        let data = enc.transform(&d);
        let mut model = LogisticRegression::new(data.n_cols(), 1e-3);
        fit_newton(&mut model, &data, &NewtonConfig::default());
        let b = bias(FairnessMetric::StatisticalParity, &model, &data);
        assert!(b > 0.05, "adult statistical parity bias {b}");
    }

    #[test]
    fn disparate_impact_below_one_for_biased_model() {
        let (model, data) = trained_german();
        let di = disparate_impact_ratio(&model, &data);
        assert!(di < 1.0, "disparate impact {di}");
        assert!(di >= 0.0);
    }

    #[test]
    fn equalized_odds_gap_positive_for_biased_model() {
        let (model, data) = trained_german();
        let gap = equalized_odds_gap(&model, &data);
        assert!(gap > 0.0);
        assert!(gap <= 1.0);
    }

    #[test]
    fn average_odds_relates_to_component_gaps() {
        let (model, data) = trained_german();
        let stats = group_confusion(&model, &data);
        let expected = 0.5
            * ((stats.privileged.tpr() - stats.protected.tpr())
                + (stats.privileged.fpr() - stats.protected.fpr()));
        let measured = bias(FairnessMetric::AverageOdds, &model, &data);
        assert!(
            (measured - expected).abs() < 1e-12,
            "{measured} vs {expected}"
        );
        // And it is bounded by the equalized-odds gap.
        assert!(measured.abs() <= equalized_odds_gap(&model, &data) + 1e-12);
    }

    #[test]
    fn average_odds_gradient_matches_finite_difference() {
        let (model, data) = trained_german();
        let grad = bias_gradient(FairnessMetric::AverageOdds, &model, &data);
        let eps = 1e-6;
        for j in [0usize, 5, model.n_params() - 1] {
            let mut mp = model.clone();
            mp.params_mut()[j] += eps;
            let mut mm = model.clone();
            mm.params_mut()[j] -= eps;
            let fd = (smooth_bias(FairnessMetric::AverageOdds, &mp, &data)
                - smooth_bias(FairnessMetric::AverageOdds, &mm, &data))
                / (2.0 * eps);
            assert!(
                (grad[j] - fd).abs() < 1e-6,
                "param {j}: {} vs {fd}",
                grad[j]
            );
        }
    }

    #[test]
    fn extended_metric_set_is_superset() {
        for m in FairnessMetric::ALL {
            assert!(FairnessMetric::EXTENDED.contains(&m));
        }
        assert_eq!(FairnessMetric::EXTENDED.len(), 4);
    }

    #[test]
    fn metric_names_are_stable() {
        assert_eq!(
            FairnessMetric::StatisticalParity.to_string(),
            "statistical parity"
        );
        assert_eq!(
            FairnessMetric::EqualOpportunity.to_string(),
            "equal opportunity"
        );
        assert_eq!(
            FairnessMetric::PredictiveParity.to_string(),
            "predictive parity"
        );
    }
}
