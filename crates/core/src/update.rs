//! Update-based explanations (paper Section 5).
//!
//! Instead of deleting a responsible subset `S`, Gopher searches for a
//! **homogeneous update**: a single perturbation vector `δ` (in encoded
//! feature space) applied to every point of `S`, chosen to maximally reduce
//! bias. Following Eq. 16–18, the objective is
//!
//! `minimize_δ  J(δ) = ∇θF(θ*, D_test)ᵀ · Σ_{z∈S} ∇θL(z + δ, θ*)`
//!
//! solved by projected gradient descent: after every step, `δ` is projected
//! so that every updated point stays inside the valid input domain
//! (Eq. 19) — numeric coordinates respect the training min/max box, one-hot
//! coordinates stay within `[−1, 1]` during optimization and are snapped to
//! the nearest valid one-hot when the final updated dataset is materialized.

use crate::explainer::ExplanationReport;
use crate::session::{ExplainRequest, ExplainSession};
use gopher_data::{Encoded, EncodedGroup, Value};
use gopher_fairness::FairnessMetric;
use gopher_influence::{responsibility, retrain_updated, InfluenceEngine, ModelFamily};
use gopher_linalg::vecops;
use gopher_models::Differentiable;
use gopher_patterns::Candidate;

/// Step size for the δ updates.
const LEARNING_RATE: f64 = 0.1;

/// The δ search stops when its gradient norm falls below this.
const GRAD_TOL: f64 = 1e-7;

/// Finite-difference step for `∇_δ J`.
const FD_EPS: f64 = 1e-4;

/// Learning rate η of the one-step-GD bias estimate (Eq. 14).
const ONE_STEP_ETA: f64 = 1.0;

/// An update changes at most this many *features* (schema features, so a
/// whole one-hot block counts as one). The paper's updates touch 2–3
/// features; unconstrained homogeneous updates tend to nudge every
/// coordinate a little, which is less interpretable.
const MAX_CHANGED_FEATURES: usize = 3;

/// Projected-gradient-descent configuration for the update search.
#[derive(Debug, Clone)]
pub struct UpdateConfig {
    /// Maximum gradient-descent iterations.
    pub max_iters: usize,
    /// Retrain on the updated data to report ground truth.
    pub ground_truth: bool,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self {
            max_iters: 120,
            ground_truth: true,
        }
    }
}

/// A per-feature summary of what the update changed.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureChange {
    /// A categorical feature was moved to a new level for (most of) the
    /// subset.
    Categorical {
        /// Schema feature index.
        feature: usize,
        /// Most common original level among changed rows.
        from: u32,
        /// New level.
        to: u32,
        /// Fraction of subset rows that changed to `to`.
        fraction: f64,
    },
    /// A numeric feature was shifted.
    Numeric {
        /// Schema feature index.
        feature: usize,
        /// Mean shift in raw (unstandardized) units.
        mean_shift: f64,
    },
}

impl FeatureChange {
    /// Renders the change with schema names.
    pub fn render(&self, schema: &gopher_data::Schema) -> String {
        match self {
            Self::Categorical {
                feature,
                from,
                to,
                fraction,
            } => format!(
                "{}: {} → {} ({:.0}% of subset)",
                schema.feature(*feature).name,
                schema.level_name(*feature, *from),
                schema.level_name(*feature, *to),
                100.0 * fraction
            ),
            Self::Numeric {
                feature,
                mean_shift,
            } => {
                format!("{}: {:+.2}", schema.feature(*feature).name, mean_shift)
            }
        }
    }
}

/// An update-based explanation for one pattern.
#[derive(Debug, Clone)]
pub struct UpdateExplanation {
    /// The pattern whose subset was updated.
    pub pattern_text: String,
    /// Number of updated training rows.
    pub n_rows: usize,
    /// The optimized homogeneous perturbation (encoded space, before
    /// per-point domain projection).
    pub delta_encoded: Vec<f64>,
    /// Human-readable per-feature changes after projection.
    pub changes: Vec<FeatureChange>,
    /// Estimated bias change from the one-step-GD surrogate (Eq. 14–15);
    /// negative = bias reduction.
    pub est_bias_change: f64,
    /// Ground-truth relative bias reduction `(F_old − F_new)/F_old` from
    /// retraining on the updated data (when requested).
    pub ground_truth_responsibility: Option<f64>,
}

impl<M> ExplainSession<M>
where
    M: ModelFamily<Backend = InfluenceEngine<M>> + Differentiable,
{
    /// Computes the best homogeneous update for one candidate pattern,
    /// optimizing the given metric's one-step-GD bias surrogate.
    pub fn update_explanation(
        &self,
        candidate: &Candidate,
        metric: FairnessMetric,
        cfg: &UpdateConfig,
    ) -> UpdateExplanation {
        let rows = candidate.coverage.to_indices();
        assert!(!rows.is_empty(), "cannot update an empty subset");
        let train = self.train();
        let model = self.model();
        let d = train.n_cols();
        let precomp = self.bias_precomp(metric);
        let grad_f = precomp.grad_f;

        // Box constraints keeping every updated point inside the training
        // domain: per encoded column, δ ∈ [lo − max_i x, hi − min_i x].
        let (delta_lo, delta_hi) = self.delta_bounds(&rows);

        // Minimize J(δ) = −∇Fᵀ Σ_S ∇θL(x+δ, y). Under the one-step update
        // model (Eq. 14), θ moves along −Σ∇L(S_p), so the bias change is
        // ΔF ∝ −∇Fᵀ Σ∇L(S_p): *maximizing* ∇FᵀΣ∇L(S_p) maximizes bias
        // reduction. (The paper's Eq. 16–17 write this as an argmin after
        // folding the sign of the gradient step.)
        let mut grad_buf = vec![0.0; model.n_params()];
        let mut x_buf = vec![0.0; d];
        let score = |delta: &[f64], grad_buf: &mut Vec<f64>, x_buf: &mut Vec<f64>| -> f64 {
            let mut total = 0.0;
            for &r in &rows {
                let r = r as usize;
                x_buf.copy_from_slice(train.x.row(r));
                vecops::axpy(1.0, delta, x_buf);
                grad_buf.iter_mut().for_each(|g| *g = 0.0);
                model.accumulate_grad(x_buf, train.y[r], grad_buf);
                total -= vecops::dot(&grad_f, grad_buf);
            }
            total
        };

        // Projected gradient descent on δ, optionally restricted to a
        // coordinate mask.
        let run_pgd =
            |mask: Option<&[bool]>, grad_buf: &mut Vec<f64>, x_buf: &mut Vec<f64>| -> Vec<f64> {
                let mut delta = vec![0.0; d];
                let mut g = vec![0.0; d];
                for _ in 0..cfg.max_iters {
                    // Central finite differences per (unmasked) coordinate.
                    for j in 0..d {
                        if mask.is_some_and(|m| !m[j]) {
                            g[j] = 0.0;
                            continue;
                        }
                        let orig = delta[j];
                        delta[j] = orig + FD_EPS;
                        let plus = score(&delta, grad_buf, x_buf);
                        delta[j] = orig - FD_EPS;
                        let minus = score(&delta, grad_buf, x_buf);
                        delta[j] = orig;
                        g[j] = (plus - minus) / (2.0 * FD_EPS);
                    }
                    let gnorm = vecops::norm2(&g);
                    if gnorm < GRAD_TOL {
                        break;
                    }
                    for j in 0..d {
                        delta[j] =
                            (delta[j] - LEARNING_RATE * g[j]).clamp(delta_lo[j], delta_hi[j]);
                    }
                }
                delta
            };

        let mut delta = run_pgd(None, &mut grad_buf, &mut x_buf);

        // Sparsification: keep the most impactful feature groups and
        // re-optimize only their coordinates (zeroing a one-hot block keeps
        // the original category after projection, so masked features are
        // genuinely unchanged).
        let groups = self.encoder().layout().groups();
        if groups.len() > MAX_CHANGED_FEATURES {
            let baseline = score(&vec![0.0; d], &mut grad_buf, &mut x_buf);
            // Impact of each feature group alone.
            let mut impacts: Vec<(usize, f64)> = Vec::with_capacity(groups.len());
            for (g_idx, group) in groups.iter().enumerate() {
                let mut only = vec![0.0; d];
                copy_group(group, &delta, &mut only);
                let value = score(&only, &mut grad_buf, &mut x_buf);
                impacts.push((g_idx, baseline - value));
            }
            impacts.sort_by(|a, b| b.1.total_cmp(&a.1));
            let mut mask = vec![false; d];
            for &(g_idx, impact) in impacts.iter().take(MAX_CHANGED_FEATURES) {
                if impact > 0.0 {
                    copy_group_mask(&groups[g_idx], &mut mask);
                }
            }
            delta = run_pgd(Some(&mask), &mut grad_buf, &mut x_buf);
        }

        // Materialize the updated training set with per-point projection.
        let updated = self.apply_update(&rows, &delta);

        // One-step-GD estimate of the bias change (Eq. 14–15).
        let est_bias_change = {
            let p = model.n_params();
            let mut diff = vec![0.0; p]; // Σ ∇L(z_p) − Σ ∇L(z)
            for &r in &rows {
                let r = r as usize;
                model.accumulate_grad(updated.x.row(r), updated.y[r], &mut diff);
            }
            let mut orig = vec![0.0; p];
            for &r in &rows {
                let r = r as usize;
                model.accumulate_grad(train.x.row(r), train.y[r], &mut orig);
            }
            vecops::axpy(-1.0, &orig, &mut diff);
            // Mean data gradient over the full set ≈ −λθ* at the optimum;
            // include it for fidelity to Eq. 14.
            let grad_sum = self.backend().gradient_sum();
            let n = train.n_rows() as f64;
            let mut step = vec![0.0; p];
            for j in 0..p {
                step[j] = -ONE_STEP_ETA * (grad_sum[j] + diff[j]) / n;
            }
            vecops::dot(&grad_f, &step)
        };

        let ground_truth_responsibility = if cfg.ground_truth {
            let outcome = retrain_updated(model, &updated);
            let new_bias = gopher_fairness::bias(metric, &outcome.model, self.test());
            Some(responsibility(precomp.base_hard, || {
                precomp.base_hard - new_bias
            }))
        } else {
            None
        };

        let changes = self.describe_changes(&rows, &updated);
        UpdateExplanation {
            pattern_text: candidate
                .pattern
                .render(self.predicate_table(), self.train_raw().schema()),
            n_rows: rows.len(),
            delta_encoded: delta,
            changes,
            est_bias_change,
            ground_truth_responsibility,
        }
    }

    /// Runs [`ExplainSession::explain`] and derives an update-based
    /// explanation for each returned pattern (paper Tables 4–6). The per
    /// pattern update searches are independent (projected gradient descent
    /// plus an optional retrain each), so they fan out across the session's
    /// worker threads; results are bit-identical at any thread count.
    pub fn explain_with_updates(
        &self,
        request: &ExplainRequest,
        cfg: &UpdateConfig,
    ) -> (ExplanationReport, Vec<UpdateExplanation>) {
        let report = self.explain(request).report;
        let updates = gopher_par::par_map(self.threads(), &report.explanations, |_, e| {
            self.update_explanation(&e.candidate, request.metric, cfg)
        });
        (report, updates)
    }

    /// Per-column bounds on δ so every subset point stays inside the domain.
    fn delta_bounds(&self, rows: &[u32]) -> (Vec<f64>, Vec<f64>) {
        let train = self.train();
        let d = train.n_cols();
        let mut lo = vec![-1.0; d];
        let mut hi = vec![1.0; d];
        for group in self.encoder().layout().groups() {
            if let EncodedGroup::Numeric {
                col,
                lo: dom_lo,
                hi: dom_hi,
                ..
            } = group
            {
                let mut min_x = f64::INFINITY;
                let mut max_x = f64::NEG_INFINITY;
                for &r in rows {
                    let v = train.x[(r as usize, *col)];
                    min_x = min_x.min(v);
                    max_x = max_x.max(v);
                }
                lo[*col] = dom_lo - max_x;
                hi[*col] = dom_hi - min_x;
                // Degenerate guard: keep lo <= hi even if the subset already
                // touches both domain boundaries.
                if lo[*col] > hi[*col] {
                    lo[*col] = 0.0;
                    hi[*col] = 0.0;
                }
            }
        }
        (lo, hi)
    }

    /// Returns a copy of the training set with `delta` applied to the given
    /// rows and each updated row projected back into the input domain.
    pub fn apply_update(&self, rows: &[u32], delta: &[f64]) -> Encoded {
        let mut updated = self.train().clone();
        for &r in rows {
            let row = updated.x.row_mut(r as usize);
            vecops::axpy(1.0, delta, row);
            self.encoder().project_row(row);
        }
        updated
    }

    /// Summarizes per-feature differences between original and updated rows.
    fn describe_changes(&self, rows: &[u32], updated: &Encoded) -> Vec<FeatureChange> {
        let train = self.train();
        let schema = self.train_raw().schema();
        let mut changes = Vec::new();
        for (f, _feat) in schema.features().iter().enumerate() {
            // Decode both versions of each subset row for this feature.
            let mut cat_moves: std::collections::HashMap<(u32, u32), usize> =
                std::collections::HashMap::new();
            let mut num_shift = 0.0;
            let mut n_num = 0usize;
            for &r in rows {
                let r = r as usize;
                let before = self.encoder().decode_row(train.x.row(r));
                let after = self.encoder().decode_row(updated.x.row(r));
                match (before[f], after[f]) {
                    (Value::Level(a), Value::Level(b)) => {
                        if a != b {
                            *cat_moves.entry((a, b)).or_insert(0) += 1;
                        }
                    }
                    (Value::Number(a), Value::Number(b)) => {
                        num_shift += b - a;
                        n_num += 1;
                    }
                    _ => unreachable!("encoding is stable"),
                }
            }
            if let Some((&(from, to), &count)) = cat_moves.iter().max_by_key(|(_, &c)| c) {
                // The update vector is homogeneous, but rows already at the
                // target level do not move, so even a systematic repair can
                // flip a minority of the subset. Report anything that moves
                // at least 10% of the rows (with the fraction attached).
                let fraction = count as f64 / rows.len() as f64;
                if fraction >= 0.1 {
                    changes.push(FeatureChange::Categorical {
                        feature: f,
                        from,
                        to,
                        fraction,
                    });
                }
            }
            if n_num > 0 {
                let mean = num_shift / n_num as f64;
                if mean.abs() > 1e-6 {
                    changes.push(FeatureChange::Numeric {
                        feature: f,
                        mean_shift: mean,
                    });
                }
            }
        }
        changes
    }
}

/// Copies the coordinates of one encoded feature group from `src` to `dst`.
fn copy_group(group: &EncodedGroup, src: &[f64], dst: &mut [f64]) {
    match group {
        EncodedGroup::Numeric { col, .. } => dst[*col] = src[*col],
        EncodedGroup::OneHot {
            first_col,
            n_levels,
            ..
        } => {
            dst[*first_col..first_col + n_levels]
                .copy_from_slice(&src[*first_col..first_col + n_levels]);
        }
    }
}

/// Marks the coordinates of one encoded feature group in a boolean mask.
fn copy_group_mask(group: &EncodedGroup, mask: &mut [bool]) {
    match group {
        EncodedGroup::Numeric { col, .. } => mask[*col] = true,
        EncodedGroup::OneHot {
            first_col,
            n_levels,
            ..
        } => {
            mask[*first_col..first_col + n_levels]
                .iter_mut()
                .for_each(|m| *m = true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use gopher_data::generators::german;
    use gopher_models::LogisticRegression;
    use gopher_prng::Rng;

    const METRIC: FairnessMetric = FairnessMetric::StatisticalParity;

    fn build() -> ExplainSession<LogisticRegression> {
        let mut rng = Rng::new(81);
        let (train, test) = german(800, 81).train_test_split(0.3, &mut rng);
        SessionBuilder::new().fit(|cols| LogisticRegression::new(cols, 1e-3), &train, &test)
    }

    fn request() -> ExplainRequest {
        ExplainRequest::default().with_ground_truth(false)
    }

    #[test]
    fn update_reduces_bias_for_top_pattern() {
        let gopher = build();
        let report = gopher.explain(&request()).report;
        let top = &report.explanations[0];
        let update = gopher.update_explanation(&top.candidate, METRIC, &UpdateConfig::default());
        assert_eq!(update.n_rows, top.candidate.coverage.count());
        // The optimizer minimizes the bias-change surrogate; it must at
        // least not be positive (an update of δ=0 achieves exactly 0).
        assert!(
            update.est_bias_change <= 1e-9,
            "estimated bias change {} should be <= 0",
            update.est_bias_change
        );
        let gt = update.ground_truth_responsibility.expect("requested");
        assert!(
            gt > -0.5,
            "update should not catastrophically backfire: {gt}"
        );
    }

    #[test]
    fn delta_respects_domain_bounds() {
        let gopher = build();
        let report = gopher.explain(&request()).report;
        let top = &report.explanations[0];
        let update = gopher.update_explanation(&top.candidate, METRIC, &UpdateConfig::default());
        // Applying the update and projecting must keep every point equal to
        // its own projection (idempotence ⇒ in-domain).
        let rows = top.candidate.coverage.to_indices();
        let updated = gopher.apply_update(&rows, &update.delta_encoded);
        for &r in &rows {
            let mut row = updated.x.row(r as usize).to_vec();
            let before = row.clone();
            gopher.encoder().project_row(&mut row);
            for (a, b) in row.iter().zip(&before) {
                assert!((a - b).abs() < 1e-12, "projection not idempotent");
            }
        }
    }

    #[test]
    fn zero_delta_changes_nothing() {
        let gopher = build();
        let rows: Vec<u32> = (0..20).collect();
        let delta = vec![0.0; gopher.train().n_cols()];
        let updated = gopher.apply_update(&rows, &delta);
        // Rows are already valid domain points, so projection is a no-op.
        for r in 0..gopher.train().n_rows() {
            for c in 0..gopher.train().n_cols() {
                assert_eq!(updated.x[(r, c)], gopher.train().x[(r, c)]);
            }
        }
    }

    #[test]
    fn feature_change_rendering() {
        let gopher = build();
        let schema = gopher.train_raw().schema();
        let gender = schema.feature_index("gender").unwrap();
        let change = FeatureChange::Categorical {
            feature: gender,
            from: 1,
            to: 0,
            fraction: 0.8,
        };
        let text = change.render(schema);
        assert!(text.contains("gender"), "{text}");
        assert!(text.contains("Male"), "{text}");
        assert!(text.contains("Female"), "{text}");
        let age = schema.feature_index("age").unwrap();
        let shift = FeatureChange::Numeric {
            feature: age,
            mean_shift: -12.5,
        };
        assert!(shift.render(schema).contains("-12.5"));
    }
}
