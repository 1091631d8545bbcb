//! Integration tests for update-based explanations (paper Section 5).

use gopher_repro::prelude::*;

const METRIC: FairnessMetric = FairnessMetric::StatisticalParity;

fn build(seed: u64) -> ExplainSession<LogisticRegression> {
    let mut rng = Rng::new(seed);
    let (train, test) = german(800, seed).train_test_split(0.3, &mut rng);
    SessionBuilder::new().fit(
        |n_cols| LogisticRegression::new(n_cols, 1e-3),
        &train,
        &test,
    )
}

fn request() -> ExplainRequest {
    ExplainRequest::default().with_ground_truth(true)
}

#[test]
fn updates_are_produced_for_every_top_pattern() {
    let gopher = build(401);
    let (report, updates) = gopher.explain_with_updates(&request(), &UpdateConfig::default());
    assert_eq!(report.explanations.len(), updates.len());
    for (e, u) in report.explanations.iter().zip(&updates) {
        assert_eq!(e.pattern_text, u.pattern_text);
        assert_eq!(u.n_rows, e.candidate.coverage.count());
        assert_eq!(u.delta_encoded.len(), gopher.train().n_cols());
        assert!(u.delta_encoded.iter().all(|d| d.is_finite()));
    }
}

#[test]
fn update_estimate_never_worse_than_doing_nothing() {
    // δ = 0 yields an estimated bias change of ≈ 0 (only the tiny λθ term),
    // and the optimizer starts there — so the returned estimate must not be
    // meaningfully positive.
    let gopher = build(402);
    let (_, updates) = gopher.explain_with_updates(&request(), &UpdateConfig::default());
    for u in &updates {
        assert!(
            u.est_bias_change <= 1e-6,
            "{}: estimated bias change {} should be <= 0",
            u.pattern_text,
            u.est_bias_change
        );
    }
}

#[test]
fn at_least_one_update_genuinely_reduces_bias() {
    let gopher = build(403);
    let (_, updates) = gopher.explain_with_updates(&request(), &UpdateConfig::default());
    let best = updates
        .iter()
        .filter_map(|u| u.ground_truth_responsibility)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        best > 0.05,
        "best update should cut ground-truth bias by >5%, got {best}"
    );
}

#[test]
fn updated_points_stay_in_domain() {
    let gopher = build(404);
    let report = gopher.explain(&request()).report;
    let top = &report.explanations[0];
    let update = gopher.update_explanation(&top.candidate, METRIC, &UpdateConfig::default());
    let rows = top.candidate.coverage.to_indices();
    let updated = gopher.apply_update(&rows, &update.delta_encoded);
    // Projection is idempotent exactly when the point is already valid.
    for &r in &rows {
        let mut row = updated.x.row(r as usize).to_vec();
        let before = row.clone();
        gopher.encoder().project_row(&mut row);
        assert_eq!(row, before, "updated row {r} escaped the input domain");
    }
    // Untouched rows must be bit-identical.
    let touched: std::collections::HashSet<u32> = rows.iter().copied().collect();
    for r in 0..gopher.train().n_rows() {
        if !touched.contains(&(r as u32)) {
            assert_eq!(updated.x.row(r), gopher.train().x.row(r));
        }
    }
}

#[test]
fn update_labels_are_preserved() {
    // Updates perturb features, never labels (the paper's updates repair
    // attributes; label repair is DUTI's problem, explicitly out of scope).
    let gopher = build(405);
    let report = gopher.explain(&request()).report;
    let top = &report.explanations[0];
    let update = gopher.update_explanation(&top.candidate, METRIC, &UpdateConfig::default());
    let rows = top.candidate.coverage.to_indices();
    let updated = gopher.apply_update(&rows, &update.delta_encoded);
    assert_eq!(updated.y, gopher.train().y);
    assert_eq!(updated.privileged, gopher.train().privileged);
}

#[test]
fn fewer_iterations_is_weaker_or_equal() {
    let gopher = build(406);
    let report = gopher.explain(&request()).report;
    let top = &report.explanations[0];
    let weak = gopher.update_explanation(
        &top.candidate,
        METRIC,
        &UpdateConfig {
            max_iters: 2,
            ground_truth: false,
        },
    );
    let strong = gopher.update_explanation(
        &top.candidate,
        METRIC,
        &UpdateConfig {
            max_iters: 150,
            ground_truth: false,
        },
    );
    assert!(
        strong.est_bias_change <= weak.est_bias_change + 1e-9,
        "more optimization must not hurt the surrogate objective: {} vs {}",
        strong.est_bias_change,
        weak.est_bias_change
    );
}
