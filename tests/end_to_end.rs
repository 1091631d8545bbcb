//! Workspace-spanning integration tests: the full explanation pipeline on
//! all three benchmark generators and both convex model families.

use gopher_repro::prelude::*;

fn run_pipeline(data: Dataset, seed: u64, k: usize) -> gopher_core::ExplanationReport {
    let mut rng = Rng::new(seed);
    let (train, test) = data.train_test_split(0.3, &mut rng);
    let session = SessionBuilder::new().fit(
        |n_cols| LogisticRegression::new(n_cols, 1e-3),
        &train,
        &test,
    );
    session
        .explain(&ExplainRequest::default().with_k(k).with_ground_truth(true))
        .report
}

#[test]
fn german_pipeline_reduces_bias() {
    let report = run_pipeline(german(800, 201), 201, 3);
    assert!(
        report.base_bias > 0.05,
        "baseline bias {}",
        report.base_bias
    );
    assert!(!report.explanations.is_empty());
    let top = &report.explanations[0];
    let gt = top
        .ground_truth_responsibility
        .expect("ground truth on by default");
    assert!(
        gt > 0.1,
        "top explanation should cut bias by >10%, got {gt}"
    );
}

#[test]
fn adult_pipeline_reduces_bias() {
    let report = run_pipeline(adult(1_500, 202), 202, 3);
    assert!(
        report.base_bias > 0.03,
        "baseline bias {}",
        report.base_bias
    );
    let top = &report.explanations[0];
    assert!(top.ground_truth_responsibility.unwrap() > 0.05);
}

#[test]
fn sqf_pipeline_reduces_bias() {
    let report = run_pipeline(sqf(2_000, 203), 203, 3);
    assert!(
        report.base_bias > 0.05,
        "baseline bias {}",
        report.base_bias
    );
    let top = &report.explanations[0];
    assert!(top.ground_truth_responsibility.unwrap() > 0.1);
}

#[test]
fn svm_pipeline_works_end_to_end() {
    let mut rng = Rng::new(204);
    let (train, test) = german(700, 204).train_test_split(0.3, &mut rng);
    let session = SessionBuilder::new().fit(|n_cols| LinearSvm::new(n_cols, 1e-3), &train, &test);
    let report = session
        .explain(&ExplainRequest::default().with_k(2).with_ground_truth(true))
        .report;
    assert!(report.base_bias > 0.0);
    assert!(!report.explanations.is_empty());
    assert!(report.explanations[0].ground_truth_responsibility.unwrap() > 0.0);
}

#[test]
fn every_metric_yields_explanations_on_german() {
    let mut rng = Rng::new(205);
    let (train, test) = german(800, 205).train_test_split(0.3, &mut rng);
    // One session serves all metrics — this is the batched query path.
    let session = SessionBuilder::new().fit(
        |n_cols| LogisticRegression::new(n_cols, 1e-3),
        &train,
        &test,
    );
    let requests: Vec<ExplainRequest> = FairnessMetric::ALL
        .into_iter()
        .map(|metric| {
            ExplainRequest::default()
                .with_metric(metric)
                .with_k(2)
                .with_ground_truth(false)
        })
        .collect();
    for (metric, response) in FairnessMetric::ALL
        .into_iter()
        .zip(session.explain_batch(&requests))
    {
        let report = response.report;
        assert!(
            report.base_bias > 0.0,
            "{metric}: bias {}",
            report.base_bias
        );
        assert!(!report.explanations.is_empty(), "{metric}: no explanations");
        for e in &report.explanations {
            assert!(
                e.est_responsibility > 0.0,
                "{metric}: non-positive responsibility"
            );
            assert!(e.support >= 0.05, "{metric}: support below τ");
        }
    }
}

#[test]
fn pipeline_is_deterministic() {
    let a = run_pipeline(german(600, 206), 206, 3);
    let b = run_pipeline(german(600, 206), 206, 3);
    assert_eq!(a.base_bias, b.base_bias);
    assert_eq!(a.explanations.len(), b.explanations.len());
    for (x, y) in a.explanations.iter().zip(&b.explanations) {
        assert_eq!(x.pattern_text, y.pattern_text);
        assert_eq!(x.support, y.support);
        assert_eq!(x.est_responsibility, y.est_responsibility);
    }
}

#[test]
fn mlp_pipeline_works_on_small_data() {
    // Small MLP keeps the Hessian assembly (one exact Hessian–vector
    // product per parameter and row) fast enough for a debug-mode test.
    let mut rng = Rng::new(207);
    let (train, test) = german(350, 207).train_test_split(0.3, &mut rng);
    let mut init_rng = Rng::new(208);
    let session = SessionBuilder::new().fit(
        |n_cols| Mlp::new(n_cols, 3, 1e-2, &mut init_rng),
        &train,
        &test,
    );
    let report = session
        .explain(
            &ExplainRequest::default()
                .with_k(2)
                .with_ground_truth(false)
                .with_max_predicates(2),
        )
        .report;
    assert!(report.base_bias.abs() > 0.0);
    assert!(!report.explanations.is_empty());
}

#[test]
fn report_supports_and_coverage_are_consistent() {
    let report = run_pipeline(german(600, 209), 209, 3);
    for e in &report.explanations {
        let n = e.candidate.coverage.len();
        let count = e.candidate.coverage.count();
        assert!((e.support - count as f64 / n as f64).abs() < 1e-12);
        assert!(
            (e.candidate.interestingness - e.est_responsibility / e.support).abs() < 1e-9,
            "interestingness must be responsibility / support"
        );
    }
}
