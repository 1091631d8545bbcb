//! Session-reuse contract: one warm [`ExplainSession`] must answer exactly
//! like fresh sessions answering each request alone — the caches are
//! invisible in the results.

use gopher_core::ExplanationReport;
use gopher_repro::prelude::*;

fn splits(seed: u64) -> (Dataset, Dataset) {
    let mut rng = Rng::new(seed);
    german(700, seed).train_test_split(0.3, &mut rng)
}

/// A fresh session over `train`/`test` answering `request` alone.
fn cold(train: &Dataset, test: &Dataset, request: &ExplainRequest) -> ExplanationReport {
    SessionBuilder::new()
        .fit(|n_cols| LogisticRegression::new(n_cols, 1e-3), train, test)
        .explain(request)
        .report
}

fn assert_identical(a: &ExplanationReport, b: &ExplanationReport) {
    assert_eq!(a.metric, b.metric);
    assert_eq!(a.base_bias, b.base_bias, "base bias must be bit-identical");
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.stats.total_scored, b.stats.total_scored);
    assert_eq!(a.stats.total_kept(), b.stats.total_kept());
    assert_eq!(a.explanations.len(), b.explanations.len());
    for (x, y) in a.explanations.iter().zip(&b.explanations) {
        assert_eq!(x.pattern_text, y.pattern_text);
        assert_eq!(x.support, y.support, "{}", x.pattern_text);
        assert_eq!(
            x.est_responsibility, y.est_responsibility,
            "{}",
            x.pattern_text
        );
        assert_eq!(x.candidate.interestingness, y.candidate.interestingness);
        assert_eq!(
            x.ground_truth_responsibility, y.ground_truth_responsibility,
            "{}",
            x.pattern_text
        );
        assert_eq!(x.ground_truth_new_bias, y.ground_truth_new_bias);
    }
}

/// One session answering StatisticalParity then EqualOpportunity queries
/// must produce identical reports to two cold sessions, one per request.
#[test]
fn warm_session_matches_two_cold_sessions() {
    let (train, test) = splits(301);
    let session = SessionBuilder::new().fit(
        |n_cols| LogisticRegression::new(n_cols, 1e-3),
        &train,
        &test,
    );

    for metric in [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualOpportunity,
    ] {
        let request = ExplainRequest::default()
            .with_metric(metric)
            .with_ground_truth(true);
        let warm = session.explain(&request).report;
        assert_identical(&warm, &cold(&train, &test, &request));
    }
}

/// A batch query must equal its sequential single-query equivalents.
#[test]
fn batch_equals_sequential_queries() {
    let (train, test) = splits(302);
    let session = SessionBuilder::new().fit(
        |n_cols| LogisticRegression::new(n_cols, 1e-3),
        &train,
        &test,
    );
    let requests = [
        ExplainRequest::default().with_ground_truth(false),
        ExplainRequest::default()
            .with_metric(FairnessMetric::EqualOpportunity)
            .with_ground_truth(false),
        ExplainRequest::default()
            .with_estimator(Estimator::FirstOrder)
            .with_k(2)
            .with_ground_truth(false),
    ];
    let batched = session.explain_batch(&requests);
    assert_eq!(batched.len(), requests.len());

    // A *fresh* session answering one request at a time (no shared caches
    // with the batch) must agree exactly.
    let sequential_session = SessionBuilder::new().fit(
        |n_cols| LogisticRegression::new(n_cols, 1e-3),
        &train,
        &test,
    );
    for (request, batch_response) in requests.iter().zip(&batched) {
        let solo = sequential_session.explain(request);
        assert_identical(&solo.report, &batch_response.report);
    }
}

/// Different estimators against one session stay bit-compatible with cold
/// runs too (the sweep cache keys must not collapse distinct estimators).
#[test]
fn estimator_variants_do_not_collide_in_the_cache() {
    let (train, test) = splits(303);
    let session = SessionBuilder::new().fit(
        |n_cols| LogisticRegression::new(n_cols, 1e-3),
        &train,
        &test,
    );
    let fo = session
        .explain(
            &ExplainRequest::default()
                .with_estimator(Estimator::FirstOrder)
                .with_ground_truth(false),
        )
        .report;
    let so = session
        .explain(
            &ExplainRequest::default()
                .with_estimator(Estimator::SecondOrder)
                .with_ground_truth(false),
        )
        .report;
    // Same metric and data, different estimators: responsibilities must
    // differ somewhere (they are different approximations).
    let fo_scores: Vec<f64> = fo
        .explanations
        .iter()
        .map(|e| e.est_responsibility)
        .collect();
    let so_scores: Vec<f64> = so
        .explanations
        .iter()
        .map(|e| e.est_responsibility)
        .collect();
    assert_ne!(
        fo_scores, so_scores,
        "estimators must not share cache slots"
    );

    let cold_fo = cold(
        &train,
        &test,
        &ExplainRequest::default()
            .with_estimator(Estimator::FirstOrder)
            .with_ground_truth(false),
    );
    assert_identical(&fo, &cold_fo);
}
