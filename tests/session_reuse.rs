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

/// Support thresholds with distinct `⌈τ·n⌉` at 490 training rows: three
/// structural keys, so every question is a sweep-cache miss.
const TAUS: [f64; 3] = [0.05, 0.07, 0.09];

fn lr(n_cols: usize) -> LogisticRegression {
    LogisticRegression::new(n_cols, 1e-3)
}

/// A small forest, so its unlearning scorer stays cheap.
fn forest(n_cols: usize) -> Forest {
    Forest::new(
        n_cols,
        ForestConfig {
            n_trees: 4,
            ..ForestConfig::default()
        },
    )
}

/// Ground-truth memo counters of `session`: (hits, misses).
fn truth_counts<M: ModelFamily>(session: &ExplainSession<M>) -> (u64, u64) {
    let s = session.stats();
    (s.truth_memo_hits, s.truth_memo_misses)
}

/// Asks `questions` of one session per thread count, one at a time, each
/// compared bit for bit with a fresh session answering it alone; returns
/// the last session's ground-truth memo counters.
fn assert_stream_matches_fresh_sessions<M: ModelFamily>(
    make: impl Fn(usize) -> M + Copy,
    train: &Dataset,
    test: &Dataset,
    questions: &[ExplainRequest],
) -> (u64, u64) {
    let fresh: Vec<ExplanationReport> = questions
        .iter()
        .map(|q| {
            SessionBuilder::new()
                .fit(make, train, test)
                .explain(q)
                .report
        })
        .collect();
    let mut counts = (0, 0);
    for threads in [1, 4] {
        let session = SessionBuilder::new()
            .threads(threads)
            .fit(make, train, test);
        for (q, reference) in questions.iter().zip(&fresh) {
            assert_identical(&session.explain(q).report, reference);
        }
        counts = truth_counts(&session);
    }
    counts
}

/// The analyst's loop through the ground-truth memo: four metrics at each
/// of three support thresholds, ground truth on, answered bit-identically
/// to a fresh session per question at 1 and 4 threads. Top-k patterns
/// recur, and their ground truths are read from stored predictions.
#[test]
fn tau_sweep_through_the_truth_memo_matches_fresh_sessions() {
    let (train, test) = splits(304);
    let questions: Vec<ExplainRequest> = TAUS
        .iter()
        .flat_map(|&tau| {
            FairnessMetric::EXTENDED.map(|metric| {
                ExplainRequest::default()
                    .with_metric(metric)
                    .with_support_threshold(tau)
                    .with_ground_truth(true)
            })
        })
        .collect();
    let (hits, misses) = assert_stream_matches_fresh_sessions(lr, &train, &test, &questions);
    assert!(hits > 0, "top-k patterns recur: {hits} hits");
    assert!(misses > 0);
}

/// The unlearning backend through the same memo: a small forest over two
/// τ and two metrics matches fresh sessions, and a top-k pattern retrained
/// for one question is read back for another.
#[test]
fn forest_tau_sweep_matches_fresh_sessions() {
    let mut rng = Rng::new(306);
    let (train, test) = german(300, 306).train_test_split(0.3, &mut rng);
    let questions: Vec<ExplainRequest> = [0.06, 0.1]
        .iter()
        .flat_map(|&tau| {
            [
                FairnessMetric::StatisticalParity,
                FairnessMetric::EqualOpportunity,
            ]
            .map(|metric| {
                ExplainRequest::default()
                    .with_metric(metric)
                    .with_support_threshold(tau)
                    .with_max_predicates(2)
                    .with_ground_truth(true)
            })
        })
        .collect();
    let (hits, _) = assert_stream_matches_fresh_sessions(forest, &train, &test, &questions);
    assert!(hits > 0, "retrains are shared across metrics and τ");
}

/// No ground truth from before an update is served after it. Session A
/// warms its memo at three τ and then applies a delta; session B, built
/// identically, applies the same delta cold. Both then answer the same
/// questions bit-identically. The same holds for `cold_rebuild`: A's
/// rebuild, taken with a warm memo, answers like B's, taken cold.
#[test]
fn updates_and_cold_rebuilds_serve_no_stale_memo() {
    let (train, test) = splits(308);
    let questions: Vec<ExplainRequest> = TAUS
        .iter()
        .map(|&tau| {
            ExplainRequest::default()
                .with_support_threshold(tau)
                .with_ground_truth(true)
        })
        .collect();
    let delta = german(2, 309);
    let removed = [3, 141, 400];

    let mut a = SessionBuilder::new().fit(lr, &train, &test);
    for q in &questions {
        let _ = a.explain(q);
    }
    let (warm_hits, _) = truth_counts(&a);
    assert!(warm_hits > 0, "session A's memo is warm");
    let _ = a.update(&removed, &delta);

    let mut b = SessionBuilder::new().fit(lr, &train, &test);
    let _ = b.update(&removed, &delta);
    let rebuilt_b = b.cold_rebuild(lr);

    for q in &questions {
        assert_identical(&a.explain(q).report, &b.explain(q).report);
    }
    let rebuilt_a = a.cold_rebuild(lr);
    for q in &questions {
        assert_identical(&rebuilt_a.explain(q).report, &rebuilt_b.explain(q).report);
    }
}
