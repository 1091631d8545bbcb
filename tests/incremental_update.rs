//! Incremental sessions under data change, end to end.
//!
//! [`ExplainSession::update`] patches a live session in place: the
//! influence engine takes a Woodbury/Cholesky delta path, predicate
//! coverages are patched bit-exactly, and the coverage cache starts over
//! from the patched predicate index. The contract these tests pin:
//!
//! * post-update answers equal a cold rebuild on the updated data —
//!   pattern text and support **exactly** (the bitset layer is patched,
//!   not approximated), responsibilities within the engine's documented
//!   drift bound, base bias to float noise;
//! * the whole thing is thread-count invariant: the patched session
//!   answers bit-identically at 1 and 4 worker threads;
//! * update work does not grow with the support thresholds a session has
//!   visited, and every one of them still answers like a cold rebuild;
//! * an adversarial delta (a fifth of the training set at once) trips the
//!   refactorization/retrain fallback and *still* matches the cold oracle.

use gopher_core::{ExplainRequest, ExplainSession, SessionBuilder};
use gopher_data::generators::german;
use gopher_fairness::FairnessMetric;
use gopher_json::Json;
use gopher_models::LogisticRegression;
use gopher_prng::Rng;
use gopher_serve::api;

const DATA_SEED: u64 = 2208;

fn build_session(rows: usize, threads: usize) -> ExplainSession<LogisticRegression> {
    let mut rng = Rng::new(DATA_SEED);
    let (train, test) = german(rows, DATA_SEED).train_test_split(0.3, &mut rng);
    SessionBuilder::new().threads(threads).fit(
        |cols| LogisticRegression::new(cols, 1e-3),
        &train,
        &test,
    )
}

/// A small mixed workload: two metrics, two support thresholds.
fn workload() -> Vec<ExplainRequest> {
    let mut requests = Vec::new();
    for &metric in &[
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualOpportunity,
    ] {
        for &tau in &[0.05, 0.1] {
            requests.push(
                ExplainRequest::default()
                    .with_metric(metric)
                    .with_ground_truth(false)
                    .with_support_threshold(tau),
            );
        }
    }
    requests
}

/// Timing-free canonical form of a response, via the shared wire codec.
fn canonical(response: &gopher_core::ExplainResponse) -> Json {
    let mut json = api::explain_response_json(response);
    if let Json::Obj(ref mut fields) = json {
        fields.remove("query_ms");
        fields.remove("search_ms");
    }
    json
}

/// Patterns and supports exactly; responsibilities within the engine's
/// drift bound; base bias to float noise.
fn assert_matches(warm: &gopher_core::ExplainResponse, cold: &gopher_core::ExplainResponse) {
    assert!(
        (warm.report.base_bias - cold.report.base_bias).abs() <= 1e-6,
        "base bias diverged: {} vs {}",
        warm.report.base_bias,
        cold.report.base_bias
    );
    let a = &warm.report.explanations;
    let b = &cold.report.explanations;
    assert_eq!(a.len(), b.len(), "explanation counts diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.pattern_text, y.pattern_text, "pattern diverged");
        assert_eq!(x.support, y.support, "support must be bit-exact");
        let scale = x.est_responsibility.abs().max(y.est_responsibility.abs());
        assert!(
            (x.est_responsibility - y.est_responsibility).abs() <= 1e-2 * scale.max(1e-12),
            "responsibility for {} outside the drift bound: {} vs {}",
            x.pattern_text,
            x.est_responsibility,
            y.est_responsibility
        );
    }
}

/// A balanced single-row delta at every thread count: the incremental
/// engine path must hold, post-update answers must match a cold rebuild,
/// and the patched session must stay thread-count invariant bit for bit.
#[test]
fn update_matches_cold_rebuild_and_is_thread_invariant() {
    let requests = workload();
    let mut per_thread_answers: Vec<Vec<Json>> = Vec::new();
    for &threads in &[1usize, 4] {
        let mut session = build_session(4000, threads);
        // Warm the caches before the delta lands.
        session.explain_batch(&requests);
        let report = session.update(&[388], &german(1, 61));
        assert_eq!(report.rows_removed, 1);
        assert_eq!(report.rows_added, 1);
        assert!(
            !report.engine.fell_back(),
            "a balanced single-row delta at 2800 train rows must stay incremental \
             (threads={threads}): {:?}",
            report.engine
        );
        let warm = session.explain_batch(&requests);
        let cold = session.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
        let oracle = cold.explain_batch(&requests);
        for (w, o) in warm.iter().zip(&oracle) {
            assert_matches(w, o);
        }
        per_thread_answers.push(warm.iter().map(canonical).collect());
    }
    let [ref one, ref four] = per_thread_answers[..] else {
        unreachable!("two thread counts");
    };
    for (i, (a, b)) in one.iter().zip(four).enumerate() {
        assert_eq!(
            a, b,
            "post-update answer {i} diverged between 1 and 4 threads"
        );
    }
}

/// A session warmed at eight support thresholds keeps nothing but its
/// fresh predicate index across a single-row delta — the update's work
/// does not grow with the τ values visited — and then answers every one
/// of those thresholds like a cold rebuild on the updated data.
#[test]
fn update_after_many_taus_matches_cold_rebuild() {
    let requests: Vec<ExplainRequest> = [0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1, 0.15]
        .iter()
        .map(|&tau| {
            ExplainRequest::default()
                .with_ground_truth(false)
                .with_support_threshold(tau)
        })
        .collect();
    let mut session = build_session(1200, 1);
    session.explain_batch(&requests);
    let before = session.stats();
    let predicates = session.predicate_table().len();
    assert!(
        before.cached_coverages > predicates,
        "warm-up must materialize merged coverages"
    );

    let report = session.update(&[17], &german(1, 63));
    let stats = session.stats();
    assert_eq!(stats.updates_applied, 1);
    assert_eq!(
        stats.cached_coverages, predicates,
        "only the patched predicate index survives the delta"
    );
    assert_eq!(
        report.artifacts_invalidated,
        before.cached_coverages - predicates
    );
    // The scored tier is a function of the moved model params: always wiped.
    assert_eq!(stats.sweep_entries, 0);

    let warm = session.explain_batch(&requests);
    let cold = session.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
    let oracle = cold.explain_batch(&requests);
    for (w, o) in warm.iter().zip(&oracle) {
        assert_matches(w, o);
    }
}

/// An adversarial delta — a fifth of the training set ripped out at once,
/// plus unbalanced additions — must trip the factor fallback (the drift
/// bound exists exactly for this) and still answer like the cold oracle.
#[test]
fn adversarial_delta_falls_back_and_still_matches() {
    let requests = workload();
    let mut session = build_session(600, 2);
    session.explain_batch(&requests);
    let n_train = session.train_raw().n_rows();
    let removed: Vec<usize> = (0..n_train / 5).map(|i| i * 5).collect();
    let report = session.update(&removed, &german(4, 65));
    assert!(
        report.engine.fell_back(),
        "removing 20% of training rows must not pass the drift/residual guards: {:?}",
        report.engine
    );
    assert_eq!(session.stats().factor_fallbacks, 1);

    let warm = session.explain_batch(&requests);
    let cold = session.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
    let oracle = cold.explain_batch(&requests);
    for (w, o) in warm.iter().zip(&oracle) {
        assert_matches(w, o);
    }
}
