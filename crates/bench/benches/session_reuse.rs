//! Session-reuse benchmark: the acceptance workload for the query-oriented
//! API. One warm [`ExplainSession`] serving two single-metric queries plus a
//! 2-request batch must beat three cold sessions (a fresh
//! `SessionBuilder::new().fit(...)` per question) on the German workload —
//! the cold path re-pays training, Hessian factorization, predicate
//! generation, and every coverage intersection per call.
//!
//! The German-10k arms show what the analyst's loop costs on either side
//! of the ground-truth memo: a fresh session's first question (every
//! top-k pattern retrained), and a question at a third support threshold
//! of the same metric (ground truths read back wherever an earlier
//! threshold returned the pattern; every candidate is still scored).

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_bench::workloads::{prepare, DatasetKind};
use gopher_core::{ExplainRequest, ExplainSession, SessionBuilder};
use gopher_fairness::FairnessMetric;
use gopher_models::LogisticRegression;

/// Timed samples of each German-10k arm (one fresh session is built per
/// sample of the first-question arm, plus one for the warm-up).
const SAMPLES_10K: usize = 5;

/// The library-default question (second order, k = 3, ground truth on) at
/// support threshold `tau`.
fn question(tau: f64) -> ExplainRequest {
    ExplainRequest::default().with_support_threshold(tau)
}

fn requests() -> [ExplainRequest; 2] {
    [
        ExplainRequest::default().with_ground_truth(false),
        ExplainRequest::default()
            .with_metric(FairnessMetric::EqualOpportunity)
            .with_ground_truth(false),
    ]
}

fn bench_session_reuse(c: &mut Criterion) {
    let p = prepare(DatasetKind::German, 1_000, 42);
    let [sp, eo] = requests();

    let mut group = c.benchmark_group("session_reuse_german");
    group.sample_size(10);

    // Cold path: three independent fit+explain runs (SP, EO, SP again —
    // exactly the questions the warm arm answers), a fresh session each.
    group.bench_function("cold_three_sessions", |b| {
        b.iter(|| {
            let mut reports = Vec::new();
            for request in [&sp, &eo, &sp] {
                let session = SessionBuilder::new().fit(
                    |cols| LogisticRegression::new(cols, 1e-3),
                    &p.train_raw,
                    &p.test_raw,
                );
                reports.push(session.explain(request).report);
            }
            reports
        });
    });

    // Warm path: one session build + two singles + one 2-request batch
    // (four answers for the price of one setup and two sweeps).
    group.bench_function("warm_session_2_singles_plus_batch2", |b| {
        b.iter(|| {
            let session = SessionBuilder::new().fit(
                |cols| LogisticRegression::new(cols, 1e-3),
                &p.train_raw,
                &p.test_raw,
            );
            let mut reports = Vec::new();
            reports.push(session.explain(&sp).report);
            reports.push(session.explain(&eo).report);
            reports.extend(
                session
                    .explain_batch(&[sp.clone(), eo.clone()])
                    .into_iter()
                    .map(|r| r.report),
            );
            reports
        });
    });

    // Marginal query cost against an already-warm session — the serving
    // steady state.
    let warm = SessionBuilder::new().fit(
        |cols| LogisticRegression::new(cols, 1e-3),
        &p.train_raw,
        &p.test_raw,
    );
    let _ = warm.explain(&sp);
    let _ = warm.explain(&eo);
    group.bench_function("marginal_warm_query", |b| {
        b.iter(|| warm.explain(&sp).report);
    });

    group.finish();
}

fn bench_memo_warm_questions(c: &mut Criterion) {
    let p = prepare(DatasetKind::German, 10_000, 42);
    let build = || -> ExplainSession<LogisticRegression> {
        SessionBuilder::new().fit(
            |cols| LogisticRegression::new(cols, 1e-3),
            &p.train_raw,
            &p.test_raw,
        )
    };

    let mut group = c.benchmark_group("session_reuse_german10k");
    group.sample_size(SAMPLES_10K);

    // Cold: each sample asks a session built beforehand its first question.
    // Asked sessions are kept until the arm ends, so no drop is timed.
    let mut fresh: Vec<_> = (0..=SAMPLES_10K).map(|_| build()).collect();
    let mut asked = Vec::new();
    group.bench_function("first_question", |b| {
        b.iter(|| {
            let session = fresh.pop().expect("one fresh session per sample");
            let report = session.explain(&question(0.05)).report;
            asked.push(session);
            report
        });
    });
    drop(asked);

    // Memo-warm: two thresholds fill the ground-truth memo; every sample
    // then asks a threshold no earlier question used (one a sweep-cache
    // hit would answer for free).
    let warm = build();
    let _ = warm.explain(&question(0.05));
    let _ = warm.explain(&question(0.0505));
    let mut tau = 0.051;
    group.bench_function("third_tau_question", |b| {
        b.iter(|| {
            tau += 0.0005;
            warm.explain(&question(tau)).report
        });
    });

    group.finish();
}

criterion_group!(benches, bench_session_reuse, bench_memo_warm_questions);
criterion_main!(benches);
