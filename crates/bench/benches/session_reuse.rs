//! Session-reuse benchmark: the acceptance workload for the query-oriented
//! API. One warm [`ExplainSession`] serving two single-metric queries plus a
//! 2-request batch must beat three cold sessions (a fresh
//! `SessionBuilder::new().fit(...)` per question) on the German workload —
//! the cold path re-pays training, Hessian factorization, predicate
//! generation, and every coverage intersection per call.

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_bench::workloads::{prepare, DatasetKind};
use gopher_core::{ExplainRequest, SessionBuilder};
use gopher_fairness::FairnessMetric;
use gopher_models::LogisticRegression;

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

criterion_group!(benches, bench_session_reuse);
criterion_main!(benches);
