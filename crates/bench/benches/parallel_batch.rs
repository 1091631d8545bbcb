//! Parallel-batch benchmark: the acceptance workload for the parallel query
//! engine. An 8-request mixed-metric `explain_batch` (4 metrics × 2
//! estimators, ground truth on) on German 1k, answered by identically-built
//! sessions at 1, 2, and 4 worker threads. On a ≥4-core host the 4-thread
//! arm must come in ≥2× under the sequential one; on smaller machines the
//! arms converge (the fan-out degrades to the inline path).
//!
//! Every sample asks a support count no earlier sample of its session
//! asked, so each runs one cold 8-scorer sweep (asserted from the session's
//! counters after the samples). The top-k patterns recur across
//! neighbouring support counts, so after the warm-up most ground truths are
//! read back from the session's ground-truth memo instead of retrained.

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_bench::workloads::{prepare, DatasetKind};
use gopher_core::{ExplainRequest, ExplainSession, SessionBuilder};
use gopher_fairness::FairnessMetric;
use gopher_influence::Estimator;
use gopher_models::LogisticRegression;
use std::cell::Cell;

/// Support count ⌈τ·n⌉ of each session's warm-up sample (τ ≈ 0.051 on the
/// 700 training rows); sample `i` after it asks one more.
const FIRST_COUNT: u64 = 36;

fn requests(support: f64) -> Vec<ExplainRequest> {
    [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualOpportunity,
        FairnessMetric::PredictiveParity,
        FairnessMetric::AverageOdds,
    ]
    .iter()
    .flat_map(|&m| {
        [
            ExplainRequest::default()
                .with_metric(m)
                .with_support_threshold(support)
                .with_ground_truth(true),
            ExplainRequest::default()
                .with_metric(m)
                .with_estimator(Estimator::FirstOrder)
                .with_support_threshold(support)
                .with_ground_truth(true),
        ]
    })
    .collect()
}

fn bench_parallel_batch(c: &mut Criterion) {
    let p = prepare(DatasetKind::German, 1_000, 42);
    let n = p.train_raw.n_rows() as f64;
    let mut group = c.benchmark_group("parallel_batch_german");
    group.sample_size(10);

    for threads in [1usize, 2, 4] {
        let session: ExplainSession<LogisticRegression> =
            SessionBuilder::new().threads(threads).fit(
                |cols| LogisticRegression::new(cols, 1e-3),
                &p.train_raw,
                &p.test_raw,
            );
        // Iteration i asks τ = (FIRST_COUNT + i − ½)/n, whose support count
        // ⌈τ·n⌉ is FIRST_COUNT + i: a sweep key the session has not seen, so
        // no sample is answered from the sweep cache.
        let iteration = Cell::new(0u64);
        group.bench_function(format!("8req_mixed_gt_threads_{threads}"), |b| {
            b.iter(|| {
                let i = iteration.get();
                iteration.set(i + 1);
                let count = (FIRST_COUNT + i) as f64;
                session.explain_batch(&requests((count - 0.5) / n))
            });
        });
        let stats = session.stats();
        assert_eq!(
            (stats.sweep_misses, stats.sweep_hits),
            (8 * iteration.get(), 0),
            "every sample must run its 8 sweeps: {stats:?}"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_batch);
criterion_main!(benches);
