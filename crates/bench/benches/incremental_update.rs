//! Incremental sessions under data change: `ExplainSession::update` vs a
//! full rebuild, plus the from-scratch ground-truth retrains a top-k answer
//! pays.
//!
//! The acceptance bar: a single-row balanced delta against a warm
//! German-10k session must be at least 10× cheaper through `update()` than
//! through `cold_rebuild()` (which re-pays training, Hessian
//! factorization, predicate generation, and every coverage bitset). Engine
//! updates patch the Hessian factor by one rank-1 update or downdate per
//! delta row and refactor only when the residual probe fails. The 1% delta
//! arm deliberately lands in the engine's full-rebuild fallback — it
//! measures what the guardrails cost when they fire. The scale group
//! repeats the single-row comparison at SQF-100k, where the rebuild is
//! dominated by coverage construction.

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_bench::workloads::{prepare, random_subset, train_lr, DatasetKind};
use gopher_core::{ExplainRequest, ExplainSession, SessionBuilder};
use gopher_data::generators::{german, sqf};
use gopher_influence::retrain_without_many;
use gopher_models::LogisticRegression;
use gopher_prng::Rng;

fn warm_session(p: &gopher_bench::workloads::Prepared) -> ExplainSession<LogisticRegression> {
    let session = SessionBuilder::new().fit(
        |cols| LogisticRegression::new(cols, 1e-3),
        &p.train_raw,
        &p.test_raw,
    );
    session.explain(&ExplainRequest::default().with_ground_truth(false));
    session
}

fn bench_incremental_update(c: &mut Criterion) {
    let p = prepare(DatasetKind::German, 10_000, 42);
    let session = warm_session(&p);

    let mut group = c.benchmark_group("incremental_update");
    group.sample_size(10);

    group.bench_function("german10k/full_rebuild", |b| {
        b.iter(|| session.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3)));
    });

    // Balanced single-row swaps against one long-lived session: the
    // steady-state serving delta. Each iteration removes a fresh index and
    // appends one fresh generator row, so n stays constant and the engine
    // keeps taking the incremental factor path.
    {
        let mut live = session.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
        live.explain(&ExplainRequest::default().with_ground_truth(false));
        let mut i = 0u64;
        group.bench_function("german10k/update_single_row", |b| {
            b.iter(|| {
                let n = live.train_raw().n_rows();
                let report = live.update(&[(i as usize * 97) % n], &german(1, 9_000 + i));
                i += 1;
                report
            });
        });
    }

    // A 1% delta (70 rows at 7 000 train rows): the patched factor passes
    // its probe, then the engine falls back to a full rebuild. This arm
    // prices that fallback, still well under a session rebuild because
    // every coverage patch is reused.
    {
        let mut live = session.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
        live.explain(&ExplainRequest::default().with_ground_truth(false));
        let mut rng = Rng::new(1731);
        let mut i = 0u64;
        group.bench_function("german10k/update_1pct", |b| {
            b.iter(|| {
                let n = live.train_raw().n_rows();
                let k = n / 100;
                let removed = rng.sample_indices(n, k);
                let removed: Vec<usize> = removed;
                let report = live.update(&removed, &german(k, 17_000 + i));
                i += 1;
                report
            });
        });
    }

    // Fig-4-style ground truth: k=3 from-scratch retrains without 5%
    // subsets.
    {
        let model = train_lr(&p);
        let mut rng = Rng::new(4242);
        let subsets: Vec<Vec<u32>> = (0..3)
            .map(|_| random_subset(p.train.n_rows(), 0.05, &mut rng))
            .collect();
        group.bench_function("german10k/retrain_without_many_scratch", |b| {
            b.iter(|| retrain_without_many(&model, &p.train, &subsets, 4));
        });
    }
    group.finish();
}

fn bench_incremental_update_scale(c: &mut Criterion) {
    let p = prepare(DatasetKind::Sqf, 100_000, 42);
    let session = warm_session(&p);

    let mut group = c.benchmark_group("incremental_update_scale");
    group.sample_size(3);

    group.bench_function("sqf100k/full_rebuild", |b| {
        b.iter(|| session.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3)));
    });

    {
        let mut live = session.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
        live.explain(&ExplainRequest::default().with_ground_truth(false));
        let mut i = 0u64;
        group.bench_function("sqf100k/update_single_row", |b| {
            b.iter(|| {
                let n = live.train_raw().n_rows();
                let report = live.update(&[(i as usize * 101) % n], &sqf(1, 33_000 + i));
                i += 1;
                report
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_incremental_update,
    bench_incremental_update_scale
);
criterion_main!(benches);
