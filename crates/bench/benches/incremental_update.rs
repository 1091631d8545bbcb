//! Incremental sessions under data change: `ExplainSession::update` vs a
//! full rebuild, plus the from-scratch ground-truth retrains a top-k answer
//! pays.
//!
//! A single-row balanced delta against a warm German-10k session is
//! cheaper through `update()` than through `cold_rebuild()` (which re-pays
//! training, Hessian factorization, predicate generation, and every
//! coverage bitset): `full_rebuild` ÷ `update_single_row` measured 5.5× to
//! 9.6× (median 6.8×) over twelve runs on a 2-vCPU host. The 1% delta arm
//! lands in the engine's drift rebuild, asserted once before timing: it
//! measures what the guardrail costs when it fires. The scale group
//! repeats the single-row comparison at SQF-100k, where the rebuild is
//! dominated by coverage construction.

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_bench::workloads::{prepare, random_subset, train_lr, DatasetKind};
use gopher_core::{ExplainRequest, ExplainSession, SessionBuilder};
use gopher_data::generators::{german, sqf};
use gopher_influence::{retrain_without_many, RebuildCause};
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
    // keeps taking the incremental path.
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

    // A 1% delta (70 rows at 7 000 train rows). On this split the first
    // swap stays inside the engine's drift bound and every later one
    // crosses it, so the first runs untimed, the second must rebuild for
    // drift, and every timed sample prices that rebuild: still well under
    // a session rebuild, because every coverage patch is reused.
    {
        let mut live = session.cold_rebuild(|cols| LogisticRegression::new(cols, 1e-3));
        live.explain(&ExplainRequest::default().with_ground_truth(false));
        let mut rng = Rng::new(1731);
        let mut i = 0u64;
        let mut update_1pct = || {
            let n = live.train_raw().n_rows();
            let k = n / 100;
            let report = live.update(&rng.sample_indices(n, k), &german(k, 17_000 + i));
            i += 1;
            report
        };
        update_1pct();
        let cause = update_1pct().engine.rebuild;
        assert!(
            matches!(cause, Some(RebuildCause::Drift { .. })),
            "the 1% arm must price the drift rebuild, got {cause:?}"
        );
        group.bench_function("german10k/update_1pct", |b| b.iter(&mut update_1pct));
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
