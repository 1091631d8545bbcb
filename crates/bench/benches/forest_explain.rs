//! Forest-family explanation cost: the unlearning backend end to end.
//!
//! Three arms on German-2k: a cold `explain` through a fresh forest session
//! (sweep + per-candidate unlearning), the unlearning influence estimate
//! for one fixed pattern-sized subset, and the scratch-retrain ground truth
//! for the same subset. The last two isolate the estimator-vs-oracle gap
//! the calibration experiment reports on: leaf-level unlearning re-splits
//! only the nodes the removed rows actually touched, while the oracle
//! re-draws every bootstrap and regrows all trees.

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_bench::workloads::{prepare, random_subset};
use gopher_core::{ExplainRequest, SessionBuilder};
use gopher_data::Encoder;
use gopher_influence::{InfluenceBackend, ModelFamily};
use gopher_models::{Forest, ForestConfig};

fn bench_forest_explain(c: &mut Criterion) {
    let p = prepare(gopher_bench::workloads::DatasetKind::German, 2_000, 42);
    let make = |cols: usize| Forest::new(cols, ForestConfig::default());

    let mut group = c.benchmark_group("forest_explain");
    group.sample_size(10);

    group.bench_function("german2k/cold_explain", |b| {
        b.iter(|| {
            let session = SessionBuilder::new().fit(make, &p.train_raw, &p.test_raw);
            session.explain(&ExplainRequest::default().with_k(3).with_ground_truth(false))
        });
    });

    // Estimator vs oracle on one fixed subset (5% of the training rows —
    // pattern-sized). Built outside the timed loops.
    let encoder = Encoder::fit(&p.train_raw);
    let train = encoder.transform(&p.train_raw);
    let mut forest = make(train.n_cols());
    ModelFamily::fit(&mut forest, &train);
    let mut rng = gopher_prng::Rng::new(7);
    let rows = random_subset(train.n_rows(), 0.05, &mut rng);

    group.bench_function("german2k/unlearning_influence", |b| {
        b.iter(|| forest.unlearn(&train, &rows));
    });

    let backend = <Forest as ModelFamily>::Backend::build(
        forest.clone(),
        &train,
        gopher_influence::InfluenceConfig::default(),
    );
    group.bench_function("german2k/retrain_ground_truth", |b| {
        b.iter(|| backend.ground_truth_models(&train, std::slice::from_ref(&rows), 1));
    });

    group.finish();
}

criterion_group!(benches, bench_forest_explain);
criterion_main!(benches);
