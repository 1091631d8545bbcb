//! Criterion bench for Table 7: lattice-search time as the maximum pattern
//! size (lattice level) grows, plus the diversity-filtering step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gopher_bench::workloads::{prepare, train_lr, DatasetKind};
use gopher_fairness::FairnessMetric;
use gopher_influence::{BiasEval, BiasInfluence, Estimator, InfluenceConfig, InfluenceEngine};
use gopher_patterns::{generate_predicates, lattice, topk, LatticeConfig};

fn bench_table7(c: &mut Criterion) {
    let p = prepare(DatasetKind::German, 1_000, 42);
    let model = train_lr(&p);
    let engine = InfluenceEngine::new(model, &p.train, InfluenceConfig::default());
    let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &p.test);
    let table = generate_predicates(&p.train_raw, 4);

    let mut group = c.benchmark_group("table7_lattice_search");
    group.sample_size(10);
    for max_level in [1usize, 2, 3] {
        group.bench_with_input(
            BenchmarkId::new("compute_candidates", max_level),
            &max_level,
            |b, &max_level| {
                let config = LatticeConfig {
                    support_threshold: 0.05,
                    max_predicates: max_level,
                    prune_by_responsibility: true,
                };
                b.iter(|| {
                    lattice::compute_candidates(
                        &table,
                        |cov| {
                            let rows = cov.to_indices();
                            bi.responsibility(
                                &p.train,
                                &rows,
                                Estimator::FirstOrder,
                                BiasEval::ChainRule,
                            )
                        },
                        &config,
                    )
                });
            },
        );
    }

    // Filtering cost over the full candidate set.
    let config = LatticeConfig {
        support_threshold: 0.05,
        max_predicates: 3,
        ..Default::default()
    };
    let (candidates, _) = lattice::compute_candidates(
        &table,
        |cov| {
            let rows = cov.to_indices();
            bi.responsibility(&p.train, &rows, Estimator::FirstOrder, BiasEval::ChainRule)
        },
        &config,
    );
    group.bench_function("top5_diversity_filtering", |b| {
        b.iter(|| topk::top_k(&candidates, 5, 0.75));
    });
    group.finish();
}

criterion_group!(benches, bench_table7);
criterion_main!(benches);
