//! Cold-sweep benchmark: the staged lattice engine on a single cold query.
//!
//! Measures one full staged sweep — predicate-table filter, then per
//! level the merge enumeration and resolution and an influence-scored
//! (second-order) score pass — on German and Adult at 10k rows, with the
//! level pipeline on 1 vs 4 workers. Every iteration builds a fresh
//! coverage cache, so each sample is genuinely cold (nothing is amortized
//! across iterations, unlike the session benches). The 4-thread arm scales
//! with the host's cores; on a 1-core container the arms converge, showing
//! the pipeline adds no overhead over one worker.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gopher_bench::workloads::{prepare, train_lr, DatasetKind};
use gopher_fairness::FairnessMetric;
use gopher_influence::{BiasEval, BiasInfluence, Estimator, InfluenceConfig, InfluenceEngine};
use gopher_patterns::lattice::compute_candidates_multi;
use gopher_patterns::{generate_predicates, CoverageCache, LatticeConfig, ScoreFn};

fn bench_cold_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_sweep_10k");
    group.sample_size(10);

    for kind in [DatasetKind::German, DatasetKind::Adult] {
        let p = prepare(kind, 10_000, 42);
        let model = train_lr(&p);
        let engine = InfluenceEngine::new(model, &p.train, InfluenceConfig::default());
        let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &p.test);
        let table = generate_predicates(&p.train_raw, 4);
        let config = LatticeConfig {
            support_threshold: 0.05,
            max_predicates: 3,
            ..Default::default()
        };

        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("{}_threads", kind.name()), threads),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let score = |cov: &gopher_patterns::BitSet| {
                            let rows = cov.to_indices();
                            bi.responsibility(
                                &p.train,
                                &rows,
                                Estimator::SecondOrder,
                                BiasEval::ChainRule,
                            )
                        };
                        let scorers: Vec<ScoreFn<'_>> = vec![Box::new(score)];
                        let cache = CoverageCache::new();
                        compute_candidates_multi(&table, &scorers, &config, &cache, threads)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cold_sweep);
criterion_main!(benches);
