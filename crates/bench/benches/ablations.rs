//! Timing ablations for the design choices in DESIGN.md §6:
//! estimator cost (FO vs SO vs Newton), bias-evaluation cost (chain rule vs
//! re-evaluation), and pruning on/off for the lattice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gopher_bench::workloads::{prepare, random_subset, train_lr, DatasetKind};
use gopher_fairness::FairnessMetric;
use gopher_influence::{BiasEval, BiasInfluence, Estimator, InfluenceConfig, InfluenceEngine};
use gopher_patterns::{generate_predicates, lattice, LatticeConfig};
use gopher_prng::Rng;

fn bench_estimators(c: &mut Criterion) {
    let p = prepare(DatasetKind::German, 1_000, 42);
    let model = train_lr(&p);
    let engine = InfluenceEngine::new(model, &p.train, InfluenceConfig::default());
    let mut rng = Rng::new(7);
    let rows = random_subset(p.train.n_rows(), 0.1, &mut rng);

    let mut group = c.benchmark_group("ablation_estimator_cost");
    group.sample_size(20);
    for (name, est) in [
        ("first_order", Estimator::FirstOrder),
        ("second_order", Estimator::SecondOrder),
        ("newton_step", Estimator::NewtonStep),
        ("one_step_gd", Estimator::OneStepGd { learning_rate: 1.0 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &est, |b, &est| {
            b.iter(|| engine.param_change(&p.train, &rows, est));
        });
    }
    group.finish();

    let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &p.test);
    let delta = engine.param_change(&p.train, &rows, Estimator::SecondOrder);
    let mut group = c.benchmark_group("ablation_bias_eval_cost");
    group.sample_size(20);
    for (name, eval) in [
        ("chain_rule", BiasEval::ChainRule),
        ("reeval_smooth", BiasEval::ReEvalSmooth),
        ("reeval_hard", BiasEval::ReEvalHard),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &eval, |b, &eval| {
            b.iter(|| bi.bias_change_from_delta(&delta, eval));
        });
    }
    group.finish();
}

fn bench_pruning(c: &mut Criterion) {
    let p = prepare(DatasetKind::German, 1_000, 42);
    let model = train_lr(&p);
    let engine = InfluenceEngine::new(model, &p.train, InfluenceConfig::default());
    let bi = BiasInfluence::new(&engine, FairnessMetric::StatisticalParity, &p.test);
    let table = generate_predicates(&p.train_raw, 4);

    let mut group = c.benchmark_group("ablation_lattice_pruning");
    group.sample_size(10);
    for (name, prune) in [
        ("responsibility_pruning_on", true),
        ("responsibility_pruning_off", false),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &prune, |b, &prune| {
            let config = LatticeConfig {
                support_threshold: 0.05,
                max_predicates: 3,
                prune_by_responsibility: prune,
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
        });
    }
    group.finish();
}

criterion_group!(benches, bench_estimators, bench_pruning);
criterion_main!(benches);
