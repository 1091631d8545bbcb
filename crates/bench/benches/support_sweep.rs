//! Support-threshold sweep benchmark: τ sweeps over a warm coverage cache.
//!
//! The support threshold τ is the single most-swept lattice knob (`repro
//! --experiment table7`, any analyst tuning min-support). Support counts are
//! monotone, so the coverages a loose τ materialized cover every merge a
//! tighter τ' supports: a tighter sweep over the session's coverage cache
//! still counts its failed merges, but materializes nothing. Three arms over
//! German at 10k rows, all driving `ExplainSession` (statistical parity,
//! first-order estimator, depth 3, ground truth off):
//!
//! * **`cold_per_tau`** — scored-sweep and coverage retention at zero, so
//!   each τ' ∈ {0.05, 0.1, 0.2} intersects every supported merge again.
//! * **`coverage_served_per_tau`** — scored-sweep retention off (each query
//!   re-scores, so the measured path is real sweep work, not a memo), the
//!   coverage cache on and primed with one τ = 0.02 sweep: each τ' reads
//!   its supported coverages from the cache and adds no coverage miss.
//! * **`warm_full_caches`** — all caches on, all four τ values primed: the
//!   analyst's repeat loop, answered from the scored tier (near-free; this
//!   is the arm the ≥5× acceptance criterion compares against `cold_per_tau`).
//!
//! The cold−coverage gap is what the warm coverage cache saves (small under
//! cheap first-order scoring); the cold−warm gap is the whole τ-sweep
//! workload going near-free after one pass.

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_bench::workloads::{prepare, train_lr, DatasetKind};
use gopher_core::{ExplainRequest, ExplainSession, SessionBuilder};
use gopher_influence::Estimator;
use gopher_models::LogisticRegression;

/// The τ ladder: one loose prime plus the three tighter sweeps the timed
/// arms answer.
const TAU_PRIME: f64 = 0.02;
const TAUS: [f64; 3] = [0.05, 0.1, 0.2];

fn request(tau: f64) -> ExplainRequest {
    ExplainRequest::default()
        .with_support_threshold(tau)
        .with_max_predicates(3)
        .with_estimator(Estimator::FirstOrder)
        .with_ground_truth(false)
}

fn explain_taus(session: &ExplainSession<LogisticRegression>, taus: &[f64]) {
    for &tau in taus {
        let _ = session.explain(&request(tau));
    }
}

fn bench_support_sweep(c: &mut Criterion) {
    let p = prepare(DatasetKind::German, 10_000, 42);
    let model = train_lr(&p);

    let mut group = c.benchmark_group("support_sweep_german_10k");
    group.sample_size(10);

    // Arm 1: nothing retained — every τ intersects its merges again.
    let cold = SessionBuilder::new()
        .sweep_cache_cap(0)
        .coverage_cache_cap(0)
        .build(model.clone(), &p.train_raw, &p.test_raw);
    group.bench_function("cold_per_tau", |b| b.iter(|| explain_taus(&cold, &TAUS)));

    // Arm 2: coverage cache on, scored retention off; primed at the loose
    // τ, so every timed sweep reads its supported coverages from the cache.
    let served =
        SessionBuilder::new()
            .sweep_cache_cap(0)
            .build(model.clone(), &p.train_raw, &p.test_raw);
    explain_taus(&served, &[TAU_PRIME]);
    let primed = served.stats();
    group.bench_function("coverage_served_per_tau", |b| {
        b.iter(|| explain_taus(&served, &TAUS))
    });
    let stats = served.stats();
    assert_eq!(
        stats.coverage_misses, primed.coverage_misses,
        "the timed τ ladder must materialize no coverage: {stats:?}"
    );

    // Arm 3: everything on — the repeat τ-sweep loop hits the scored tier.
    let warm = SessionBuilder::new().build(model, &p.train_raw, &p.test_raw);
    explain_taus(&warm, &[TAU_PRIME]);
    explain_taus(&warm, &TAUS);
    group.bench_function("warm_full_caches", |b| {
        b.iter(|| explain_taus(&warm, &TAUS))
    });
    group.finish();
}

criterion_group!(benches, bench_support_sweep);
criterion_main!(benches);
