//! Support-threshold sweep benchmark: τ sweeps over a warm coverage cache.
//!
//! The support threshold τ is the single most-swept lattice knob (`repro
//! --experiment table7`, any analyst tuning min-support). Support counts are
//! monotone, so the coverages a loose τ materialized cover every merge a
//! tighter τ' supports: a tighter sweep over a warm coverage cache still
//! counts its failed merges, but materializes nothing. Three arms over
//! German at 10k rows, all scoring with one session's influence backend
//! (statistical parity, first-order estimator, depth 3, ground truth off):
//!
//! * **`cold_per_tau`** — each τ' ∈ {0.05, 0.1, 0.2} sweeps over a fresh
//!   coverage cache (the predicate index is built once, untimed), so it
//!   intersects every supported merge again.
//! * **`coverage_served_per_tau`** — the τ' sweeps share one coverage cache
//!   primed with one τ = 0.02 sweep: each τ' reads its supported coverages
//!   from the cache and adds no coverage miss.
//! * **`warm_full_caches`** — `ExplainSession::explain` with every τ value
//!   primed: the analyst's repeat loop, answered from the session's scored
//!   sweep cache (near-free; this is the arm the ≥5× acceptance criterion
//!   compares against `cold_per_tau`).
//!
//! The first two arms drive `lattice::compute_candidates_multi` directly,
//! as `cold_sweep.rs` does, so they time the sweep alone (no top-k
//! selection). The cold−coverage gap is what the warm coverage cache saves
//! (small under cheap first-order scoring); the cold−warm gap is the whole
//! τ-sweep workload going near-free after one pass.

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_bench::workloads::{prepare, train_lr, DatasetKind};
use gopher_core::{ExplainRequest, ExplainSession, SessionBuilder};
use gopher_influence::{Estimator, InfluenceBackend};
use gopher_models::LogisticRegression;
use gopher_patterns::lattice::compute_candidates_multi;
use gopher_patterns::{BitSet, CoverageCache, PredicateIndex, ScoreFn};

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
    let session = SessionBuilder::new().build(model, &p.train_raw, &p.test_raw);

    // The scorer a cold session request builds, over the session's data.
    let backend = session.backend();
    let req = request(TAU_PRIME);
    let precomp = backend.precompute(req.metric, session.test());
    let scorer = backend.scorer(
        session.train(),
        session.test(),
        req.metric,
        precomp,
        req.estimator,
        req.bias_eval,
    );
    let scorers: Vec<ScoreFn<'_>> = vec![Box::new(|cov: &BitSet| scorer(&cov.to_indices()))];
    let table = session.predicate_table();
    let index = PredicateIndex::build(table, &CoverageCache::new());
    let sweep_taus = |cache: &CoverageCache, taus: &[f64]| {
        for &tau in taus {
            let lattice = request(tau).lattice;
            compute_candidates_multi(table, &scorers, &lattice, cache, &index, session.threads());
        }
    };

    let mut group = c.benchmark_group("support_sweep_german_10k");
    group.sample_size(10);

    // Arm 1: nothing retained — every τ intersects its merges again.
    group.bench_function("cold_per_tau", |b| {
        b.iter(|| {
            for tau in TAUS {
                sweep_taus(&CoverageCache::new(), &[tau]);
            }
        })
    });

    // Arm 2: one coverage cache, primed at the loose τ, so every timed
    // sweep reads its supported coverages from the cache.
    let served = CoverageCache::new();
    sweep_taus(&served, &[TAU_PRIME]);
    let primed = served.stats();
    group.bench_function("coverage_served_per_tau", |b| {
        b.iter(|| sweep_taus(&served, &TAUS))
    });
    let stats = served.stats();
    assert_eq!(
        stats.misses, primed.misses,
        "the timed τ ladder must materialize no coverage: {stats:?}"
    );

    // Arm 3: everything on — the repeat τ-sweep loop hits the scored tier.
    explain_taus(&session, &[TAU_PRIME]);
    explain_taus(&session, &TAUS);
    group.bench_function("warm_full_caches", |b| {
        b.iter(|| explain_taus(&session, &TAUS))
    });
    group.finish();
}

criterion_group!(benches, bench_support_sweep);
criterion_main!(benches);
