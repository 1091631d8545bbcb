//! SQF-scale bench tier: the paper's headline regime (hundreds of
//! thousands of stop-question-frisk rows) instead of the German/Adult
//! 1k–10k rows everything else is tuned on.
//!
//! Two families of arms:
//!
//! * **`scale_sqf_{100k,500k,1m}/cold_sweep`** — one cold staged sweep per
//!   iteration (fresh coverage cache over a prebuilt predicate table) over
//!   synthetic SQF at 100k/500k/1M rows,
//!   support τ = 0.1, depth 3, responsibility pruning off, one cheap
//!   count-based scorer so the structural merge pass (an exact fused
//!   `and_count` per merge) dominates the measurement.
//! * **`scale_sqf_session_100k/second_order_cold_explain`** — a cold
//!   sweep at SQF-100k scored *second-order* by a session's influence
//!   backend, over a fresh coverage cache per iteration, so each
//!   iteration pays the full sweep. After timing, the sweep's per-level
//!   timings re-measure the structural share at scale (German-10k/first-order
//!   put it at ~2%; tune structural work where it actually costs).

use criterion::{criterion_group, criterion_main, Criterion};
use gopher_bench::workloads::{prepare, train_lr, DatasetKind};
use gopher_core::{ExplainRequest, SessionBuilder};
use gopher_data::generators::sqf;
use gopher_influence::{Estimator, InfluenceBackend};
use gopher_patterns::lattice::{compute_candidates_multi, LatticeConfig};
use gopher_patterns::{generate_predicates, BitSet, CoverageCache, PredicateTable, ScoreFn};

/// (rows, label, timed samples) — samples shrink as the sweeps grow.
const SIZES: [(usize, &str, usize); 3] = [
    (100_000, "100k", 7),
    (500_000, "500k", 5),
    (1_000_000, "1m", 4),
];

fn config() -> LatticeConfig {
    LatticeConfig {
        support_threshold: 0.1,
        max_predicates: 3,
        prune_by_responsibility: false,
    }
}

/// One cold staged sweep over a prebuilt predicate table: fresh coverage
/// cache per call, one cheap scorer. The table (predicate materialization —
/// data prep) is built once per size outside the timed region, so the
/// measurement is the structural merge pass plus scoring. Returns the
/// number of candidates scored.
fn cold_sweep(table: &PredicateTable, n_rows: usize) -> usize {
    let cache = CoverageCache::new();
    // Density scoring: one popcount per candidate, so merge resolution
    // dominates the arm instead of a per-row scoring loop.
    let scorer = |cov: &BitSet| cov.count() as f64 / n_rows as f64;
    let scorers: Vec<ScoreFn<'_>> = vec![Box::new(scorer)];
    let mut results = compute_candidates_multi(table, &scorers, &config(), &cache, 1);
    let (_, stats) = results.pop().expect("one scorer in, one result out");
    stats.total_scored
}

fn bench_cold_sweeps(c: &mut Criterion) {
    for (n, label, samples) in SIZES {
        let d = sqf(n, 7);
        let table = generate_predicates(&d, 4);
        println!("{label}: {} candidates scored", cold_sweep(&table, n));

        let mut group = c.benchmark_group(format!("scale_sqf_{label}"));
        group.sample_size(samples);
        group.bench_function("cold_sweep", |b| b.iter(|| cold_sweep(&table, n)));
        group.finish();
    }
}

fn bench_session_second_order(c: &mut Criterion) {
    let p = prepare(DatasetKind::Sqf, 100_000, 42);
    let model = train_lr(&p);
    let session = SessionBuilder::new()
        .threads(2)
        .build(model, &p.train_raw, &p.test_raw);
    let request = ExplainRequest::default()
        .with_support_threshold(0.1)
        .with_max_predicates(3)
        .with_estimator(Estimator::SecondOrder)
        .with_ground_truth(false);
    // The scorer a cold session request builds. Every sweep starts from a
    // fresh coverage cache, so the timed loop is the real second-order
    // workload, not a cache memo. Each level's stats time its structural
    // phase apart from scoring at any thread count.
    let backend = session.backend();
    let scorer = backend.scorer(
        session.train(),
        session.test(),
        request.metric,
        backend.precompute(request.metric, session.test()),
        request.estimator,
        request.bias_eval,
    );
    let scorers: Vec<ScoreFn<'_>> = vec![Box::new(|cov: &BitSet| scorer(&cov.to_indices()))];
    let table = session.predicate_table();
    let cold_sweep = || {
        let cache = CoverageCache::new();
        let mut results =
            compute_candidates_multi(table, &scorers, &request.lattice, &cache, session.threads());
        results.pop().expect("one scorer in, one result out").1
    };

    let mut group = c.benchmark_group("scale_sqf_session_100k");
    group.sample_size(3);
    group.bench_function("second_order_cold_explain", |b| b.iter(cold_sweep));
    group.finish();

    // Structural-share re-measurement at scale (the ROADMAP number).
    let stats = cold_sweep();
    let structural: f64 = stats
        .levels
        .iter()
        .map(|l| l.structural.as_secs_f64())
        .sum();
    let total: f64 = stats.levels.iter().map(|l| l.duration.as_secs_f64()).sum();
    println!(
        "structural share at SQF-100k/second-order: {:.1}% ({:.3}s of {:.3}s)",
        100.0 * structural / total,
        structural,
        total
    );
}

criterion_group!(benches, bench_cold_sweeps, bench_session_second_order);
criterion_main!(benches);
