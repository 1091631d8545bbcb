//! Acceptance tests for the staged lattice sweep engine: the parallel
//! level pipeline must be invisible in results (bit-identical at any
//! thread count), every coverage it materializes must be exact, a sweep
//! over a warm coverage cache — another metric, or a tighter support
//! threshold — must answer bit-identically to a cold one, and on
//! multi-core hosts the parallel pipeline must actually be faster.

use gopher_core::{ExplainRequest, SessionBuilder};
use gopher_data::generators::german;
use gopher_fairness::FairnessMetric;
use gopher_models::LogisticRegression;
use gopher_patterns::lattice::{compute_candidates_multi, LatticeConfig};
use gopher_patterns::{
    generate_predicates, min_count_for, BitSet, Candidate, CoverageCache, PredicateTable, ScoreFn,
    SearchStats,
};
use gopher_prng::Rng;
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Serializes the timing test against the property test (PR-3 style): a
/// proptest case burning cores while the 4-thread arm is being timed would
/// sink the measured speedup.
static CPU_LOCK: Mutex<()> = Mutex::new(());

/// One shared 300-row table for the property cases (pattern structure is a
/// pure function of the data; each case builds fresh caches).
fn table() -> &'static (gopher_data::Dataset, PredicateTable) {
    static TABLE: OnceLock<(gopher_data::Dataset, PredicateTable)> = OnceLock::new();
    TABLE.get_or_init(|| {
        let d = german(300, 1406);
        let table = generate_predicates(&d, 4);
        (d, table)
    })
}

/// Three deliberately different deterministic scorers, so frontiers diverge
/// and per-scorer pruning differs: positive-label rate, privileged rate,
/// and an alternating mix.
fn make_scorer<'a>(
    kind: u64,
    labels: &'a [u8],
    privileged: &'a [bool],
) -> impl Fn(&BitSet) -> f64 + Send + Sync + 'a {
    move |cov: &BitSet| {
        let total = cov.count().max(1) as f64;
        match kind % 3 {
            0 => {
                cov.iter()
                    .map(|r| labels[r as usize] as usize)
                    .sum::<usize>() as f64
                    / total
            }
            1 => {
                cov.iter()
                    .map(|r| privileged[r as usize] as usize)
                    .sum::<usize>() as f64
                    / total
            }
            _ => {
                cov.iter()
                    .map(|r| (labels[r as usize] == 1) as usize + privileged[r as usize] as usize)
                    .sum::<usize>() as f64
                    / (2.0 * total)
            }
        }
    }
}

/// Runs one staged multi-sweep with a fresh cache and returns each scorer's
/// results plus the cache, for auditing.
fn run_sweep(
    table: &PredicateTable,
    config: &LatticeConfig,
    scorer_kinds: &[u64],
    labels: &[u8],
    privileged: &[bool],
    threads: usize,
) -> (Vec<(Vec<Candidate>, SearchStats)>, CoverageCache) {
    let cache = CoverageCache::new();
    let scorers: Vec<ScoreFn<'_>> = scorer_kinds
        .iter()
        .map(|&k| Box::new(make_scorer(k, labels, privileged)) as ScoreFn<'_>)
        .collect();
    let results = compute_candidates_multi(table, &scorers, config, &cache, threads);
    (results, cache)
}

/// A merged pattern's coverage recomputed from scratch by intersecting its
/// predicates' table coverages — the audit oracle.
fn exact_coverage(table: &PredicateTable, ids: &[u16]) -> BitSet {
    let mut cov = BitSet::clone(table.coverage(ids[0]));
    for &id in &ids[1..] {
        cov = cov.and(table.coverage(id));
    }
    cov
}

proptest! {
    /// The acceptance property: the structural phase at `threads = 4` is
    /// bit-identical to `threads = 1` — candidates, coverage bits, supports,
    /// responsibilities, stats counts, and per-scorer result order — across
    /// random structural configurations and scorer mixes; and every merged
    /// coverage either run materialized is exact and supported (audited
    /// against from-scratch intersections).
    #[test]
    fn structural_phase_is_thread_count_invariant(
        support_choice in 0usize..3,
        depth in 2usize..4,
        prune_bit in 0u64..2,
        kinds in proptest::collection::vec(0u64..3, 1..4),
    ) {
        let (d, table) = table();
        let labels = d.labels();
        let privileged = d.privileged_mask();
        // Unpruned deep lattices explode combinatorially, so the prune-off
        // arm keeps a higher support floor than the pruned one.
        let support = if prune_bit == 0 {
            [0.08, 0.1, 0.15][support_choice]
        } else {
            [0.04, 0.06, 0.1][support_choice]
        };
        let config = LatticeConfig {
            support_threshold: support,
            max_predicates: depth,
            prune_by_responsibility: prune_bit == 1,
        };
        let _cpu = CPU_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (serial, cache_1) =
            run_sweep(table, &config, &kinds, labels, &privileged, 1);
        let (parallel, cache_4) =
            run_sweep(table, &config, &kinds, labels, &privileged, 4);

        prop_assert_eq!(serial.len(), parallel.len());
        // One level pipeline at every thread count: both materialize exactly
        // the supported merges the scorers' frontiers generate.
        prop_assert_eq!(cache_4.len(), cache_1.len());
        // Coverage audit: every merged entry, for the candidates and for
        // every level-2 pair, holds the exact intersection and meets the
        // support count; unsupported pairs have no entry.
        let min_count = min_count_for(config.support_threshold, d.n_rows());
        let supported: Vec<u16> = (0..table.len() as u16)
            .filter(|&id| table.coverage(id).count() >= min_count)
            .collect();
        let pairs: Vec<Vec<u16>> = supported
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| supported[i + 1..].iter().map(move |&b| vec![a, b]))
            .collect();
        for (cache, results) in [(&cache_1, &serial), (&cache_4, &parallel)] {
            let merged = results
                .iter()
                .flat_map(|(cands, _)| cands)
                .filter(|c| c.pattern.len() >= 2);
            for c in merged {
                let ids = c.pattern.ids();
                let cached = cache.peek(ids);
                prop_assert!(cached.is_some(), "candidate {:?} has no cached coverage", ids);
                prop_assert!(
                    *cached.unwrap() == exact_coverage(table, ids),
                    "coverage bits of {:?}",
                    ids
                );
            }
            // A pair may lack an entry (unsupported or conflicting), but an
            // entry is always exact and supported.
            for ids in &pairs {
                if let Some(coverage) = cache.peek(ids) {
                    let truth = exact_coverage(table, ids);
                    prop_assert!(*coverage == truth, "coverage bits of {:?}", ids);
                    prop_assert!(truth.count() >= min_count, "support of {:?}", ids);
                }
            }
        }
        for ((sc, ss), (pc, ps)) in serial.iter().zip(&parallel) {
            prop_assert_eq!(sc.len(), pc.len());
            for (a, b) in sc.iter().zip(pc) {
                prop_assert_eq!(a.pattern.ids(), b.pattern.ids());
                prop_assert_eq!(a.coverage.as_ref(), b.coverage.as_ref());
                prop_assert_eq!(a.support.to_bits(), b.support.to_bits());
                prop_assert_eq!(a.responsibility.to_bits(), b.responsibility.to_bits());
                prop_assert_eq!(a.interestingness.to_bits(), b.interestingness.to_bits());
            }
            prop_assert_eq!(ss.total_scored, ps.total_scored);
            prop_assert_eq!(ss.levels.len(), ps.levels.len());
            for (sl, pl) in ss.levels.iter().zip(&ps.levels) {
                prop_assert_eq!(
                    (sl.level, sl.generated, sl.kept),
                    (pl.level, pl.generated, pl.kept)
                );
            }
        }
    }
}

proptest! {
    /// The τ-monotone acceptance property: a sweep at a tighter support
    /// count over a coverage cache warmed at a looser one is bit-identical
    /// to a cold sweep, and materializes no coverage (adds no cache miss) —
    /// at 1 and 4 threads, across depths, pruning modes, and scorers.
    /// Support is anti-monotone, and up to depth 3 the tighter sweep's
    /// frontiers are subsets of the looser one's, so every
    /// merge it supports was supported, and materialized, at the looser τ.
    #[test]
    fn refiltered_view_sweeps_bit_identical_to_cold_build(
        pair_choice in 0usize..3,
        depth in 2usize..4,
        prune_bit in 0u64..2,
        kind in 0u64..3,
        thread_choice in 0usize..2,
    ) {
        let (d, table) = table();
        let labels = d.labels();
        let privileged = d.privileged_mask();
        let (tau_loose, tau_tight) = [(0.04, 0.08), (0.05, 0.12), (0.06, 0.2)][pair_choice];
        let threads = [1usize, 4][thread_choice];
        let loose_cfg = LatticeConfig {
            support_threshold: tau_loose,
            max_predicates: depth,
            prune_by_responsibility: prune_bit == 1,
        };
        let tight_cfg = LatticeConfig {
            support_threshold: tau_tight,
            ..loose_cfg.clone()
        };
        let _cpu = CPU_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        let run = |config: &LatticeConfig, cache: &CoverageCache| {
            let scorers: Vec<ScoreFn<'_>> = vec![Box::new(make_scorer(kind, labels, &privileged))];
            compute_candidates_multi(table, &scorers, config, cache, threads)
                .pop()
                .unwrap()
        };
        // A sweep at the loose τ warms the cache.
        let warm_cache = CoverageCache::new();
        run(&loose_cfg, &warm_cache);
        let misses_before = warm_cache.stats().misses;
        let (warm_cands, warm_stats) = run(&tight_cfg, &warm_cache);
        prop_assert_eq!(warm_cache.stats().misses, misses_before);

        let (cold_cands, cold_stats) = run(&tight_cfg, &CoverageCache::new());
        prop_assert_eq!(warm_cands.len(), cold_cands.len());
        for (a, b) in warm_cands.iter().zip(&cold_cands) {
            prop_assert_eq!(a.pattern.ids(), b.pattern.ids());
            prop_assert_eq!(a.coverage.as_ref(), b.coverage.as_ref());
            prop_assert_eq!(a.support.to_bits(), b.support.to_bits());
            prop_assert_eq!(a.responsibility.to_bits(), b.responsibility.to_bits());
        }
        prop_assert_eq!(warm_stats.total_scored, cold_stats.total_scored);
        prop_assert_eq!(warm_stats.levels.len(), cold_stats.levels.len());
        for (w, c) in warm_stats.levels.iter().zip(&cold_stats.levels) {
            prop_assert_eq!((w.level, w.generated, w.kept), (c.level, c.generated, c.kept));
        }
    }
}

/// The warm-reuse acceptance property: a session that already swept one
/// metric answers a *different* metric bit-identically to a cold session —
/// and the coverage-cache hit counter proves the second sweep read the
/// coverages the first one materialized instead of intersecting again.
#[test]
fn warm_second_metric_matches_cold_session_via_coverage_cache() {
    let build = || {
        let mut rng = Rng::new(1407);
        let (train, test) = german(600, 1407).train_test_split(0.3, &mut rng);
        SessionBuilder::new().threads(1).fit(
            |cols| LogisticRegression::new(cols, 1e-3),
            &train,
            &test,
        )
    };
    let sp = ExplainRequest::default().with_ground_truth(false);
    let eo = ExplainRequest::default()
        .with_metric(FairnessMetric::EqualOpportunity)
        .with_ground_truth(false);

    let warm_session = build();
    let _ = warm_session.explain(&sp); // populates the coverage cache
    let warm = warm_session.explain(&eo); // second metric, same structure
    let cold = build().explain(&eo);

    // Bit-identical reports.
    assert_eq!(
        warm.report.base_bias.to_bits(),
        cold.report.base_bias.to_bits()
    );
    assert_eq!(
        warm.report.stats.total_scored,
        cold.report.stats.total_scored
    );
    assert_eq!(
        warm.report.stats.levels.len(),
        cold.report.stats.levels.len()
    );
    for (w, c) in warm
        .report
        .stats
        .levels
        .iter()
        .zip(&cold.report.stats.levels)
    {
        assert_eq!(
            (w.level, w.generated, w.kept),
            (c.level, c.generated, c.kept)
        );
    }
    assert_eq!(
        warm.report.explanations.len(),
        cold.report.explanations.len()
    );
    assert!(!warm.report.explanations.is_empty());
    for (w, c) in warm
        .report
        .explanations
        .iter()
        .zip(&cold.report.explanations)
    {
        assert_eq!(w.pattern_text, c.pattern_text);
        assert_eq!(w.support.to_bits(), c.support.to_bits());
        assert_eq!(
            w.est_responsibility.to_bits(),
            c.est_responsibility.to_bits()
        );
        assert_eq!(
            w.candidate.interestingness.to_bits(),
            c.candidate.interestingness.to_bits()
        );
    }

    // The counters prove the reuse: two scored misses (distinct metrics),
    // and coverage hits from the second sweep, which walks the same level-2
    // merges as the first (a single cold sweep reads nothing back).
    let stats = warm_session.stats();
    assert_eq!(stats.sweep_misses, 2);
    assert!(stats.coverage_hits > 0, "{stats:?}");
}

/// The multi-core acceptance check: a cold single-scorer sweep over German
/// at 10k rows must show a measured speedup at 4 threads on hosts with >= 4
/// cores. On smaller machines the arms converge and only bit-identity is
/// asserted; the `cold_sweep` bench records the numbers either way.
#[test]
fn cold_structural_pass_speeds_up_on_multicore_hosts() {
    let d = german(10_000, 1408);
    let table = generate_predicates(&d, 4);
    let labels = d.labels().to_vec();
    let privileged = d.privileged_mask();
    // Support-only pruning and a deep lattice make the structural phase the
    // dominant cost.
    let config = LatticeConfig {
        support_threshold: 0.02,
        max_predicates: 3,
        prune_by_responsibility: false,
    };

    let _cpu = CPU_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let time_arm = |threads: usize| {
        let t0 = Instant::now();
        let (results, _) = run_sweep(&table, &config, &[0], &labels, &privileged, threads);
        let wall = t0.elapsed();
        let (candidates, stats) = results.into_iter().next().unwrap();
        (candidates, stats.structural_time(), wall)
    };
    // With a trivial scorer, the sweep's wall clock is mostly the
    // structural work, which every level times as its structural phase at
    // any thread count.
    let (serial_cands, serial_structural, serial_wall) = time_arm(1);
    let (parallel_cands, parallel_structural, parallel_wall) = time_arm(4);

    assert_eq!(serial_cands.len(), parallel_cands.len());
    for (a, b) in serial_cands.iter().zip(&parallel_cands) {
        assert_eq!(a.pattern.ids(), b.pattern.ids());
        assert_eq!(a.responsibility.to_bits(), b.responsibility.to_bits());
    }
    assert!(
        serial_structural.as_nanos() > 0 && parallel_structural.as_nanos() > 0,
        "both arms must report their structural-phase cost"
    );

    let cores = gopher_par::available_parallelism();
    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
    println!(
        "10k-row cold sweep: 1 thread {:.1} ms, 4 threads {:.1} ms (of which structural \
         {:.1} ms) — {speedup:.2}x on {cores} cores",
        serial_wall.as_secs_f64() * 1e3,
        parallel_wall.as_secs_f64() * 1e3,
        parallel_structural.as_secs_f64() * 1e3
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "expected >=1.5x cold-sweep speedup on a {cores}-core host, got \
             {speedup:.2}x (serial {serial_wall:?}, parallel {parallel_wall:?})"
        );
    }
}
