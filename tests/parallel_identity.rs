//! Parallel == sequential bit-identity for the session query engine.
//!
//! The parallel execution layer (each lattice level's merge resolution and
//! score pass, ground-truth retrain fan-out) must be invisible in the
//! results: `explain_batch` with `threads = N` answers every request mix
//! exactly as `threads = 1` does — same candidates, same responsibility
//! bits, same stats counts, same response order, and the same session
//! counters. The property test drives random request mixes at both thread
//! counts against identically-built sessions, one solo request per non-LR
//! family pins the other backends, and the timing test additionally checks
//! the wall-clock win on multi-core hosts.

use gopher_core::{ExplainRequest, ExplainResponse, ExplainSession, SessionBuilder, SessionStats};
use gopher_data::generators::german;
use gopher_fairness::FairnessMetric;
use gopher_influence::{BiasEval, Estimator, ModelFamily};
use gopher_models::{Forest, ForestConfig, LinearSvm, LogisticRegression, Mlp};
use gopher_prng::Rng;
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

const DATA_SEED: u64 = 1405;

/// Serializes the timing test against the property test: libtest runs the
/// two in parallel by default, and a proptest case burning cores while the
/// 4-thread arm is being timed would sink the measured speedup. Each
/// proptest case takes the lock briefly; the timing test holds it for its
/// whole measurement.
static CPU_LOCK: Mutex<()> = Mutex::new(());

fn build_session(rows: usize, threads: usize) -> ExplainSession<LogisticRegression> {
    let mut rng = Rng::new(DATA_SEED);
    let (train, test) = german(rows, DATA_SEED).train_test_split(0.3, &mut rng);
    SessionBuilder::new().threads(threads).fit(
        |cols| LogisticRegression::new(cols, 1e-3),
        &train,
        &test,
    )
}

/// One warm session pair shared across property cases (sessions are `Sync`;
/// cache state cannot affect results, which is itself part of the property).
fn sessions() -> &'static (
    ExplainSession<LogisticRegression>,
    ExplainSession<LogisticRegression>,
) {
    static SESSIONS: OnceLock<(
        ExplainSession<LogisticRegression>,
        ExplainSession<LogisticRegression>,
    )> = OnceLock::new();
    SESSIONS.get_or_init(|| (build_session(300, 1), build_session(300, 4)))
}

/// Decodes one drawn request spec into an [`ExplainRequest`].
fn request_from(spec: (u64, u64, u64, u64)) -> ExplainRequest {
    let (metric, k, estimator, knobs) = spec;
    let metric = [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualOpportunity,
        FairnessMetric::PredictiveParity,
        FairnessMetric::AverageOdds,
    ][metric as usize % 4];
    // `estimator` packs the estimator and the bias evaluation.
    let bias_eval = [
        BiasEval::ChainRule,
        BiasEval::ReEvalSmooth,
        BiasEval::ReEvalHard,
    ][(estimator / 4) as usize % 3];
    let estimator = [
        Estimator::SecondOrder,
        Estimator::FirstOrder,
        Estimator::NewtonStep,
        Estimator::OneStepGd { learning_rate: 0.5 },
    ][estimator as usize % 4];
    // `knobs` packs support choice, depth, and the (expensive, so rarer)
    // ground-truth flag.
    let support = [0.04, 0.06, 0.1][(knobs % 3) as usize];
    let depth = 2 + (knobs / 3) % 2; // 2 or 3
    let ground_truth = knobs % 8 == 0;
    let mut request = ExplainRequest::default()
        .with_metric(metric)
        .with_k(1 + (k as usize % 3))
        .with_estimator(estimator)
        .with_support_threshold(support)
        .with_max_predicates(depth as usize)
        .with_ground_truth(ground_truth);
    request.bias_eval = bias_eval;
    request
}

/// Asserts two responses agree bit for bit: report scalars, search-stats
/// counts, and every explanation's pattern, support, responsibilities, and
/// ground truth.
fn assert_responses_identical(s: &ExplainResponse, p: &ExplainResponse) {
    assert_eq!(s.report.base_bias.to_bits(), p.report.base_bias.to_bits());
    assert_eq!(s.report.accuracy.to_bits(), p.report.accuracy.to_bits());
    assert_eq!(s.report.stats.total_scored, p.report.stats.total_scored);
    assert_eq!(s.report.stats.levels.len(), p.report.stats.levels.len());
    for (sl, pl) in s.report.stats.levels.iter().zip(&p.report.stats.levels) {
        assert_eq!(
            (sl.level, sl.generated, sl.kept),
            (pl.level, pl.generated, pl.kept)
        );
    }
    assert_eq!(s.report.explanations.len(), p.report.explanations.len());
    for (se, pe) in s.report.explanations.iter().zip(&p.report.explanations) {
        assert_eq!(se.pattern_text, pe.pattern_text);
        assert_eq!(se.support.to_bits(), pe.support.to_bits());
        assert_eq!(
            se.est_responsibility.to_bits(),
            pe.est_responsibility.to_bits()
        );
        assert_eq!(
            se.candidate.interestingness.to_bits(),
            pe.candidate.interestingness.to_bits()
        );
        assert_eq!(
            se.ground_truth_responsibility.map(f64::to_bits),
            pe.ground_truth_responsibility.map(f64::to_bits)
        );
    }
}

/// One solo cold request on German-300 at depth 2, answered by sessions of
/// one family at 1, 2, and 8 threads. The model is trained once and shared,
/// so the sessions differ only in their thread count.
fn assert_family_thread_count_invariant<M: ModelFamily>(make_model: impl FnOnce(usize) -> M) {
    let mut rng = Rng::new(DATA_SEED);
    let (train, test) = german(300, DATA_SEED).train_test_split(0.3, &mut rng);
    let request = ExplainRequest::default()
        .with_max_predicates(2)
        .with_k(2)
        .with_ground_truth(true);
    let _cpu = CPU_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sequential = SessionBuilder::new()
        .threads(1)
        .fit(make_model, &train, &test);
    let reference = sequential.explain(&request);
    assert!(reference.report.base_bias.abs() > 1e-12);
    assert!(!reference.report.explanations.is_empty());
    for threads in [2, 8] {
        let parallel =
            SessionBuilder::new()
                .threads(threads)
                .build(sequential.model().clone(), &train, &test);
        assert_responses_identical(&reference, &parallel.explain(&request));
    }
}

#[test]
fn svm_solo_request_is_thread_count_invariant() {
    assert_family_thread_count_invariant(|cols| LinearSvm::new(cols, 1e-3));
}

#[test]
fn mlp_solo_request_is_thread_count_invariant() {
    assert_family_thread_count_invariant(|cols| {
        Mlp::new(cols, 4, 1e-3, &mut Rng::new(DATA_SEED + 1))
    });
}

#[test]
fn forest_solo_request_is_thread_count_invariant() {
    assert_family_thread_count_invariant(|cols| {
        Forest::new(
            cols,
            ForestConfig {
                n_trees: 4,
                ..ForestConfig::default()
            },
        )
    });
}

proptest! {
    #[test]
    fn explain_batch_is_thread_count_invariant(
        specs in proptest::collection::vec((0u64..4, 0u64..4, 0u64..12, 0u64..16), 1..6)
    ) {
        let requests: Vec<ExplainRequest> = specs.into_iter().map(request_from).collect();
        let _cpu = CPU_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (sequential, parallel) = sessions();
        let seq = sequential.explain_batch(&requests);
        let par = parallel.explain_batch(&requests);
        prop_assert_eq!(seq.len(), requests.len());
        prop_assert_eq!(seq.len(), par.len());
        for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
            // Response order: each response echoes its request.
            prop_assert_eq!(s.request.metric, requests[i].metric);
            prop_assert_eq!(p.request.metric, requests[i].metric);
            // Report scalars, bit for bit.
            prop_assert_eq!(s.report.metric, p.report.metric);
            prop_assert_eq!(s.report.base_bias.to_bits(), p.report.base_bias.to_bits());
            prop_assert_eq!(s.report.accuracy.to_bits(), p.report.accuracy.to_bits());
            // Search stats counts (durations are wall-clock and may differ,
            // but must be populated under fan-out — see below).
            prop_assert_eq!(s.report.stats.total_scored, p.report.stats.total_scored);
            prop_assert_eq!(s.report.stats.levels.len(), p.report.stats.levels.len());
            for (sl, pl) in s.report.stats.levels.iter().zip(&p.report.stats.levels) {
                prop_assert_eq!(
                    (sl.level, sl.generated, sl.kept),
                    (pl.level, pl.generated, pl.kept)
                );
                if pl.generated > 0 {
                    prop_assert!(
                        pl.duration > Duration::ZERO,
                        "fanned-out level {} lost its duration",
                        pl.level
                    );
                }
            }
            // Explanations: candidates, responsibilities, ground truth.
            prop_assert_eq!(s.report.explanations.len(), p.report.explanations.len());
            for (se, pe) in s.report.explanations.iter().zip(&p.report.explanations) {
                prop_assert_eq!(&se.pattern_text, &pe.pattern_text);
                prop_assert_eq!(se.candidate.pattern.ids(), pe.candidate.pattern.ids());
                prop_assert_eq!(se.support.to_bits(), pe.support.to_bits());
                prop_assert_eq!(
                    se.est_responsibility.to_bits(),
                    pe.est_responsibility.to_bits()
                );
                prop_assert_eq!(
                    se.candidate.interestingness.to_bits(),
                    pe.candidate.interestingness.to_bits()
                );
                prop_assert_eq!(
                    se.ground_truth_responsibility.map(f64::to_bits),
                    pe.ground_truth_responsibility.map(f64::to_bits)
                );
                prop_assert_eq!(
                    se.ground_truth_new_bias.map(f64::to_bits),
                    pe.ground_truth_new_bias.map(f64::to_bits)
                );
            }
        }
        // Every cache counter repeats exactly: only the thread count and the
        // wall-clock latency quantiles may differ.
        let comparable = |stats: SessionStats| SessionStats {
            threads: 0,
            explain_p50_us: 0,
            explain_p99_us: 0,
            ..stats
        };
        prop_assert_eq!(comparable(sequential.stats()), comparable(parallel.stats()));
    }
}

/// The acceptance workload: an 8-request mixed-metric batch on German 1k,
/// ground truth on. Always asserts bit-identity between 4 worker threads
/// and the sequential path; on hosts with ≥ 4 cores it additionally asserts
/// the ≥2× wall-clock win (skipped on smaller machines, where the fan-out
/// has no hardware to use — the bench records the measured numbers either
/// way).
#[test]
fn mixed_metric_batch_of_8_is_identical_and_faster_with_4_threads() {
    let metrics = [
        FairnessMetric::StatisticalParity,
        FairnessMetric::EqualOpportunity,
        FairnessMetric::PredictiveParity,
        FairnessMetric::AverageOdds,
    ];
    let requests: Vec<ExplainRequest> = metrics
        .iter()
        .flat_map(|&m| {
            [
                ExplainRequest::default()
                    .with_metric(m)
                    .with_k(2)
                    .with_ground_truth(true),
                ExplainRequest::default()
                    .with_metric(m)
                    .with_estimator(Estimator::FirstOrder)
                    .with_k(2)
                    .with_ground_truth(true),
            ]
        })
        .collect();
    assert_eq!(requests.len(), 8);

    let _cpu = CPU_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sequential = build_session(1_000, 1);
    let parallel = build_session(1_000, 4);

    let t0 = Instant::now();
    let seq = sequential.explain_batch(&requests);
    let t_seq = t0.elapsed();
    let t0 = Instant::now();
    let par = parallel.explain_batch(&requests);
    let t_par = t0.elapsed();

    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.report.base_bias.to_bits(), p.report.base_bias.to_bits());
        assert_eq!(s.report.stats.total_scored, p.report.stats.total_scored);
        assert_eq!(s.report.explanations.len(), p.report.explanations.len());
        for (se, pe) in s.report.explanations.iter().zip(&p.report.explanations) {
            assert_eq!(se.pattern_text, pe.pattern_text);
            assert_eq!(
                se.est_responsibility.to_bits(),
                pe.est_responsibility.to_bits()
            );
            assert_eq!(
                se.ground_truth_responsibility.map(f64::to_bits),
                pe.ground_truth_responsibility.map(f64::to_bits)
            );
        }
    }

    let cores = gopher_par::available_parallelism();
    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    println!(
        "8-request batch: sequential {:.1} ms, 4 threads {:.1} ms ({speedup:.2}x, {cores} cores)",
        t_seq.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3
    );
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >=2x on a {cores}-core host, got {speedup:.2}x \
             (sequential {t_seq:?}, parallel {t_par:?})"
        );
    }
}
