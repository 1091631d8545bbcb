//! `analyst-german10k`: the paper's interactive loop. One caller asks
//! distinct cold questions of an in-process LR session on German-10k with
//! the library defaults (second-order, k = 3, ground truth on), cycling
//! the four metrics with a seeded support threshold in `[0.05, 0.06)`.

use crate::probes::{self, CacheCounts, SweepLayers};
use crate::stats::median;
use crate::streams::{analyst_questions, METRICS};
use crate::trace::NO_SPAN;
use crate::{ms, split, Ctx, THREADS};
use gopher_repro::prelude::*;
use std::time::Instant;

/// Rows generated; 70 % train.
const ROWS: usize = 10_000;
/// Seed of the German generator and of the train/test split.
const DATA_SEED: u64 = 20_22;
/// `SessionBuilder::fit` builds timed for `setup_s`, this many before the
/// questions and as many after them. A build takes tens of ms, so builds
/// in one burst all see the same moment of host speed; two bursts a run
/// apart give a median that moves with the host as the questions do.
const SETUP_BUILDS: usize = 5;

fn lr(cols: usize) -> LogisticRegression {
    LogisticRegression::new(cols, 1e-3)
}

/// Times [`SETUP_BUILDS`] session builds, appending to `times`; returns
/// the last session.
fn timed_builds(
    train: &Dataset,
    test: &Dataset,
    times: &mut Vec<f64>,
) -> ExplainSession<LogisticRegression> {
    let mut last = None;
    for _ in 0..SETUP_BUILDS {
        let t = Instant::now();
        let session = SessionBuilder::new().threads(THREADS).fit(lr, train, test);
        times.push(t.elapsed().as_secs_f64());
        last = Some(session);
    }
    last.expect("SETUP_BUILDS is positive")
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (train, test) = split(&german(ROWS, DATA_SEED), DATA_SEED);
    let n_train = train.n_rows();

    let mut builds = Vec::new();
    let mut session = timed_builds(&train, &test, &mut builds);
    // Lazy per-metric set-up (bias gradients) finishes before timing.
    for (metric, _) in METRICS {
        session.base_bias(metric);
    }
    ctx.setup_done();

    let questions = analyst_questions(ctx.opts.seed, n_train);
    let before = CacheCounts::read(&probes::counters(&session));
    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    let mut sweeps = SweepLayers::default();
    let start = Instant::now();
    for (i, q) in questions.iter().enumerate() {
        if start.elapsed() >= ctx.budget() {
            break;
        }
        let request = ExplainRequest::default()
            .with_metric(METRICS[q.metric].0)
            .with_support_threshold(q.tau);
        ctx.report.attempted += 1;
        let op = ctx.tracer.open("bench.question", i as u64, NO_SPAN);
        let span = ctx.tracer.open("core.explain", i as u64, op);
        let t = Instant::now();
        let response = session.explain(&request);
        let took = t.elapsed();
        ctx.tracer.close(span);
        sweeps.add(&response.report.stats);
        latencies.push(ms(took));
        ctx.tracer.close(op);
        answers.push((*q, response));
    }
    ctx.measured = start.elapsed();
    let cache = CacheCounts::read(&probes::counters(&session)).since(&before);

    let n = latencies.len();
    ctx.report.latency("explain", &latencies, 90);
    ctx.report.set("op_p50_ms", "ms", median(&latencies), n);
    ctx.report.set(
        "throughput_per_s",
        "1/s",
        n as f64 / ctx.measured.as_secs_f64(),
        n,
    );
    let responses: Vec<&ExplainResponse> = answers.iter().map(|(_, r)| r).collect();
    let (gt, err, patterns) = probes::answer_quality(&responses);
    ctx.report.set("gt_resp_topk", "ratio", gt, patterns);
    ctx.report.set("est_err_topk", "ratio", err, patterns);
    ctx.report.line(format!(
        "traffic: {n} questions, sweep misses {} of {}, structure hits {} of {}",
        cache.sweep_misses,
        cache.sweep_hits + cache.sweep_misses,
        cache.structure_hits,
        cache.structure_hits + cache.structure_misses
    ));

    check(ctx, &train, &test, &answers, &cache);
    timed_builds(&train, &test, &mut builds);
    ctx.report
        .set("setup_s", "s", median(&builds), builds.len());

    sweeps.report(&mut ctx.report);
    cache.report(&mut ctx.report);
    if ctx.traced() {
        let explain: Vec<f64> = ctx
            .tracer
            .durations("core.explain")
            .into_iter()
            .map(|(_, ms)| ms)
            .collect();
        ctx.report
            .set("core.explain_ms", "ms", median(&explain), explain.len());
        for (i, (q, answer)) in answers.iter().take(3).enumerate() {
            if let Some(top) = answer.report.explanations.first() {
                let rows: Vec<u32> = top.candidate.coverage.iter().collect();
                probes::retrain(ctx, &session, METRICS[q.metric].0, &rows, i as u64);
            }
        }
        probes::report_retrain(ctx);
        probes::build_layers(ctx, 0, lr, &train, &test);
        probes::report_build_layers(ctx);
        probes::update_probe(ctx, &mut session, |i| german(1, DATA_SEED + 1 + i));
        super::families::probe(ctx);
    }
    Ok(())
}

/// The workload's output checks.
fn check(
    ctx: &mut Ctx,
    train: &Dataset,
    test: &Dataset,
    answers: &[(crate::streams::Question, ExplainResponse)],
    cache: &CacheCounts,
) {
    let asked = answers.len() as f64;
    ctx.report.check(
        "every question is a scored-cache miss",
        cache.sweep_misses == asked && cache.sweep_hits == 0.0,
        format!(
            "({} misses, {} hits, {asked} questions)",
            cache.sweep_misses, cache.sweep_hits
        ),
    );

    let n_train = train.n_rows() as f64;
    let mut bad = Vec::new();
    for (q, answer) in answers {
        let explanations = &answer.report.explanations;
        if explanations.len() != 3 {
            bad.push(format!("{} patterns at tau {}", explanations.len(), q.tau));
        }
        for e in explanations {
            let finite = e.est_responsibility.is_finite()
                && e.ground_truth_responsibility.is_some_and(f64::is_finite);
            if (e.support * n_train).round() < q.min_count as f64 || !finite {
                bad.push(format!(
                    "{} (support {}, min count {})",
                    e.pattern_text, e.support, q.min_count
                ));
            }
        }
    }
    ctx.report.check(
        "k patterns with support >= ceil(tau n)/n and finite responsibilities",
        !answers.is_empty() && bad.is_empty(),
        bad.first().cloned().unwrap_or_default(),
    );

    if let Some((q, warm)) = answers.first() {
        let single = SessionBuilder::new().threads(1).fit(lr, train, test);
        let request = ExplainRequest::default()
            .with_metric(METRICS[q.metric].0)
            .with_support_threshold(q.tau);
        let again = single.explain(&request);
        let a = &warm.report.explanations;
        let b = &again.report.explanations;
        let same = a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.pattern_text == y.pattern_text
                    && x.support.to_bits() == y.support.to_bits()
                    && x.est_responsibility.to_bits() == y.est_responsibility.to_bits()
                    && x.ground_truth_responsibility.map(f64::to_bits)
                        == y.ground_truth_responsibility.map(f64::to_bits)
            });
        ctx.report.check(
            "threads = 1 session answers the first question bit-identically",
            same,
            format!("(tau {}, metric {})", q.tau, METRICS[q.metric].1),
        );
    }
}
