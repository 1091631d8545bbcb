//! `update-sqf100k`: writes beside reads at the paper's SQF scale. An
//! in-process LR session on SQF-100k (70k train) takes a seeded stream of
//! balanced swaps — single rows, with a 1 % swap every 40th delta — and
//! after every 8th delta the caller asks the standing default question
//! (second-order, ground truth off), cycling the four metrics.

use crate::probes::{self, CacheCounts, SweepLayers, UpdateLayers};
use crate::stats::median;
use crate::streams::{deltas, METRICS};
use crate::trace::NO_SPAN;
use crate::{ms, split, Ctx, THREADS};
use gopher_repro::prelude::*;
use std::time::Instant;

/// Rows generated; 70 % train.
const ROWS: usize = 100_000;
/// Seed of the SQF generator and of the train/test split.
const DATA_SEED: u64 = 19_99;
/// `SessionBuilder::fit` builds timed for `setup_s`.
const SETUP_BUILDS: usize = 5;
/// The standing question is asked after every this many deltas.
const ASK_EVERY: usize = 8;
/// Deltas drawn up front; far more than a run applies.
const MAX_DELTAS: usize = 20_000;

fn lr(cols: usize) -> LogisticRegression {
    LogisticRegression::new(cols, 1e-3)
}

fn standing(metric: usize) -> ExplainRequest {
    ExplainRequest::default()
        .with_metric(METRICS[metric].0)
        .with_ground_truth(false)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (train, test) = split(&sqf(ROWS, DATA_SEED), DATA_SEED);
    let n_train = train.n_rows();

    let mut builds = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_BUILDS {
        let t = Instant::now();
        let session = SessionBuilder::new()
            .threads(THREADS)
            .fit(lr, &train, &test);
        builds.push(t.elapsed().as_secs_f64());
        built = Some(session);
    }
    let mut session = built.ok_or("no session built")?;
    ctx.report
        .set("setup_s", "s", median(&builds), builds.len());
    // Warm the structural tier the stream's explains are served through.
    session.explain(&standing(0));
    ctx.setup_done();

    let stream = deltas(ctx.opts.seed, n_train, MAX_DELTAS);
    let before = CacheCounts::read(&probes::counters(&session));
    let mut update_ms = Vec::new();
    let mut explain_ms = Vec::new();
    let mut sweeps = SweepLayers::default();
    let mut updates = UpdateLayers::default();
    let mut fallbacks = 0usize;
    let mut asked = 0usize;
    let start = Instant::now();
    for (i, delta) in stream.iter().enumerate() {
        if start.elapsed() >= ctx.budget() {
            break;
        }
        let n = session.train_raw().n_rows();
        let removed = Rng::new(delta.remove_seed).sample_indices(n, delta.rows);
        let added = sqf(delta.rows, delta.add_seed);
        ctx.report.attempted += 1;
        let op = ctx.tracer.open("bench.delta", i as u64, NO_SPAN);
        let span = ctx.tracer.open("core.update", i as u64, op);
        let t = Instant::now();
        let report = session.update(&removed, &added);
        let took = t.elapsed();
        ctx.tracer.close(span);
        update_ms.push(ms(took));
        fallbacks += usize::from(report.engine.fell_back());
        updates.add(&report);
        if report.rows_removed != delta.rows || report.rows_added != delta.rows {
            ctx.report.failed += 1;
        }
        if (i + 1) % ASK_EVERY == 0 {
            ctx.report.attempted += 1;
            let span = ctx.tracer.open("core.explain", i as u64, op);
            let t = Instant::now();
            let response = session.explain(&standing(asked % METRICS.len()));
            let took = t.elapsed();
            ctx.tracer.close(span);
            explain_ms.push(ms(took));
            sweeps.add(&response.report.stats);
            asked += 1;
        }
        ctx.tracer.close(op);
    }
    ctx.measured = start.elapsed();
    let cache = CacheCounts::read(&probes::counters(&session)).since(&before);

    let n = update_ms.len();
    ctx.report.latency("update", &update_ms, 95);
    ctx.report.set("op_p50_ms", "ms", median(&update_ms), n);
    ctx.report.set(
        "explain_p50_ms",
        "ms",
        median(&explain_ms),
        explain_ms.len(),
    );
    ctx.report.set(
        "throughput_per_s",
        "1/s",
        n as f64 / ctx.measured.as_secs_f64(),
        n,
    );
    ctx.report.line(format!(
        "traffic: {n} deltas ({} large), {asked} explains; {fallbacks} updates fell back; sweep misses {} of {}; structure hits {} of {}",
        n / crate::streams::LARGE_EVERY,
        cache.sweep_misses,
        cache.sweep_hits + cache.sweep_misses,
        cache.structure_hits,
        cache.structure_hits + cache.structure_misses
    ));

    check(ctx, &session);

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
        updates.report(ctx);
        let answer = session.explain(&standing(0));
        for (i, e) in answer.report.explanations.iter().enumerate() {
            let rows: Vec<u32> = e.candidate.coverage.iter().collect();
            probes::retrain(ctx, &session, METRICS[0].0, &rows, i as u64);
        }
        probes::report_retrain(ctx);
        probes::build_layers(ctx, 0, lr, &train, &test);
        probes::report_build_layers(ctx);
        super::families::probe(ctx);
    }
    Ok(())
}

/// After the stream, every metric's answer matches a cold rebuild on the
/// updated data: patterns and supports exactly, responsibilities within
/// 1e-2 relative (the README's update contract).
fn check(ctx: &mut Ctx, session: &ExplainSession<LogisticRegression>) {
    let requests: Vec<ExplainRequest> = (0..METRICS.len()).map(standing).collect();
    let warm = session.explain_batch(&requests);
    let oracle = session.cold_rebuild(lr).explain_batch(&requests);
    let mut worst = 0.0f64;
    let mut mismatch = Vec::new();
    for ((w, o), (_, name)) in warm.iter().zip(&oracle).zip(METRICS) {
        let a = &w.report.explanations;
        let b = &o.report.explanations;
        if a.is_empty() || a.len() != b.len() {
            mismatch.push(format!("{name}: {} vs {} patterns", a.len(), b.len()));
            continue;
        }
        for (x, y) in a.iter().zip(b) {
            if x.pattern_text != y.pattern_text || x.support != y.support {
                mismatch.push(format!("{name}: {} vs {}", x.pattern_text, y.pattern_text));
            }
            let scale = x.est_responsibility.abs().max(y.est_responsibility.abs());
            let rel = (x.est_responsibility - y.est_responsibility).abs() / scale.max(1e-12);
            worst = worst.max(rel);
            if rel > 1e-2 || rel.is_nan() {
                mismatch.push(format!("{name}: {} relative {rel}", x.pattern_text));
            }
        }
    }
    ctx.report.check(
        "each metric's answer matches cold_rebuild after the stream",
        mismatch.is_empty(),
        format!(
            "(max relative responsibility difference {worst:.3e}){}",
            mismatch.first().map_or(String::new(), |m| format!("; {m}"))
        ),
    );
}
