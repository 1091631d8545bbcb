//! `families-german500`: the two non-LR backends. Two in-process sessions
//! on German-500 — a forest with `ForestConfig` defaults (unlearning-based
//! influence) and a 10-hidden-unit MLP (finite-difference Hessian) —
//! answer a fixed sequence with ground truth off: the forest two metrics,
//! the MLP all four. The inputs do not depend on the seed: every run
//! answers the same sequence over the same data.

use crate::probes::{self, CacheCounts, SweepLayers};
use crate::stats::median;
use crate::streams::METRICS;
use crate::trace::NO_SPAN;
use crate::{ms, split, Ctx, THREADS};
use gopher_repro::gopher_influence::InfluenceConfig;
use gopher_repro::prelude::*;
use std::time::{Duration, Instant};

/// Rows generated; 70 % train.
const ROWS: usize = 500;
/// Seed of the German generator and of the train/test split.
const DATA_SEED: u64 = 5_00;
/// Seed of the MLP's initial weights.
const MLP_SEED: u64 = 10;
/// Hidden units of the MLP.
const HIDDEN: usize = 10;
/// The fixed sequence: the forest answers statistical parity and equal
/// opportunity, the MLP all four metrics.
const FOREST_METRICS: [usize; 2] = [0, 1];
const MLP_METRICS: [usize; 4] = [0, 1, 2, 3];
/// Forest-plus-MLP build pairs timed for `setup_s`; each pair serves at
/// most one round of the sequence, so every answer is cold.
const SETUP_BUILDS: usize = 3;

fn forest(cols: usize) -> Forest {
    Forest::new(cols, ForestConfig::default())
}

fn mlp(cols: usize) -> Mlp {
    Mlp::new(cols, HIDDEN, 1e-3, &mut Rng::new(MLP_SEED))
}

fn question(metric: usize) -> ExplainRequest {
    ExplainRequest::default()
        .with_metric(METRICS[metric].0)
        .with_ground_truth(false)
}

/// Asks `order`'s metrics of `session`, timing each as a `core.explain`
/// span; returns the answers.
fn ask<M: ModelFamily>(
    ctx: &mut Ctx,
    session: &ExplainSession<M>,
    order: &[usize],
    latencies: &mut Vec<f64>,
    sweeps: &mut SweepLayers,
) -> Vec<ExplainResponse> {
    let mut answers = Vec::new();
    for &metric in order {
        let op = latencies.len() as u64;
        ctx.report.attempted += 1;
        let span = ctx.tracer.open("core.explain", op, NO_SPAN);
        let t = Instant::now();
        let answer = session.explain(&question(metric));
        let took = t.elapsed();
        ctx.tracer.close(span);
        latencies.push(ms(took));
        sweeps.add(&answer.report.stats);
        answers.push(answer);
    }
    answers
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (train, test) = split(&german(ROWS, DATA_SEED), DATA_SEED);

    let mut builds = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..SETUP_BUILDS {
        let t = Instant::now();
        let f = SessionBuilder::new()
            .threads(THREADS)
            .fit(forest, &train, &test);
        let m = SessionBuilder::new()
            .threads(THREADS)
            .fit(mlp, &train, &test);
        builds.push(t.elapsed().as_secs_f64());
        pairs.push((f, m));
    }
    ctx.report
        .set("setup_s", "s", median(&builds), builds.len());
    ctx.setup_done();

    let (forest_order, mlp_order) = (FOREST_METRICS, MLP_METRICS);
    let mut latencies = Vec::new();
    let mut forest_sweeps = SweepLayers::default();
    let mut mlp_sweeps = SweepLayers::default();
    let mut answers = Vec::new();
    let mut cache = CacheCounts::default();
    let mut explain_time = Duration::ZERO;
    let mut forest_time = Duration::ZERO;
    let mut rounds = 0;
    let start = Instant::now();
    for (f, m) in &pairs {
        let before =
            CacheCounts::read(&probes::counters(f)).plus(&CacheCounts::read(&probes::counters(m)));
        let round = Instant::now();
        answers.extend(ask(
            ctx,
            f,
            &forest_order,
            &mut latencies,
            &mut forest_sweeps,
        ));
        forest_time += round.elapsed();
        answers.extend(ask(ctx, m, &mlp_order, &mut latencies, &mut mlp_sweeps));
        let took = round.elapsed();
        explain_time += took;
        rounds += 1;
        let after =
            CacheCounts::read(&probes::counters(f)).plus(&CacheCounts::read(&probes::counters(m)));
        cache = cache.plus(&after.since(&before));
        // Start another round only if it fits in the budget.
        if start.elapsed() + took > ctx.budget() {
            break;
        }
    }
    ctx.measured = start.elapsed();

    let n = latencies.len();
    ctx.report.set("op_p50_ms", "ms", median(&latencies), n);
    ctx.report
        .set("explain_p50_ms", "ms", median(&latencies), n);
    let rate = n as f64 / explain_time.as_secs_f64();
    ctx.report.set("explains_per_s", "1/s", rate, n);
    ctx.report.set("throughput_per_s", "1/s", rate, n);
    ctx.report.line(format!(
        "traffic: {rounds} round(s) of the sequence, {n} questions, forest {:.0}% of explain time",
        100.0 * forest_time.as_secs_f64() / explain_time.as_secs_f64()
    ));

    let bad: Vec<String> = answers
        .iter()
        .filter(|a| {
            a.report.explanations.is_empty()
                || a.report
                    .explanations
                    .iter()
                    .any(|e| !e.est_responsibility.is_finite() || !e.support.is_finite())
        })
        .map(|a| a.report.metric.name().to_string())
        .collect();
    ctx.report.check(
        "answers are non-empty and finite",
        !answers.is_empty() && bad.is_empty(),
        bad.join(", "),
    );

    let mut all = forest_sweeps.clone();
    all.extend(&mlp_sweeps);
    all.report(&mut ctx.report);
    report_family_scoring(ctx, &forest_sweeps, &mlp_sweeps);
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
        let (f, m) = &pairs[0];
        if let Some(top) = answers.first().and_then(|a| a.report.explanations.first()) {
            let rows: Vec<u32> = top.candidate.coverage.iter().collect();
            probes::retrain(ctx, f, answers[0].report.metric, &rows, 0);
        }
        let first_mlp = forest_order.len();
        if let Some(top) = answers
            .get(first_mlp)
            .and_then(|a| a.report.explanations.first())
        {
            let rows: Vec<u32> = top.candidate.coverage.iter().collect();
            probes::retrain(ctx, m, answers[first_mlp].report.metric, &rows, 1);
        }
        probes::report_retrain(ctx);
        probes::build_layers(ctx, 0, forest, &train, &test);
        probes::build_layers(ctx, 1, mlp, &train, &test);
        probes::report_build_layers(ctx);
        let mlp_build: Vec<f64> = ctx
            .tracer
            .durations("influence.build")
            .into_iter()
            .filter(|&(group, _)| group == 1)
            .map(|(_, ms)| ms)
            .collect();
        ctx.report.set(
            "influence.mlp.build_ms",
            "ms",
            median(&mlp_build),
            mlp_build.len(),
        );
        let mut lr_session = SessionBuilder::new().threads(THREADS).fit(
            |cols| LogisticRegression::new(cols, 1e-3),
            &train,
            &test,
        );
        probes::update_probe(ctx, &mut lr_session, |i| german(1, DATA_SEED + 1 + i));
    }
    Ok(())
}

fn report_family_scoring(ctx: &mut Ctx, forest: &SweepLayers, mlp: &SweepLayers) {
    ctx.report.set(
        "influence.forest.score_us",
        "us",
        forest.per_candidate_us(),
        forest.len(),
    );
    ctx.report.set(
        "influence.mlp.score_us",
        "us",
        mlp.per_candidate_us(),
        mlp.len(),
    );
}

/// The forest and MLP layers, measured by a traced run whose own traffic
/// does not reach them: one cold statistical-parity question to a fresh
/// forest session and to a fresh MLP session on this workload's data, and
/// [`PROBE_REPS`](probes::PROBE_REPS) timed `InfluenceBackend::build`
/// calls on a fitted MLP.
pub fn probe(ctx: &mut Ctx) {
    let (train, test) = split(&german(ROWS, DATA_SEED), DATA_SEED);
    let mut forest_sweeps = SweepLayers::default();
    let mut mlp_sweeps = SweepLayers::default();
    let f = SessionBuilder::new()
        .threads(THREADS)
        .fit(forest, &train, &test);
    forest_sweeps.add(&f.explain(&question(0)).report.stats);
    let m = SessionBuilder::new()
        .threads(THREADS)
        .fit(mlp, &train, &test);
    mlp_sweeps.add(&m.explain(&question(0)).report.stats);
    report_family_scoring(ctx, &forest_sweeps, &mlp_sweeps);

    let encoded = Encoder::fit(&train).transform(&train);
    let mut model = mlp(encoded.n_cols());
    ModelFamily::fit(&mut model, &encoded);
    for rep in 0..probes::PROBE_REPS {
        let id = ctx.tracer.open("influence.mlp.build", rep as u64, NO_SPAN);
        let backend = <Mlp as ModelFamily>::Backend::build(
            model.clone(),
            &encoded,
            InfluenceConfig::default(),
        );
        ctx.tracer.close(id);
        drop(backend);
    }
    let spans: Vec<f64> = ctx
        .tracer
        .durations("influence.mlp.build")
        .into_iter()
        .map(|(_, ms)| ms)
        .collect();
    ctx.report
        .set("influence.mlp.build_ms", "ms", median(&spans), spans.len());
}
