//! Per-layer measurements taken outside the end-to-end spans: timed calls
//! into each layer's public entry point, values the program already
//! returns (`ExplanationReport.stats`), and session counters read by key
//! from the shared stats JSON.

use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::NO_SPAN;
use crate::{Ctx, THREADS};
use gopher_repro::gopher_core::UpdateReport;
use gopher_repro::gopher_influence::InfluenceConfig;
use gopher_repro::gopher_json::Json;
use gopher_repro::gopher_patterns::{generate_predicates, SearchStats};
use gopher_repro::gopher_serve::api::session_stats_json;
use gopher_repro::prelude::*;
use std::collections::BTreeMap;

/// Repetitions of each build probe; the metric is their median.
pub const PROBE_REPS: usize = 3;

/// Quantile bins per numeric feature, as `SessionBuilder::new()` uses.
pub const MAX_BINS: usize = 4;

/// Times the session build layer by layer on one dataset, [`PROBE_REPS`]
/// times, as spans of operation `group` (one group per dataset or family):
/// encode, model fit, influence backend, predicates, and the session build
/// around the fitted model.
pub fn build_layers<M>(
    ctx: &mut Ctx,
    group: u64,
    make: impl Fn(usize) -> M,
    train: &Dataset,
    test: &Dataset,
) where
    M: ModelFamily + Clone,
{
    for _ in 0..PROBE_REPS {
        let t = &mut ctx.tracer;
        let id = t.open("data.encode", group, NO_SPAN);
        let encoder = Encoder::fit(train);
        let enc_train = encoder.transform(train);
        let enc_test = encoder.transform(test);
        t.close(id);
        std::hint::black_box(&enc_test);

        let id = t.open("models.fit", group, NO_SPAN);
        let mut model = make(enc_train.n_cols());
        ModelFamily::fit(&mut model, &enc_train);
        t.close(id);

        let id = t.open("influence.build", group, NO_SPAN);
        let backend = M::Backend::build(model.clone(), &enc_train, InfluenceConfig::default());
        t.close(id);
        drop(backend);

        let id = t.open("patterns.predicates", group, NO_SPAN);
        let table = generate_predicates(train, MAX_BINS);
        t.close(id);
        drop(table);

        let id = t.open("core.build", group, NO_SPAN);
        let session = SessionBuilder::new()
            .threads(THREADS)
            .build(model, train, test);
        t.close(id);
        drop(session);
    }
}

/// Sum over operation groups of the median duration of spans `name`.
/// With one group this is the plain median; with two (tenants, families)
/// it is the cost of building both.
pub fn group_median_sum(ctx: &Ctx, name: &str) -> (f64, usize) {
    let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let spans = ctx.tracer.durations(name);
    for &(op, ms) in &spans {
        groups.entry(op).or_default().push(ms);
    }
    (groups.values().map(|v| median(v)).sum(), spans.len())
}

/// Records the five build-probe metrics from their spans.
pub fn report_build_layers(ctx: &mut Ctx) {
    for (span, metric) in [
        ("data.encode", "data.encode_ms"),
        ("models.fit", "models.fit_ms"),
        ("influence.build", "influence.build_ms"),
        ("patterns.predicates", "patterns.predicates_ms"),
        ("core.build", "core.build_ms"),
    ] {
        let (value, n) = group_median_sum(ctx, span);
        ctx.report.set(metric, "ms", value, n);
    }
}

/// Times `ExplainSession::ground_truth_responsibility` on `rows` as a
/// `models.retrain` span.
pub fn retrain<M: ModelFamily>(
    ctx: &mut Ctx,
    session: &ExplainSession<M>,
    metric: FairnessMetric,
    rows: &[u32],
    op: u64,
) {
    let id = ctx.tracer.open("models.retrain", op, NO_SPAN);
    let gt = session.ground_truth_responsibility(metric, rows);
    ctx.tracer.close(id);
    std::hint::black_box(gt);
}

/// Records `models.retrain_ms`: the median `models.retrain` span.
pub fn report_retrain(ctx: &mut Ctx) {
    let spans: Vec<f64> = ctx
        .tracer
        .durations("models.retrain")
        .into_iter()
        .map(|(_, ms)| ms)
        .collect();
    ctx.report
        .set("models.retrain_ms", "ms", median(&spans), spans.len());
}

/// Balanced single-row swaps a traced run applies to one of its LR
/// sessions when its traffic has no update stream of its own.
pub const UPDATE_PROBES: usize = 5;

/// The update path's numbers over a set of `ExplainSession::update` calls
/// recorded as `core.update` spans.
#[derive(Debug, Default, Clone)]
pub struct UpdateLayers {
    fallbacks: usize,
    retrain_iters: Vec<f64>,
    invalidated: usize,
}

impl UpdateLayers {
    /// Adds one update's report.
    pub fn add(&mut self, report: &UpdateReport) {
        self.fallbacks += usize::from(report.engine.fell_back());
        self.retrain_iters
            .push(report.engine.retrain.iterations as f64);
        self.invalidated += report.artifacts_invalidated;
    }

    /// Records `core.update_ms` (median `core.update` span),
    /// `core.update_fallbacks`, `models.warm_retrain_iters` (mean) and
    /// `core.artifacts_invalidated`.
    pub fn report(&self, ctx: &mut Ctx) {
        let spans: Vec<f64> = ctx
            .tracer
            .durations("core.update")
            .into_iter()
            .map(|(_, ms)| ms)
            .collect();
        let n = self.retrain_iters.len();
        let r = &mut ctx.report;
        r.set("core.update_ms", "ms", median(&spans), spans.len());
        r.set("core.update_fallbacks", "count", self.fallbacks as f64, n);
        r.set(
            "models.warm_retrain_iters",
            "count",
            mean(&self.retrain_iters),
            n,
        );
        r.set(
            "core.artifacts_invalidated",
            "count",
            self.invalidated as f64,
            n,
        );
    }
}

/// Applies [`UPDATE_PROBES`] balanced single-row swaps to `session`, each
/// a `core.update` span, and records the update-path metrics. `fresh(i)`
/// generates the `i`-th replacement row with the session's schema.
pub fn update_probe(
    ctx: &mut Ctx,
    session: &mut ExplainSession<LogisticRegression>,
    fresh: impl Fn(u64) -> Dataset,
) {
    let mut layers = UpdateLayers::default();
    for i in 0..UPDATE_PROBES as u64 {
        let n = session.train_raw().n_rows();
        let removed = [(i as usize * 7919) % n];
        let added = fresh(i);
        let id = ctx.tracer.open("core.update", i, NO_SPAN);
        let report = session.update(&removed, &added);
        ctx.tracer.close(id);
        layers.add(&report);
    }
    layers.report(ctx);
}

/// The scoring-side numbers of a set of explains, from each report's
/// per-level search statistics.
#[derive(Debug, Default, Clone)]
pub struct SweepLayers {
    score_phase_ms: Vec<f64>,
    scored: Vec<f64>,
    structural_ms: Vec<f64>,
    generated: usize,
    kept: usize,
}

impl SweepLayers {
    /// Adds one explain's statistics.
    pub fn add(&mut self, stats: &SearchStats) {
        let mut phase = 0.0;
        let mut structural = 0.0;
        for level in &stats.levels {
            let s = level.structural.as_secs_f64() * 1e3;
            phase += (level.duration.as_secs_f64() * 1e3 - s).max(0.0);
            structural += s;
            self.generated += level.generated;
            self.kept += level.kept;
        }
        self.score_phase_ms.push(phase);
        self.scored.push(stats.total_scored as f64);
        self.structural_ms.push(structural);
    }

    /// Explains added.
    pub fn len(&self) -> usize {
        self.scored.len()
    }

    /// Whether no explain was added.
    pub fn is_empty(&self) -> bool {
        self.scored.is_empty()
    }

    /// Scoring time per candidate, µs.
    pub fn per_candidate_us(&self) -> f64 {
        let scored: f64 = self.scored.iter().sum();
        self.score_phase_ms.iter().sum::<f64>() * 1e3 / scored.max(1.0)
    }

    /// Merges another set.
    pub fn extend(&mut self, other: &SweepLayers) {
        self.score_phase_ms.extend(&other.score_phase_ms);
        self.scored.extend(&other.scored);
        self.structural_ms.extend(&other.structural_ms);
        self.generated += other.generated;
        self.kept += other.kept;
    }

    /// Records the scoring and pruning metrics (means per explain).
    pub fn report(&self, report: &mut Report) {
        let n = self.len();
        report.set(
            "influence.score_phase_ms",
            "ms",
            mean(&self.score_phase_ms),
            n,
        );
        report.set("influence.scored", "count", mean(&self.scored), n);
        report.set("influence.score_us", "us", self.per_candidate_us(), n);
        report.set("patterns.structural_ms", "ms", mean(&self.structural_ms), n);
        report.set(
            "patterns.kept_ratio",
            "ratio",
            self.kept as f64 / self.generated.max(1) as f64,
            n,
        );
    }
}

/// A session's counters as the shared stats JSON renders them.
pub fn counters<M: ModelFamily>(session: &ExplainSession<M>) -> Json {
    session_stats_json(&session.stats())
}

/// Counter `key` of a stats object (`/stats` or [`counters`]); 0 if absent.
pub fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Sweep- and structure-cache outcomes over a span of traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CacheCounts {
    /// Scored-sweep cache hits.
    pub sweep_hits: f64,
    /// Scored-sweep cache misses.
    pub sweep_misses: f64,
    /// Structure cache hits, exact and τ-range.
    pub structure_hits: f64,
    /// Structure cache misses.
    pub structure_misses: f64,
}

impl CacheCounts {
    /// Reads the counters from a stats object.
    pub fn read(stats: &Json) -> Self {
        Self {
            sweep_hits: counter(stats, "sweep_hits"),
            sweep_misses: counter(stats, "sweep_misses"),
            structure_hits: counter(stats, "structure_hits")
                + counter(stats, "structure_range_hits"),
            structure_misses: counter(stats, "structure_misses"),
        }
    }

    /// `self − before`, field by field.
    pub fn since(&self, before: &CacheCounts) -> Self {
        Self {
            sweep_hits: self.sweep_hits - before.sweep_hits,
            sweep_misses: self.sweep_misses - before.sweep_misses,
            structure_hits: self.structure_hits - before.structure_hits,
            structure_misses: self.structure_misses - before.structure_misses,
        }
    }

    /// Field-by-field sum.
    pub fn plus(&self, other: &CacheCounts) -> Self {
        Self {
            sweep_hits: self.sweep_hits + other.sweep_hits,
            sweep_misses: self.sweep_misses + other.sweep_misses,
            structure_hits: self.structure_hits + other.structure_hits,
            structure_misses: self.structure_misses + other.structure_misses,
        }
    }

    /// Records `core.sweep_miss_ratio` and `core.structure_hit_ratio`.
    pub fn report(&self, report: &mut Report) {
        let sweeps = self.sweep_hits + self.sweep_misses;
        let structures = self.structure_hits + self.structure_misses;
        report.set(
            "core.sweep_miss_ratio",
            "ratio",
            self.sweep_misses / sweeps.max(1.0),
            sweeps as usize,
        );
        report.set(
            "core.structure_hit_ratio",
            "ratio",
            self.structure_hits / structures.max(1.0),
            structures as usize,
        );
    }
}

/// Mean of the ground-truth responsibilities of every returned pattern and
/// the mean absolute gap to the estimates, over answers that carry ground
/// truth.
pub fn answer_quality(answers: &[&ExplainResponse]) -> (f64, f64, usize) {
    let mut gt = Vec::new();
    let mut err = Vec::new();
    for answer in answers {
        for e in &answer.report.explanations {
            if let Some(g) = e.ground_truth_responsibility {
                gt.push(g);
                err.push((e.est_responsibility - g).abs());
            }
        }
    }
    (mean(&gt), mean(&err), gt.len())
}
