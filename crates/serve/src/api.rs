//! JSON wire codecs for explanation serving.
//!
//! One vocabulary, two transports: the `gopher query` subcommand and the
//! HTTP daemon both parse request objects and render responses through
//! these functions, so a request body that works against `--requests` works
//! verbatim against `POST /sessions/{name}/explain`, and the response
//! shapes match field for field.

use gopher_core::{ExplainRequest, ExplainResponse, SessionStats, UpdateReport};
use gopher_fairness::FairnessMetric;
use gopher_influence::{BiasEval, Estimator, RebuildCause};
use gopher_json::Json;

/// Parses a fairness-metric name (long or short form).
pub fn parse_metric(name: &str) -> Result<FairnessMetric, String> {
    match name {
        "statistical-parity" | "spd" => Ok(FairnessMetric::StatisticalParity),
        "equal-opportunity" | "eo" => Ok(FairnessMetric::EqualOpportunity),
        "predictive-parity" | "pp" => Ok(FairnessMetric::PredictiveParity),
        "average-odds" | "ao" => Ok(FairnessMetric::AverageOdds),
        other => Err(format!("unknown metric `{other}`")),
    }
}

/// Parses an estimator name; `learning_rate` feeds the one-step-GD variant.
pub fn parse_estimator(name: &str, learning_rate: f64) -> Result<Estimator, String> {
    match name {
        "first-order" | "fo" => Ok(Estimator::FirstOrder),
        "second-order" | "so" => Ok(Estimator::SecondOrder),
        "newton" => Ok(Estimator::NewtonStep),
        "one-step-gd" | "gd" => Ok(Estimator::OneStepGd { learning_rate }),
        other => Err(format!("unknown estimator `{other}`")),
    }
}

/// Parses a bias-evaluation mode name.
pub fn parse_bias_eval(name: &str) -> Result<BiasEval, String> {
    match name {
        "chain-rule" => Ok(BiasEval::ChainRule),
        "re-eval-smooth" => Ok(BiasEval::ReEvalSmooth),
        "re-eval-hard" => Ok(BiasEval::ReEvalHard),
        other => Err(format!("unknown bias_eval `{other}`")),
    }
}

/// Wire name of an estimator (inverse of [`parse_estimator`]).
pub fn estimator_name(e: Estimator) -> &'static str {
    match e {
        Estimator::FirstOrder => "first-order",
        Estimator::SecondOrder => "second-order",
        Estimator::NewtonStep => "newton",
        Estimator::OneStepGd { .. } => "one-step-gd",
    }
}

/// The request-object fields the explain endpoints understand.
pub const REQUEST_FIELDS: [&str; 9] = [
    "metric",
    "k",
    "estimator",
    "learning_rate",
    "support",
    "max_predicates",
    "containment",
    "ground_truth",
    "bias_eval",
];

/// Builds one [`ExplainRequest`] from a JSON object, falling back to `base`
/// for omitted fields (`default_learning_rate` feeds an estimator chosen by
/// `base` when the object sets neither). Unknown keys and mistyped values
/// are hard errors — a serving endpoint must not silently answer with
/// defaults when the caller's parameter was dropped.
pub fn parse_explain_request(
    item: &Json,
    base: &ExplainRequest,
    default_learning_rate: f64,
) -> Result<ExplainRequest, String> {
    let Json::Obj(fields) = item else {
        return Err("must be a JSON object".into());
    };
    for key in fields.keys() {
        if !REQUEST_FIELDS.contains(&key.as_str()) {
            return Err(format!(
                "unknown field {key:?} (expected one of: {})",
                REQUEST_FIELDS.join(", ")
            ));
        }
    }
    let mut request = base.clone();
    let get_f = |key: &str| -> Result<Option<f64>, String> {
        match item.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("field {key:?} must be a number")),
        }
    };
    let get_s = |key: &str| -> Result<Option<&str>, String> {
        match item.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| format!("field {key:?} must be a string")),
        }
    };
    if let Some(metric) = get_s("metric")? {
        request.metric = parse_metric(metric)?;
    }
    if let Some(k) = get_f("k")? {
        if k < 1.0 || k.fract() != 0.0 {
            return Err(format!("k must be a positive integer, got {k}"));
        }
        request.k = k as usize;
    }
    let learning_rate = get_f("learning_rate")?.unwrap_or(default_learning_rate);
    if let Some(estimator) = get_s("estimator")? {
        request.estimator = parse_estimator(estimator, learning_rate)?;
    } else if let Estimator::OneStepGd { .. } = request.estimator {
        // `learning_rate` alone must still apply when the base request
        // already selected the one-step-GD estimator.
        request.estimator = Estimator::OneStepGd { learning_rate };
    }
    if let Some(support) = get_f("support")? {
        if !(0.0..1.0).contains(&support) {
            return Err(format!("support must be in [0, 1), got {support}"));
        }
        request.lattice.support_threshold = support;
    }
    if let Some(depth) = get_f("max_predicates")? {
        if depth < 1.0 || depth.fract() != 0.0 {
            return Err(format!(
                "max_predicates must be a positive integer, got {depth}"
            ));
        }
        request.lattice.max_predicates = depth as usize;
    }
    if let Some(containment) = get_f("containment")? {
        if !(0.0..=1.0).contains(&containment) {
            return Err(format!("containment must be in [0, 1], got {containment}"));
        }
        request.containment_threshold = containment;
    }
    match item.get("ground_truth") {
        None => {}
        Some(Json::Bool(gt)) => request.ground_truth_for_topk = *gt,
        Some(_) => return Err("field \"ground_truth\" must be a boolean".into()),
    }
    if let Some(eval) = get_s("bias_eval")? {
        request.bias_eval = parse_bias_eval(eval)?;
    }
    Ok(request)
}

/// Renders one explanation response. The `explanations` objects and every
/// scalar here match `gopher explain --json` / `gopher query` field for
/// field; the CLI adds its invocation context (dataset, seed, …) on top of
/// this same object.
pub fn explain_response_json(response: &ExplainResponse) -> Json {
    let report = &response.report;
    let request = &response.request;
    let explanations: Vec<Json> = report
        .explanations
        .iter()
        .map(|e| {
            Json::obj([
                ("pattern", Json::str(&e.pattern_text)),
                ("support", Json::num(e.support)),
                ("est_responsibility", Json::num(e.est_responsibility)),
                ("interestingness", Json::num(e.candidate.interestingness)),
                (
                    "ground_truth_responsibility",
                    e.ground_truth_responsibility.map_or(Json::Null, Json::num),
                ),
                (
                    "ground_truth_new_bias",
                    e.ground_truth_new_bias.map_or(Json::Null, Json::num),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("metric", Json::str(report.metric.name())),
        ("estimator", Json::str(estimator_name(request.estimator))),
        ("base_bias", Json::num(report.base_bias)),
        ("accuracy", Json::num(report.accuracy)),
        ("k", Json::num(request.k as f64)),
        (
            "support_threshold",
            Json::num(request.lattice.support_threshold),
        ),
        (
            "candidates_scored",
            Json::num(report.stats.total_scored as f64),
        ),
        (
            "search_ms",
            Json::num(report.search_time.as_secs_f64() * 1e3),
        ),
        (
            "query_ms",
            Json::num(response.query_time.as_secs_f64() * 1e3),
        ),
        ("explanations", Json::Arr(explanations)),
    ])
}

/// The `session_stats` / `GET .../stats` block: every cache-layer and memo
/// counter a serving deployment watches, straight from
/// [`ExplainSession::stats`](gopher_core::ExplainSession::stats), plus the
/// traffic counters. Concurrent callers asking one question share its
/// sweep, so `sweep_misses` counts the sweeps actually run.
pub fn session_stats_json(stats: &SessionStats) -> Json {
    Json::obj([
        ("threads", Json::num(stats.threads as f64)),
        ("requests_served", Json::num(stats.requests_served as f64)),
        ("sweep_entries", Json::num(stats.sweep_entries as f64)),
        ("sweep_hits", Json::num(stats.sweep_hits as f64)),
        ("sweep_misses", Json::num(stats.sweep_misses as f64)),
        ("sweep_evictions", Json::num(stats.sweep_evictions as f64)),
        ("cached_coverages", Json::num(stats.cached_coverages as f64)),
        ("coverage_hits", Json::num(stats.coverage_hits as f64)),
        ("coverage_misses", Json::num(stats.coverage_misses as f64)),
        (
            "coverage_inserts_refused",
            Json::num(stats.coverage_inserts_refused as f64),
        ),
        ("updates_applied", Json::num(stats.updates_applied as f64)),
        ("update_rebuilds", Json::num(stats.update_rebuilds as f64)),
        ("explain_p50_us", Json::num(stats.explain_p50_us as f64)),
        ("explain_p99_us", Json::num(stats.explain_p99_us as f64)),
        ("truth_memo_hits", Json::num(stats.truth_memo_hits as f64)),
        (
            "truth_memo_misses",
            Json::num(stats.truth_memo_misses as f64),
        ),
    ])
}

/// The `rebuild_cause` and `drift` members of an update report: the
/// kebab-case [`RebuildCause`] name (`null` when the delta was absorbed
/// incrementally) and, for a drift rebuild, the relative drift that
/// tripped the bound (`null` otherwise).
pub fn rebuild_cause_json(cause: Option<RebuildCause>) -> [(&'static str, Json); 2] {
    let drift = match cause {
        Some(RebuildCause::Drift { relative }) => Json::num(relative),
        _ => Json::Null,
    };
    [
        (
            "rebuild_cause",
            cause.map_or(Json::Null, |c| Json::str(c.name())),
        ),
        ("drift", drift),
    ]
}

/// The `POST /sessions/{name}/update` response: what the delta did, why
/// the influence engine rebuilt from scratch if it did
/// ([`rebuild_cause_json`]), and how many merged-pattern coverages it
/// discarded (`artifacts_invalidated`: the session's materialized
/// coverages of patterns with two or more predicates, which range over the
/// old rows). `updates_applied` is the session's cumulative counter
/// *after* this update.
pub fn update_report_json(report: &UpdateReport, updates_applied: u64, name: &str) -> Json {
    let [rebuild_cause, drift] = rebuild_cause_json(report.engine.rebuild);
    Json::obj([
        ("name", Json::str(name)),
        ("rows_removed", Json::num(report.rows_removed as f64)),
        ("rows_added", Json::num(report.rows_added as f64)),
        ("train_rows", Json::num(report.n_rows as f64)),
        (
            "artifacts_invalidated",
            Json::num(report.artifacts_invalidated as f64),
        ),
        rebuild_cause,
        drift,
        ("fell_back", Json::Bool(report.engine.fell_back())),
        (
            "retrain_converged",
            Json::Bool(report.engine.retrain.converged),
        ),
        (
            "update_ms",
            Json::num(report.update_time.as_secs_f64() * 1e3),
        ),
        ("updates_applied", Json::num(updates_applied as f64)),
    ])
}
