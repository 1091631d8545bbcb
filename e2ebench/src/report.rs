//! Metric catalogs and the run report.
//!
//! Two catalogs are printed as the final JSON line: [`END_TO_END`] by an
//! untraced run and [`PER_LAYER`] by a traced one. Every workload measures
//! every metric in both catalogs, each with its own definition (see
//! `NOTES.md`). The workload-specific names — `refresh_p90_ms`,
//! `update_p50_ms`, `serve.overhead_ms` and the rest, listed per workload
//! in [`named_end_to_end`] and [`named_per_layer`] — are printed on the
//! report lines above the JSON line, each with its unit and sample count.

use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics: name and unit, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("explain_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.encode_ms", "ms"),
    ("models.fit_ms", "ms"),
    ("influence.build_ms", "ms"),
    ("patterns.predicates_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.explain_ms", "ms"),
    ("influence.score_phase_ms", "ms"),
    ("influence.scored", "count"),
    ("influence.score_us", "us"),
    ("patterns.structural_ms", "ms"),
    ("patterns.kept_ratio", "ratio"),
    ("models.retrain_ms", "ms"),
    ("core.sweep_miss_ratio", "ratio"),
    ("core.structure_hit_ratio", "ratio"),
    ("core.update_ms", "ms"),
    ("core.update_fallbacks", "count"),
    ("models.warm_retrain_iters", "count"),
    ("core.artifacts_invalidated", "count"),
    ("influence.forest.score_us", "us"),
    ("influence.mlp.score_us", "us"),
    ("influence.mlp.build_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, in the order `--workload` documents them.
pub const WORKLOADS: [&str; 4] = [
    "analyst-german10k",
    "update-sqf100k",
    "serve-dashboard",
    "families-german500",
];

/// End-to-end metrics named for one workload, printed on its report lines.
/// A tail (`_p90_`, `_p95_`) appears only when the run holds at least ten
/// samples beyond it; otherwise the line names the highest tail it does
/// support.
pub fn named_end_to_end(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "analyst-german10k" => &[
            ("explain_p50_ms", "ms"),
            ("explain_p90_ms", "ms"),
            ("gt_resp_topk", "ratio"),
            ("est_err_topk", "ratio"),
            ("peak_rss_mb", "MB"),
        ],
        "update-sqf100k" => &[
            ("setup_s", "s"),
            ("explain_p50_ms", "ms"),
            ("update_p50_ms", "ms"),
            ("update_p95_ms", "ms"),
            ("peak_rss_mb", "MB"),
        ],
        "serve-dashboard" => &[
            ("refresh_p50_ms", "ms"),
            ("refresh_p90_ms", "ms"),
            ("capacity_rps", "req/s"),
            ("peak_rss_mb", "MB"),
        ],
        "families-german500" => &[
            ("setup_s", "s"),
            ("explains_per_s", "1/s"),
            ("peak_rss_mb", "MB"),
        ],
        _ => &[],
    }
}

/// Per-layer metrics named for one workload, printed by its traced run.
pub fn named_per_layer(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "analyst-german10k" => &[
            ("core.explain_ms", "ms"),
            ("influence.score_phase_ms", "ms"),
            ("influence.scored", "count"),
            ("influence.score_us", "us"),
            ("patterns.structural_ms", "ms"),
            ("patterns.kept_ratio", "ratio"),
            ("models.retrain_ms", "ms"),
            ("core.sweep_miss_ratio", "ratio"),
            ("core.structure_hit_ratio", "ratio"),
        ],
        "update-sqf100k" => &[
            ("data.encode_ms", "ms"),
            ("models.fit_ms", "ms"),
            ("influence.build_ms", "ms"),
            ("patterns.predicates_ms", "ms"),
            ("core.build_ms", "ms"),
            ("core.explain_ms", "ms"),
            ("influence.score_phase_ms", "ms"),
            ("influence.scored", "count"),
            ("influence.score_us", "us"),
            ("patterns.structural_ms", "ms"),
            ("core.sweep_miss_ratio", "ratio"),
            ("core.structure_hit_ratio", "ratio"),
            ("core.update_ms", "ms"),
            ("core.update_fallbacks", "count"),
            ("models.warm_retrain_iters", "count"),
            ("core.artifacts_invalidated", "count"),
        ],
        "serve-dashboard" => &[
            ("core.sweep_miss_ratio", "ratio"),
            ("core.structure_hit_ratio", "ratio"),
            ("serve.request_ms", "ms"),
            ("serve.query_ms", "ms"),
            ("serve.overhead_ms", "ms"),
            ("serve.stalled_share", "ratio"),
            ("serve.cold_share", "ratio"),
            ("serve.update_ms", "ms"),
            ("serve.batch_ratio", "ratio"),
            ("gen.lag_ms", "ms"),
        ],
        "families-german500" => &[
            ("models.fit_ms", "ms"),
            ("influence.build_ms", "ms"),
            ("influence.score_phase_ms", "ms"),
            ("influence.scored", "count"),
            ("influence.score_us", "us"),
            ("influence.forest.score_us", "us"),
            ("influence.mlp.score_us", "us"),
            ("influence.mlp.build_ms", "ms"),
        ],
        _ => &[],
    }
}

/// One measured value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    checks: Vec<(String, bool, String)>,
    lines: Vec<String>,
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// The recorded metric `name`, if any.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics.get(name).copied()
    }

    /// Records `<stem>_p50_ms` from `samples_ms`, plus `<stem>_p<tail>_ms`
    /// when the samples support that tail; otherwise the highest tail they
    /// do support, and a line saying which tail was left out.
    pub fn latency(&mut self, stem: &str, samples_ms: &[f64], tail: u32) {
        let n = samples_ms.len();
        self.set(
            &format!("{stem}_p50_ms"),
            "ms",
            stats::median(samples_ms),
            n,
        );
        if stats::tail_supported(n, tail) {
            let value = stats::percentile(samples_ms, f64::from(tail) / 100.0);
            self.set(&format!("{stem}_p{tail}_ms"), "ms", value, n);
            return;
        }
        let fallback = stats::highest_tail(n);
        self.line(format!(
            "{stem}_p{tail}_ms not reported: {n} samples hold fewer than 10 beyond it{}",
            fallback.map_or(String::new(), |p| format!("; p{p} reported instead"))
        ));
        if let Some(p) = fallback {
            let value = stats::percentile(samples_ms, f64::from(p) / 100.0);
            self.set(&format!("{stem}_p{p}_ms"), "ms", value, n);
        }
    }

    /// Records one output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Whether every check passed (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Adds a free-form report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Report lines: free-form lines, checks, then every metric recorded.
    pub fn render_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.lines.iter().map(|l| format!("# {l}")).collect();
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            out.push(format!("# check {name}: {verdict} {detail}"));
        }
        for (name, m) in &self.metrics {
            out.push(format!(
                "# metric {name} = {} {} (samples {})",
                m.value, m.unit, m.samples
            ));
        }
        out.push(format!(
            "# operations attempted {} failed {}",
            self.attempted, self.failed
        ));
        out
    }

    /// The final JSON line over `catalog`, or why there is none: a catalog
    /// metric went unmeasured, or no operation was attempted.
    pub fn json_line(&self, catalog: &[(&str, &str)]) -> Result<String, String> {
        let mut missing = Vec::new();
        let mut fields = Vec::new();
        for &(name, unit) in catalog {
            match self.metrics.get(name) {
                Some(m) if m.value.is_finite() && m.unit == unit => fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    m.value
                )),
                _ => missing.push(name),
            }
        }
        if !missing.is_empty() {
            return Err(format!(
                "metrics missing or not finite: {}",
                missing.join(", ")
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn catalogs_have_valid_unique_names() {
        for catalog in [END_TO_END, PER_LAYER] {
            let mut seen = std::collections::BTreeSet::new();
            for &(name, unit) in catalog {
                assert!(valid_name(name), "{name}");
                assert!(seen.insert(name), "{name} listed twice");
                assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            }
        }
    }

    #[test]
    fn latency_reports_a_tail_only_with_ten_samples_beyond_it() {
        let mut r = Report::default();
        let xs: Vec<f64> = (0..80).map(f64::from).collect();
        r.latency("explain", &xs, 90);
        assert!(r.get("explain_p90_ms").is_none());
        assert_eq!(r.get("explain_p75_ms").map(|m| m.samples), Some(80));
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        r.latency("explain", &xs, 90);
        assert!(r.get("explain_p90_ms").is_some());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        for &(name, unit) in END_TO_END {
            r.set(name, unit, 1.25, 3);
        }
        r.check("dummy", true, "");
        assert!(r.json_line(END_TO_END).is_err(), "nothing attempted");
        r.attempted = 5;
        let line = r.json_line(END_TO_END).expect("complete");
        let parsed = gopher_repro::gopher_json::parse(&line).expect("valid JSON");
        let gopher_repro::gopher_json::Json::Obj(fields) = &parsed else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = parsed.get("metrics").expect("metrics");
        for &(name, unit) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
            assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.25));
        }
        assert!(r.json_line(PER_LAYER).is_err());
    }
}
