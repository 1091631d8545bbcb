//! Table 7 (lattice scalability) and the design-choice ablations.

use crate::workloads::{prepare, train_lr, DatasetKind};
use gopher_core::report::{fmt_duration, TextTable};
use gopher_core::{ExplainRequest, SessionBuilder};
use gopher_fairness::FairnessMetric;
use gopher_influence::{
    retrain_without, BiasEval, BiasInfluence, Estimator, InfluenceConfig, InfluenceEngine,
};
use gopher_patterns::LatticeConfig;
use gopher_prng::Rng;

/// Table 7: per-level execution time, diversity-filtering time and candidate
/// counts as the maximum number of predicates (lattice level) grows — plus a
/// support-threshold sweep over the same session.
///
/// Runs through [`gopher_core::ExplainSession`] (not the raw lattice API)
/// on purpose: the per-level numbers come from one staged sweep, and the
/// τ-sweep section shows the session's coverage cache at work — after the
/// loosest τ materializes its supported merges, every tighter τ reads them
/// back instead of intersecting again (its coverage misses read 0).
pub fn table7(n_rows: usize, max_level: usize, seed: u64) -> String {
    let p = prepare(DatasetKind::German, n_rows, seed);
    let model = train_lr(&p);
    let session = SessionBuilder::new().build(model, &p.train_raw, &p.test_raw);
    let request_at = |tau: f64| ExplainRequest {
        lattice: LatticeConfig {
            support_threshold: tau,
            max_predicates: max_level,
            prune_by_responsibility: false, // count the raw space, as the paper's Table 7 does
        },
        k: 5,
        estimator: Estimator::FirstOrder,
        ground_truth_for_topk: false,
        ..Default::default()
    };

    let response = session.explain(&request_at(0.05));
    let stats = &response.report.stats;

    let mut out = String::new();
    out.push_str(&format!(
        "== Table 7: lattice scalability (German, τ = 5%, top-5 filtering, n = {n_rows}) ==\n\n"
    ));
    let mut table = TextTable::new(&["Level", "Execution", "#candidates (level)", "#cumulative"]);
    let mut cumulative = 0usize;
    for level in &stats.levels {
        cumulative += level.kept;
        table.row_owned(vec![
            level.level.to_string(),
            fmt_duration(level.duration),
            level.kept.to_string(),
            cumulative.to_string(),
        ]);
    }
    out.push_str(&table.render());
    let sweep_time: std::time::Duration = stats.levels.iter().map(|l| l.duration).sum();
    out.push_str(&format!(
        "\nFiltering (top-5 diversity selection over all {} candidates): {}\n",
        stats.total_kept(),
        fmt_duration(response.report.search_time.saturating_sub(sweep_time)),
    ));
    out.push_str(&format!(
        "total responsibility evaluations: {}\n",
        stats.total_scored
    ));

    // The analyst's min-support sweep, loosest τ first: 0.02 materializes
    // its supported merges, 0.05 repeats the request above verbatim
    // (answered from the scored sweep tier), and the tighter thresholds
    // read their coverages back from the cache — zero new intersections
    // after the first pass.
    out.push_str(&format!(
        "\n== Support-threshold sweep (same session, depth {max_level}) ==\n\n"
    ));
    let mut sweep = TextTable::new(&["τ", "Query", "#candidates", "Coverage misses"]);
    for tau in [0.02, 0.05, 0.1, 0.2] {
        let before = session.stats().coverage_misses;
        let r = session.explain(&request_at(tau));
        sweep.row_owned(vec![
            format!("{tau:.2}"),
            fmt_duration(r.query_time),
            r.report.stats.total_kept().to_string(),
            (session.stats().coverage_misses - before).to_string(),
        ]);
    }
    out.push_str(&sweep.render());
    let final_stats = session.stats();
    out.push_str(&format!(
        "\ncoverage cache: {} entries, {} hits, {} misses\n",
        final_stats.cached_coverages, final_stats.coverage_hits, final_stats.coverage_misses,
    ));
    out
}

/// Design-choice ablations called out in DESIGN.md:
///
/// 1. **Hessian damping** — accuracy of the second-order estimate as the
///    damping grows (too much damping washes the curvature out).
/// 2. **Bias evaluation** — chain rule vs re-evaluating the smooth/hard
///    metric at the shifted parameters.
/// 3. **Responsibility pruning** — candidate counts, search time, and
///    whether the kept top-3 quality survives the pruning.
pub fn ablations(n_rows: usize, seed: u64) -> String {
    let mut out = String::new();
    out.push_str("== Ablations ==\n\n");
    let p = prepare(DatasetKind::German, n_rows, seed);
    let model = train_lr(&p);

    // Shared ground truth for a fixed evaluation set of subsets.
    let mut rng = Rng::new(seed ^ 0xAB1A);
    let subsets: Vec<Vec<u32>> = (0..8)
        .map(|i| {
            let fraction = [0.05, 0.10, 0.20, 0.30][i % 4];
            crate::workloads::random_subset(p.train.n_rows(), fraction, &mut rng)
        })
        .collect();
    let metric = FairnessMetric::StatisticalParity;
    let base_engine = InfluenceEngine::new(model.clone(), &p.train, InfluenceConfig::default());
    let bi0 = BiasInfluence::new(&base_engine, metric, &p.test);
    let gt: Vec<f64> = subsets
        .iter()
        .map(|rows| {
            let outcome = retrain_without(&model, &p.train, rows);
            gopher_fairness::smooth_bias(metric, &outcome.model, &p.test) - bi0.base_smooth_bias()
        })
        .collect();

    // (1) damping sweep.
    out.push_str("-- (1) Hessian damping vs second-order accuracy --\n");
    let mut t1 = TextTable::new(&["Damping", "Mean |ΔF_est − ΔF_gt|"]);
    for damping in [1e-8, 1e-6, 1e-4, 1e-2, 1e-1] {
        let engine = InfluenceEngine::new(model.clone(), &p.train, InfluenceConfig { damping });
        let bi = BiasInfluence::new(&engine, metric, &p.test);
        let err: f64 = subsets
            .iter()
            .zip(&gt)
            .map(|(rows, &g)| {
                (bi.bias_change(&p.train, rows, Estimator::SecondOrder, BiasEval::ChainRule) - g)
                    .abs()
            })
            .sum::<f64>()
            / subsets.len() as f64;
        t1.row_owned(vec![format!("{damping:.0e}"), format!("{err:.5}")]);
    }
    out.push_str(&t1.render());

    // (2) bias evaluation mode.
    out.push_str("\n-- (2) Bias-change evaluation mode (second-order estimator) --\n");
    let mut t2 = TextTable::new(&["Evaluation", "Mean |ΔF_est − ΔF_gt|"]);
    for (name, eval) in [
        ("chain rule (Eq. 11)", BiasEval::ChainRule),
        ("re-eval smooth", BiasEval::ReEvalSmooth),
        ("re-eval hard", BiasEval::ReEvalHard),
    ] {
        let err: f64 = subsets
            .iter()
            .zip(&gt)
            .map(|(rows, &g)| {
                (bi0.bias_change(&p.train, rows, Estimator::SecondOrder, eval) - g).abs()
            })
            .sum::<f64>()
            / subsets.len() as f64;
        t2.row_owned(vec![name.to_string(), format!("{err:.5}")]);
    }
    out.push_str(&t2.render());

    // (3) responsibility pruning.
    out.push_str("\n-- (3) Lattice responsibility pruning --\n");
    let mut t3 = TextTable::new(&[
        "Pruning",
        "Candidates",
        "Search time",
        "Top-3 mean GT responsibility",
    ]);
    // One session serves both ablation arms: only the lattice config (a
    // per-request knob) differs between them.
    let session = SessionBuilder::new().build(model.clone(), &p.train_raw, &p.test_raw);
    for prune in [true, false] {
        let request = ExplainRequest {
            lattice: LatticeConfig {
                prune_by_responsibility: prune,
                max_predicates: 3,
                ..Default::default()
            },
            ground_truth_for_topk: true,
            ..Default::default()
        };
        let report = session.explain(&request).report;
        let mean_gt = report
            .explanations
            .iter()
            .filter_map(|e| e.ground_truth_responsibility)
            .sum::<f64>()
            / report.explanations.len().max(1) as f64;
        t3.row_owned(vec![
            if prune { "on (paper)" } else { "off" }.to_string(),
            report.stats.total_kept().to_string(),
            fmt_duration(report.search_time),
            format!("{mean_gt:.3}"),
        ]);
    }
    out.push_str(&t3.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_reports_levels() {
        let report = table7(300, 3, 5);
        assert!(report.contains("Level"));
        assert!(report.contains("Filtering"));
        // Levels 1..=3 present.
        assert!(
            report
                .lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .count()
                >= 2
        );
        // The τ sweep reports each threshold's coverage misses.
        assert!(report.contains("Support-threshold sweep"));
        assert!(report.contains("Coverage misses"));
    }

    #[test]
    fn ablations_cover_three_axes() {
        let report = ablations(300, 6);
        assert!(report.contains("damping"));
        assert!(report.contains("chain rule"));
        assert!(report.contains("pruning") || report.contains("Pruning"));
    }
}
