//! §6.4 baseline comparison: Gopher vs FO-tree.
//!
//! The FO-tree fits a regression tree on per-point first-order influences
//! and reads explanations off its most influential nodes. The paper's
//! finding (which this experiment reproduces in shape): FO-tree patterns
//! tend to have *higher support and lower bias reduction* — i.e. lower
//! interestingness — than Gopher's.

use crate::workloads::{prepare, train_lr, DatasetKind, Scale};
use gopher_core::fo_tree::{FoTree, FoTreeConfig};
use gopher_core::report::{pct, TextTable};
use gopher_core::{ExplainRequest, SessionBuilder};
use gopher_fairness::FairnessMetric;
use gopher_influence::{BiasEval, BiasInfluence, Estimator};

/// Runs the comparison on one dataset.
pub fn fotree(kind: DatasetKind, scale: Scale, seed: u64) -> String {
    let n = scale.rows(kind);
    let p = prepare(kind, n, seed);
    let model = train_lr(&p);

    // Gopher's side: one session answers the explanation query *and* backs
    // the FO-tree's per-point influence scores with the same engine handle.
    let session = SessionBuilder::new().build(model, &p.train_raw, &p.test_raw);
    let report = session
        .explain(&ExplainRequest::default().with_ground_truth(true))
        .report;

    // FO-tree side: per-point first-order responsibilities.
    let bi = BiasInfluence::new(
        session.backend(),
        FairnessMetric::StatisticalParity,
        &p.test,
    );
    let influence: Vec<f64> = (0..p.train.n_rows())
        .map(|r| {
            bi.responsibility(
                &p.train,
                &[r as u32],
                Estimator::FirstOrder,
                BiasEval::ChainRule,
            )
        })
        .collect();
    let tree = FoTree::fit(&p.train_raw, &influence, &FoTreeConfig::default());
    let nodes = tree.top_nodes(&p.train_raw, report.explanations.len().max(3));

    let mut out = String::new();
    out.push_str(&format!(
        "== FO-tree baseline comparison on {} (both sides ground-truth verified) ==\n\n",
        kind.name()
    ));
    let mut table = TextTable::new(&["Method", "Pattern", "Support", "Δbias (ground truth)"]);
    for e in &report.explanations {
        table.row_owned(vec![
            "Gopher".into(),
            e.pattern_text.clone(),
            pct(e.support),
            e.ground_truth_responsibility
                .map(pct)
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    for node in &nodes {
        let (gt, _) =
            session.ground_truth_responsibility(FairnessMetric::StatisticalParity, &node.rows);
        table.row_owned(vec![
            "FO-tree".into(),
            node.pattern_text.clone(),
            pct(node.support),
            pct(gt),
        ]);
    }
    out.push_str(&table.render());

    // Summary line: mean interestingness (GT responsibility / support).
    let mean_u = |items: Vec<(f64, f64)>| -> f64 {
        if items.is_empty() {
            return 0.0;
        }
        items.iter().map(|(r, s)| r / s).sum::<f64>() / items.len() as f64
    };
    let gopher_u = mean_u(
        report
            .explanations
            .iter()
            .filter_map(|e| e.ground_truth_responsibility.map(|r| (r, e.support)))
            .collect(),
    );
    let tree_u = mean_u(
        nodes
            .iter()
            .map(|n| {
                (
                    session
                        .ground_truth_responsibility(FairnessMetric::StatisticalParity, &n.rows)
                        .0,
                    n.support,
                )
            })
            .collect(),
    );
    out.push_str(&format!(
        "\nmean ground-truth interestingness — Gopher: {gopher_u:.2}, FO-tree: {tree_u:.2}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_renders_both_methods() {
        let report = fotree(DatasetKind::German, Scale::Small, 9);
        assert!(report.contains("Gopher"));
        assert!(report.contains("FO-tree"));
        assert!(report.contains("mean ground-truth interestingness"));
    }
}
