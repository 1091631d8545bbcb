//! Debugging gender bias in an income model (synthetic Adult census data)
//! with the paper's neural network, and comparing Gopher's explanations
//! against the FO-tree baseline.
//!
//! ```sh
//! cargo run --release --example income_model_debugging
//! ```

use gopher_core::fo_tree::{FoTree, FoTreeConfig};
use gopher_core::report::{pct, TextTable};
use gopher_influence::{BiasEval, BiasInfluence, Estimator};
use gopher_repro::prelude::*;

fn main() {
    let mut rng = Rng::new(23);
    let (train, test) = adult(4_000, 23).train_test_split(0.3, &mut rng);

    // The paper's Adult experiments use the 1×10 feed-forward network. Its
    // loss is non-convex, so the influence engine damps the Hessian; the
    // paper observes (and we reproduce) that influence estimates are less
    // faithful here than for convex models — Gopher still finds patterns
    // that genuinely reduce bias.
    let mut init_rng = Rng::new(24);
    let session = SessionBuilder::new().fit(
        |n_cols| Mlp::new(n_cols, 10, 1e-3, &mut init_rng),
        &train,
        &test,
    );

    let report = session.explain(&ExplainRequest::default()).report;
    println!(
        "=== income model (MLP): statistical parity bias {:.3}, accuracy {:.3} ===\n",
        report.base_bias, report.accuracy
    );
    let mut table = TextTable::new(&["Method", "Pattern", "Support", "Δbias (retrained)"]);
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

    // FO-tree baseline: regress per-point first-order influences on the raw
    // features and read patterns off the most influential nodes. The
    // session's influence engine serves this advanced query too.
    let bi = BiasInfluence::new(
        session.backend(),
        FairnessMetric::StatisticalParity,
        session.test(),
    );
    let influence: Vec<f64> = (0..session.train().n_rows())
        .map(|r| {
            bi.responsibility(
                session.train(),
                &[r as u32],
                Estimator::FirstOrder,
                BiasEval::ChainRule,
            )
        })
        .collect();
    let tree = FoTree::fit(session.train_raw(), &influence, &FoTreeConfig::default());
    for node in tree.top_nodes(session.train_raw(), 3) {
        let (gt, _) =
            session.ground_truth_responsibility(FairnessMetric::StatisticalParity, &node.rows);
        table.row_owned(vec![
            "FO-tree".into(),
            node.pattern_text,
            pct(node.support),
            pct(gt),
        ]);
    }
    println!("{}", table.render());
}
