//! Interpretable pre-processing repair: iteratively remove Gopher's top
//! explanation and retrain until the statistical-parity gap is acceptable.
//!
//! Every removal is a human-readable pattern, so (unlike blind reweighing)
//! the data owner can veto a repair that would delete the wrong people.
//!
//! ```sh
//! cargo run --release --example bias_mitigation
//! ```

use gopher_core::mitigate::{mitigate, MitigationConfig};
use gopher_repro::prelude::*;

fn main() {
    let mut rng = Rng::new(55);
    let (train, test) = german(1_000, 55).train_test_split(0.3, &mut rng);

    let report = mitigate(
        |n_cols| LogisticRegression::new(n_cols, 1e-3),
        &train,
        &test,
        &ExplainRequest::default(),
        &MitigationConfig {
            target_bias: 0.05,
            max_rounds: 5,
            max_removed_fraction: 0.3,
        },
    );

    println!("=== greedy pattern-removal mitigation ===\n");
    for (i, round) in report.rounds.iter().enumerate() {
        println!(
            "round {}: removed {:>3} rows matching {}\n          bias {:.3} → {:.3} (accuracy {:.3})",
            i + 1,
            round.removed_rows,
            round.pattern_text,
            round.bias_before,
            round.bias_after,
            round.accuracy_after,
        );
    }
    println!(
        "\nfinal bias {:.3} (target 0.05, achieved: {}), accuracy {:.3}, removed {:.1}% of training data",
        report.final_bias,
        report.achieved,
        report.final_accuracy,
        100.0 * report.removed_fraction,
    );
}
