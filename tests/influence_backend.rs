//! Refactor-identity pins for the influence-backend trait split.
//!
//! The `InfluenceBackend` extraction must be invisible for the analytic
//! families: an `ExplainSession<LogisticRegression | LinearSvm | Mlp>`
//! routed through `HessianBackend` has to produce **bit-identical**
//! responsibilities, ground-truth retrains, and incremental updates to the
//! direct `InfluenceEngine`/`BiasInfluence` code path the session inlined
//! before the split. The `Forest` family rides the same session machinery
//! through `UnlearningBackend`, whose estimates are pinned against the
//! scratch-retrain oracle on German-1k instead (there is no pre-split
//! reference to be identical to).

use gopher_core::{ExplainRequest, SessionBuilder};
use gopher_data::generators::german;
use gopher_data::{Dataset, Encoder};
use gopher_influence::{
    BiasEval, BiasInfluence, HessianBackend, InfluenceBackend, InfluenceEngine, ModelFamily,
    RebuildCause,
};
use gopher_json::Json;
use gopher_models::{Differentiable, Forest, ForestConfig, LinearSvm, LogisticRegression, Mlp};
use gopher_prng::Rng;
use gopher_serve::api;

fn split(n: usize, seed: u64) -> (Dataset, Dataset) {
    let mut rng = Rng::new(seed);
    german(n, seed).train_test_split(0.3, &mut rng)
}

/// Explains through the generic session (backend path), then recomputes
/// every reported number through the pre-split shape — `session.engine()` +
/// `BiasInfluence` — and demands `f64::to_bits` equality.
fn assert_hessian_family_bit_identical<M>(make: impl Fn(usize) -> M)
where
    M: ModelFamily<Backend = HessianBackend<M>> + Differentiable,
{
    let (train, test) = split(800, 41);
    let session = SessionBuilder::new().fit(&make, &train, &test);
    let req = ExplainRequest::default().with_k(3).with_ground_truth(true);
    let report = session.explain(&req).report;
    assert!(
        !report.explanations.is_empty(),
        "german must yield explanations"
    );

    // The session's encoded train/test are derived deterministically from
    // the raw datasets; refitting the encoder here reproduces them bit for
    // bit, so the direct path sees exactly the session's inputs.
    let encoder = Encoder::fit(&train);
    let enc_train = encoder.transform(&train);
    let enc_test = encoder.transform(&test);
    let bi = BiasInfluence::new(session.engine(), req.metric, &enc_test);
    for e in &report.explanations {
        let rows = e.candidate.coverage.to_indices();
        let direct = bi.responsibility(&enc_train, &rows, req.estimator, req.bias_eval);
        assert_eq!(
            e.est_responsibility.to_bits(),
            direct.to_bits(),
            "estimated responsibility drifted through the backend: {} vs {}",
            e.est_responsibility,
            direct
        );
        // Ground truth: the batched path (`ground_truth_models`) inside
        // `explain` must agree bit for bit with the single-subset oracle.
        let (gt, _) = session.ground_truth_responsibility(req.metric, &rows);
        let reported = e
            .ground_truth_responsibility
            .expect("ground truth requested");
        assert_eq!(
            reported.to_bits(),
            gt.to_bits(),
            "ground-truth responsibility drifted through the backend"
        );
    }
}

#[test]
fn lr_explanations_are_bit_identical_through_the_backend() {
    assert_hessian_family_bit_identical(|n| LogisticRegression::new(n, 1e-3));
}

#[test]
fn svm_explanations_are_bit_identical_through_the_backend() {
    assert_hessian_family_bit_identical(|n| LinearSvm::new(n, 1e-3));
}

#[test]
fn mlp_explanations_are_bit_identical_through_the_backend() {
    let seed_rng = Rng::new(77);
    assert_hessian_family_bit_identical(move |n| Mlp::new(n, 10, 1e-3, &mut seed_rng.clone()));
}

#[test]
fn lr_update_through_the_backend_matches_the_direct_engine_path() {
    let (train, test) = split(900, 43);
    let mut session =
        SessionBuilder::new().fit(|n| LogisticRegression::new(n, 1e-3), &train, &test);

    // Direct replica of the pre-split update path: a bare engine over the
    // same encoded data, fed the exact row deltas the session computes.
    let encoder = Encoder::fit(&train);
    let enc_train = encoder.transform(&train);
    let mut model = LogisticRegression::new(enc_train.n_cols(), 1e-3);
    gopher_models::train::fit_default(&mut model, &enc_train);
    let mut engine = InfluenceEngine::new(model, &enc_train, session.backend().config().clone());
    assert_eq!(
        session.model().params(),
        engine.model().params(),
        "replica must start from the session's exact parameters"
    );

    let removed = [3usize, 11, 42, 100, 101, 250, 333];
    let added = german(5, 99);
    let report = session.update(&removed, &added);
    assert_eq!(report.rows_removed, removed.len());

    let mut mask = vec![false; enc_train.n_rows()];
    for &r in &removed {
        mask[r] = true;
    }
    let new_train = enc_train.patched(&mask, &encoder.transform(&added));
    let keep = enc_train.n_rows() - removed.len();
    let removed_pairs: Vec<(&[f64], f64)> = removed
        .iter()
        .map(|&r| (enc_train.x.row(r), enc_train.y[r]))
        .collect();
    let added_pairs: Vec<(&[f64], f64)> = (keep..new_train.n_rows())
        .map(|r| (new_train.x.row(r), new_train.y[r]))
        .collect();
    let direct = engine.update(&new_train, &removed, &removed_pairs, &added_pairs);

    assert_eq!(report.engine.rebuild, direct.rebuild);
    let session_bits: Vec<u64> = session
        .model()
        .params()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let direct_bits: Vec<u64> = engine
        .model()
        .params()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    assert_eq!(
        session_bits, direct_bits,
        "updated parameters must be byte-equal through the backend"
    );
}

#[test]
fn forest_unlearning_sign_agrees_with_scratch_retrain_on_german_1k() {
    let (train, test) = split(1000, 29);
    let session =
        SessionBuilder::new().fit(|n| Forest::new(n, ForestConfig::default()), &train, &test);
    let mut req = ExplainRequest::default().with_k(5).with_ground_truth(true);
    // Hard bias is a step function of the forest's vote, so smooth re-eval
    // keeps small subsets from rounding to exactly zero change.
    req.bias_eval = BiasEval::ReEvalSmooth;
    let report = session.explain(&req).report;
    assert!(
        report.base_bias > 0.05,
        "german forest baseline must show bias, got {}",
        report.base_bias
    );
    assert!(!report.explanations.is_empty());

    // The acceptance bar: the leaf-level unlearning estimate points the
    // same way as the scratch-retrain oracle on at least 90% of the top-k
    // (agreeing-on-zero counts as agreement).
    let mut agree = 0usize;
    let mut total = 0usize;
    for e in &report.explanations {
        let gt = e
            .ground_truth_responsibility
            .expect("ground truth requested");
        total += 1;
        let same_sign = (e.est_responsibility >= 0.0) == (gt >= 0.0);
        let both_negligible = e.est_responsibility.abs() < 1e-9 && gt.abs() < 1e-9;
        if same_sign || both_negligible {
            agree += 1;
        }
    }
    assert!(
        agree * 10 >= total * 9,
        "unlearning estimate sign-agrees on {agree}/{total} top patterns (needs >= 90%)"
    );
}

#[test]
fn forest_update_is_exact_for_removals_and_rebuilds_for_additions() {
    let (train, test) = split(600, 57);
    let mut session =
        SessionBuilder::new().fit(|n| Forest::new(n, ForestConfig::default()), &train, &test);
    let empty = train.select_rows(&[]);

    // Removal-only delta: leaf-level unlearning, no rebuild. (Per-tree
    // exactness against a refit on the surviving bootstrap rows is pinned
    // by `gopher-models`' unit tests; bootstraps are frozen at fit, so a
    // scratch refit over the reduced dataset draws *different* bootstraps
    // and is intentionally not the comparison here.)
    let n_before = session.model().n_train_rows();
    let report = session.update(&[2, 30, 77], &empty);
    assert_eq!(
        report.engine.rebuild, None,
        "removal-only forest delta must take the exact unlearning path"
    );
    assert_eq!(session.model().n_train_rows(), n_before - 3);
    assert!(session.accuracy().is_finite());

    // Any addition: documented full-rebuild fallback.
    let report = session.update(&[], &german(4, 91));
    assert_eq!(
        report.engine.rebuild,
        Some(RebuildCause::ForestAddition),
        "additions must fall back to a full forest rebuild"
    );
}

/// The cause a fresh German session's first update reports.
fn first_update_cause<M: ModelFamily>(
    make: impl Fn(usize) -> M,
    rows: usize,
    seed: u64,
    removed: &[usize],
    added: &Dataset,
) -> Option<RebuildCause> {
    let (train, test) = split(rows, seed);
    let mut session = SessionBuilder::new().fit(make, &train, &test);
    session.update(removed, added).engine.rebuild
}

/// Every [`RebuildCause`], each from one seeded delta: the MLP has no
/// rank-one Hessian to patch, a forest cannot unlearn its way to added
/// rows, a 100-row swap on this SVM split crosses enough margins to stall
/// the warm retrain, and a 20 % LR removal moves θ past the drift bound.
#[test]
fn each_rebuild_cause_is_named() {
    let mlp_rng = Rng::new(5);
    let every_fifth: Vec<usize> = (0..84).map(|i| i * 5).collect();
    let every_seventh: Vec<usize> = (0..100).map(|i| i * 7).collect();
    let cases = [
        (
            "mlp single-row swap",
            first_update_cause(
                |n| Mlp::new(n, 4, 1e-3, &mut mlp_rng.clone()),
                300,
                34,
                &[0],
                &german(1, 35),
            ),
            "no-rank-one-hessian",
        ),
        (
            "forest addition",
            first_update_cause(
                |n| Forest::new(n, ForestConfig::default()),
                300,
                36,
                &[],
                &german(2, 37),
            ),
            "forest-addition",
        ),
        (
            "svm 100-row swap",
            first_update_cause(
                |n| LinearSvm::new(n, 1e-3),
                1000,
                8,
                &every_seventh,
                &german(100, 9),
            ),
            "retrain-stalled",
        ),
        (
            "lr 20% removal",
            first_update_cause(
                |n| LogisticRegression::new(n, 1e-3),
                600,
                38,
                &every_fifth,
                &german(0, 39),
            ),
            "drift",
        ),
    ];
    for (case, cause, want) in cases {
        // The JSON members `/update` and `gopher update --json` report.
        let [(_, name), (_, drift)] = api::rebuild_cause_json(cause);
        assert_eq!(name.as_str(), Some(want), "{case}: {cause:?}");
        match cause {
            Some(RebuildCause::Drift { relative }) => {
                assert!(relative > 1e-2, "{case}: drift {relative} within the bound");
                assert_eq!(drift.as_f64(), Some(relative), "{case}");
            }
            _ => assert_eq!(drift, Json::Null, "{case}"),
        }
    }
}
