//! **Gopher** — interpretable data-based explanations for fairness debugging.
//!
//! A from-scratch Rust implementation of Pradhan, Zhu, Glavic, Salimi:
//! *"Interpretable Data-Based Explanations for Fairness Debugging"*
//! (SIGMOD 2022). Given a trained classifier that violates a fairness metric,
//! Gopher finds compact **patterns** (conjunctions of predicates) describing
//! training-data subsets that are *causally responsible* for the bias:
//! removing — or homogeneously updating — those subsets and retraining would
//! shrink the bias the most.
//!
//! # Quickstart
//!
//! The API is query-oriented: build one [`ExplainSession`] per trained model
//! (this pays for encoding, training, Hessian precomputation, and predicate
//! generation once), then answer as many [`ExplainRequest`]s as you like —
//! singly or batched, across metrics, estimators, k, and thresholds.
//!
//! ```
//! use gopher_core::{ExplainRequest, SessionBuilder};
//! use gopher_data::generators::german;
//! use gopher_fairness::FairnessMetric;
//! use gopher_models::LogisticRegression;
//! use gopher_prng::Rng;
//!
//! let mut rng = Rng::new(0);
//! let (train, test) = german(600, 0).train_test_split(0.3, &mut rng);
//! let session = SessionBuilder::new()
//!     .fit(|n_cols| LogisticRegression::new(n_cols, 1e-3), &train, &test);
//!
//! // One cheap query…
//! let response = session.explain(&ExplainRequest::default().with_k(3));
//! assert!(response.report.base_bias > 0.0);
//! for exp in &response.report.explanations {
//!     println!("{} (support {:.1}%)", exp.pattern_text, 100.0 * exp.support);
//! }
//! // …and a second metric against the same session costs only the sweep,
//! // with every pattern coverage already cached.
//! let eo = session.explain(
//!     &ExplainRequest::default().with_metric(FairnessMetric::EqualOpportunity),
//! );
//! assert_eq!(eo.report.metric, FairnessMetric::EqualOpportunity);
//! ```
//!
//! # Modules
//!
//! * [`session`] — the query-oriented API: [`SessionBuilder`],
//!   [`ExplainSession`], [`ExplainRequest`]/[`ExplainResponse`], and batched
//!   multi-metric queries over one lattice sweep.
//! * [`explainer`] — the report types every answer carries
//!   ([`Explanation`], [`ExplanationReport`]).
//! * [`update`] — update-based explanations (paper Section 5): homogeneous
//!   perturbations found by projected gradient descent.
//! * [`fo_tree`] — the FO-tree baseline the paper compares against (a CART
//!   regression tree over per-point first-order influences).
//! * [`mod@mitigate`] — a greedy pre-processing repair loop built on the explainer
//!   (remove the top pattern, retrain, re-audit).
//! * [`kmeans`] / [`gmm`] / [`lof`] / [`poison_detect`] — the data-error detection
//!   pipeline of paper §6.7 (anchoring-attack poisons, influence-ranked
//!   clusters vs. a LocalOutlierFactor baseline).
//! * [`report`] — plain-text table rendering for the experiment harness.

#![forbid(unsafe_code)]

pub mod explainer;
pub mod fo_tree;
pub mod gmm;
pub mod kmeans;
pub mod lof;
pub mod mitigate;
pub mod poison_detect;
pub mod report;
pub mod session;
pub mod update;

pub use explainer::{Explanation, ExplanationReport};
pub use mitigate::{mitigate, MitigationConfig, MitigationReport};
pub use session::{
    ExplainRequest, ExplainResponse, ExplainSession, SessionBuilder, SessionStats, UpdateReport,
    THREADS_ENV,
};
pub use update::{FeatureChange, UpdateConfig, UpdateExplanation};
