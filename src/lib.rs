//! Umbrella crate for the Gopher reproduction workspace.
//!
//! Re-exports the workspace crates under one roof so the examples and
//! integration tests (and downstream users who want a single dependency)
//! can write `use gopher_repro::prelude::*`.
//!
//! The actual functionality lives in the member crates:
//!
//! * [`gopher_core`] — the explainer (start at
//!   [`gopher_core::SessionBuilder`]);
//! * [`gopher_data`] — datasets, encoding, generators, poisoning;
//! * [`gopher_models`] — logistic regression / SVM / MLP / forest + trainers;
//! * [`gopher_fairness`] — fairness metrics and their gradients;
//! * [`gopher_influence`] — per-family influence backends (Hessian-based
//!   estimators, tree unlearning);
//! * [`gopher_patterns`] — predicates, lattice search, top-k selection;
//! * [`gopher_serve`] — the `gopher serve` HTTP daemon: session registry,
//!   wire codecs (start at [`gopher_serve::Server`]);
//! * [`gopher_json`] — the dependency-free JSON codec the CLI and daemon
//!   share;
//! * [`gopher_linalg`] / [`gopher_prng`] — numeric substrate.

#![forbid(unsafe_code)]

pub use gopher_core;
pub use gopher_data;
pub use gopher_fairness;
pub use gopher_influence;
pub use gopher_json;
pub use gopher_linalg;
pub use gopher_models;
pub use gopher_patterns;
pub use gopher_prng;
pub use gopher_serve;

/// The names almost every consumer needs.
pub mod prelude {
    pub use gopher_core::{
        ExplainRequest, ExplainResponse, ExplainSession, SessionBuilder, UpdateConfig,
    };
    pub use gopher_data::generators::{adult, german, sqf};
    pub use gopher_data::{Dataset, Encoded, Encoder};
    pub use gopher_fairness::FairnessMetric;
    pub use gopher_influence::{BiasEval, Estimator, InfluenceBackend, ModelFamily};
    pub use gopher_models::train::{fit_default, fit_gd, fit_newton};
    pub use gopher_models::{
        Differentiable, Forest, ForestConfig, LinearSvm, LogisticRegression, Mlp, Model,
    };
    pub use gopher_patterns::LatticeConfig;
    pub use gopher_prng::Rng;
}
