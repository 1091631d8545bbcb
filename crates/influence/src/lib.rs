//! Influence-function machinery: estimating the effect of removing a subset
//! of the training data on model parameters and on model bias, without
//! retraining (paper Section 4.1).
//!
//! # Objective and notation
//!
//! Training minimizes `J(θ) = (1/n) Σᵢ L(zᵢ, θ) + (λ/2)‖θ‖²`. At the trained
//! optimum θ*, define
//!
//! * `g_S  = Σ_{z∈S} ∇L(z, θ*)` — the subset's data-gradient sum,
//! * `g̃_S = g_S + mλθ*` — including the subset's share of the regularizer,
//! * `H    = (1/n) Σ ∇²L(z, θ*) + λI` — the full damped Hessian,
//! * `H̃_S = (1/m) Σ_{z∈S} ∇²L(z, θ*) + λI` — the subset's mean Hessian.
//!
//! Removing `S` (m = |S|) and retraining yields parameters whose exact
//! quadratic-model characterization is the **Newton step**
//! `Δθ = (nH − mH̃_S)⁻¹ g̃_S` (exact for quadratic losses; see the ridge
//! regression test). The estimators offered by [`Estimator`]:
//!
//! * [`Estimator::FirstOrder`] — the paper's FO influence: the sum of
//!   single-point influence functions, `Δθ = (1/n) H⁻¹ g_S` (Koh & Liang).
//! * [`Estimator::SecondOrder`] — the second-order group influence
//!   (Basu et al. 2020, paper Eq. 10): the Newton step's Neumann expansion
//!   truncated at second order,
//!   `Δθ = Δθ₁ + (m/n) H⁻¹ H̃_S Δθ₁` with `Δθ₁ = (1/n) H⁻¹ g̃_S`.
//!   The correction term couples the group members through their joint
//!   Hessian — exactly the correlation effect FO misses.
//! * [`Estimator::NewtonStep`] — solves the full Newton system by conjugate
//!   gradient (matrix-free). Our extension; a cheap high-accuracy reference.
//! * [`Estimator::OneStepGd`] — the paper's Eq. 13 surrogate: one explicit
//!   gradient-descent step away from the removed subset's pull.
//!
//! Bias changes follow by the chain rule (paper Eq. 11):
//! `ΔF ≈ ∇θF(θ*, D_test)ᵀ Δθ`, with `∇θF` from `gopher-fairness`.
//! [`BiasInfluence`] also supports re-evaluating the (hard or smooth) metric
//! at `θ* + Δθ`, which is often more faithful than the linearization.

#![forbid(unsafe_code)]

mod backend;
mod bias;
mod engine;
mod retrain;

pub use backend::{HessianBackend, InfluenceBackend, ModelFamily, SubsetScorer, UnlearningBackend};
pub use bias::{responsibility, BiasEval, BiasInfluence, BiasPrecomp};
pub use engine::{EngineUpdateReport, Estimator, InfluenceConfig, InfluenceEngine, RebuildCause};
pub use retrain::{retrain_updated, retrain_without, retrain_without_many, RetrainOutcome};
