//! Predicate patterns over training data and the lattice search that finds
//! the most interesting ones (paper Sections 3 and 4.2).
//!
//! A [`Predicate`] is a single comparison `feature op value`; a [`Pattern`]
//! is a conjunction of predicates describing a training-data subset (its
//! *coverage*, stored as a [`BitSet`] over row ids). The
//! [`lattice::compute_candidates`] search implements Algorithm 1: it builds
//! patterns bottom-up, merging two size-(i−1) patterns that share i−2
//! predicates, pruning by
//!
//! * **support** — `Sup(φ) ≥ τ` (anti-monotone, prunes whole sub-lattices),
//! * **responsibility monotonicity** — a merged pattern must have strictly
//!   higher estimated responsibility than both parents (a heuristic: more
//!   predicates must buy more explanatory power), and
//! * **conflict detection** — contradictory or redundant same-feature
//!   predicate combinations are never generated.
//!
//! [`topk::top_k`] implements Algorithm 2: sort candidates by
//! interestingness `U(φ) = R(φ)/Sup(φ)` and greedily keep those whose
//! containment with every kept pattern stays below the threshold `c`.

#![forbid(unsafe_code)]

mod bitset;
mod candidates;
pub mod coverage;
pub mod index;
pub mod lattice;
mod pattern;
mod predicate;
pub mod topk;

pub use bitset::BitSet;
pub use candidates::{generate_predicates, PredicateTable};
pub use coverage::{CoverageCache, CoverageCacheStats};
pub use index::PredicateIndex;
pub use lattice::{min_count_for, Candidate, LatticeConfig, LevelStats, ScoreFn, SearchStats};
pub use pattern::Pattern;
pub use predicate::{Op, PredValue, Predicate};
