//! Small dense linear algebra used by the Gopher reproduction.
//!
//! The models in this workspace have at most a few hundred parameters, so a
//! simple row-major dense [`Matrix`] with Cholesky factorization and conjugate
//! gradient is all the influence-function machinery needs, plus row-compressed
//! [`SparseRows`] for per-example vectors that are mostly zero (one-hot
//! features and their gradients). Everything is `f64`, allocation-conscious,
//! and thoroughly unit- and property-tested.

#![forbid(unsafe_code)]

mod cg;
mod cholesky;
mod matrix;
mod sparse;
pub mod vecops;

pub use cg::{conjugate_gradient, CgOutcome};
pub use cholesky::{Cholesky, CholeskyError};
pub use matrix::Matrix;
pub use sparse::{SparseRow, SparseRows};
