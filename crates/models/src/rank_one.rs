//! The rank-one Hessian kernel: `∇²θ L(z, θ) = w · x̃ x̃ᵀ` with `x̃ = [x, 1]`.
//!
//! Models whose per-example Hessian has this shape (logistic regression,
//! the squared-hinge SVM) state only the weight `w`, through
//! [`Differentiable::hessian_rank_one`](crate::Differentiable::hessian_rank_one).
//! The trait's provided Hessian methods and the influence engine's
//! stored-weight paths all apply it through these two functions, so every
//! consumer computes the same bits. `x̃` is never materialized.

use gopher_linalg::{vecops, Matrix};

/// `out += w (x̃ᵀv) x̃`: the per-example Hessian–vector product. A zero
/// weight adds nothing.
#[inline]
pub fn add_hessian_vec(w: f64, x: &[f64], v: &[f64], out: &mut [f64]) {
    if w == 0.0 {
        return;
    }
    let d = x.len();
    debug_assert_eq!(v.len(), d + 1);
    let scale = w * (vecops::dot(x, &v[..d]) + v[d]);
    vecops::axpy(scale, x, &mut out[..d]);
    out[d] += scale;
}

/// `out += w x̃ x̃ᵀ`: the per-example Hessian. A zero weight, and each row
/// whose factor `w xᵢ` is zero, add nothing.
pub fn add_hessian(out: &mut Matrix, w: f64, x: &[f64]) {
    if w == 0.0 {
        return;
    }
    let d = x.len();
    debug_assert_eq!((out.rows(), out.cols()), (d + 1, d + 1));
    for i in 0..d {
        let s = w * x[i];
        if s == 0.0 {
            continue;
        }
        let row = out.row_mut(i);
        vecops::axpy(s, x, &mut row[..d]);
        row[d] += s;
    }
    let last = out.row_mut(d);
    vecops::axpy(w, x, &mut last[..d]);
    last[d] += w;
}
