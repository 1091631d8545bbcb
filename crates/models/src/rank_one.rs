//! The rank-one kernels: a per-example loss of `θᵀx̃` with `x̃ = [x, 1]`
//! has gradient `g x̃` and Hessian `w x̃ x̃ᵀ`.
//!
//! Models with this structure (logistic regression, the squared-hinge SVM)
//! state only the two scalars, through
//! [`Differentiable::rank_one`](crate::Differentiable::rank_one). The
//! trait's provided gradient and Hessian methods and the influence engine's
//! stored per-row state all apply them through these functions, so every
//! consumer computes the same bits. `x̃` is never materialized.
//!
//! The kernels read `x` through [`Row`]: a dense slice, or a sparse row's
//! stored nonzeros. Both add the same nonzero terms in the same order (see
//! `gopher_linalg::SparseRows`), so either gives the same bits.

use gopher_linalg::{vecops, Matrix, SparseRow};

/// A row `x` the kernels read: its entries `(j, xⱼ)` in column order, and
/// the two loops over them.
pub trait Row: Copy {
    /// `Σⱼ xⱼ vⱼ` over the row's entries, in column order.
    fn dot(self, v: &[f64]) -> f64;
    /// `outⱼ += alpha xⱼ` for every entry of the row.
    fn axpy(self, alpha: f64, out: &mut [f64]);
    /// The row's entries `(j, xⱼ)`, in column order.
    fn entries(self) -> impl Iterator<Item = (usize, f64)>;
}

/// Every entry of a dense row, zeros included; `v` and `out` must have the
/// row's length.
impl Row for &[f64] {
    #[inline]
    fn dot(self, v: &[f64]) -> f64 {
        vecops::dot(self, v)
    }
    #[inline]
    fn axpy(self, alpha: f64, out: &mut [f64]) {
        vecops::axpy(alpha, self, out);
    }
    fn entries(self) -> impl Iterator<Item = (usize, f64)> {
        self.iter().copied().enumerate()
    }
}

/// A sparse row's stored nonzeros.
impl Row for SparseRow<'_> {
    #[inline]
    fn dot(self, v: &[f64]) -> f64 {
        SparseRow::dot(self, v)
    }
    #[inline]
    fn axpy(self, alpha: f64, out: &mut [f64]) {
        SparseRow::axpy(self, alpha, out);
    }
    fn entries(self) -> impl Iterator<Item = (usize, f64)> {
        self.ids
            .iter()
            .zip(self.values)
            .map(|(&j, &x)| (j as usize, x))
    }
}

/// The two scalars of a rank-one per-example loss at one example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Terms {
    /// The gradient scale `g`: `∇θ L(z, θ) = g x̃`.
    pub grad: f64,
    /// The Hessian weight `w`: `∇²θ L(z, θ) = w x̃ x̃ᵀ`.
    pub weight: f64,
}

/// `out += g x̃`: the per-example gradient. A zero scale adds nothing.
#[inline]
pub fn add_grad(g: f64, x: impl Row, out: &mut [f64]) {
    if g == 0.0 {
        return;
    }
    let d = out.len() - 1;
    x.axpy(g, &mut out[..d]);
    out[d] += g;
}

/// `out += w (x̃ᵀv) x̃`: the per-example Hessian–vector product. A zero
/// weight adds nothing.
#[inline]
pub fn add_hessian_vec(w: f64, x: impl Row, v: &[f64], out: &mut [f64]) {
    if w == 0.0 {
        return;
    }
    let d = v.len() - 1;
    debug_assert_eq!(out.len(), d + 1);
    let scale = w * (x.dot(&v[..d]) + v[d]);
    x.axpy(scale, &mut out[..d]);
    out[d] += scale;
}

/// `out += w x̃ x̃ᵀ`: the per-example Hessian. A zero weight, and each row
/// whose factor `w xᵢ` is zero, add nothing.
pub fn add_hessian(out: &mut Matrix, w: f64, x: impl Row) {
    if w == 0.0 {
        return;
    }
    let d = out.rows() - 1;
    debug_assert_eq!(out.cols(), d + 1);
    for (i, xi) in x.entries() {
        let s = w * xi;
        if s == 0.0 {
            continue;
        }
        let row = out.row_mut(i);
        x.axpy(s, &mut row[..d]);
        row[d] += s;
    }
    let last = out.row_mut(d);
    x.axpy(w, &mut last[..d]);
    last[d] += w;
}
