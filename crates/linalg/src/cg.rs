//! Conjugate gradient for matrix-free solves `A x = b` with symmetric
//! positive-definite `A` given only through matrix–vector products.
//!
//! Used by the influence engine's Newton-step estimator, whose operator
//! `nH − mH̃_S` is the stored Hessian minus a subset's exact
//! Hessian–vector products and is never materialized.

use crate::vecops;

/// Result of a conjugate-gradient solve.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The solution estimate.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual norm `‖b − A x‖₂`.
    pub residual_norm: f64,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// Solves `A x = b` by conjugate gradient.
///
/// * `apply` computes `y = A v` for a caller-chosen representation of `A`.
/// * `tol` is the relative residual target: stop when `‖r‖ ≤ tol · ‖b‖`.
/// * `max_iter` caps the iteration count (use `b.len()` for exact CG in exact
///   arithmetic; a small multiple is safer in floating point).
pub fn conjugate_gradient<F>(apply: F, b: &[f64], tol: f64, max_iter: usize) -> CgOutcome
where
    F: Fn(&[f64]) -> Vec<f64>,
{
    let n = b.len();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // r = b - A·0
    let b_norm = vecops::norm2(b);
    if b_norm == 0.0 {
        return CgOutcome {
            x,
            iterations: 0,
            residual_norm: 0.0,
            converged: true,
        };
    }
    let target = tol * b_norm;
    let mut p = r.clone();
    let mut rsq = vecops::dot(&r, &r);
    let mut iterations = 0;
    while iterations < max_iter {
        if rsq.sqrt() <= target {
            break;
        }
        let ap = apply(&p);
        let denom = vecops::dot(&p, &ap);
        if denom <= 0.0 || !denom.is_finite() {
            // A is not positive definite along p (or numeric breakdown):
            // return the best estimate so far.
            break;
        }
        let alpha = rsq / denom;
        vecops::axpy(alpha, &p, &mut x);
        vecops::axpy(-alpha, &ap, &mut r);
        let rsq_new = vecops::dot(&r, &r);
        let beta = rsq_new / rsq;
        for (pi, ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
        rsq = rsq_new;
        iterations += 1;
    }
    let residual_norm = rsq.sqrt();
    CgOutcome {
        x,
        iterations,
        residual_norm,
        converged: residual_norm <= target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn spd() -> Matrix {
        let b = Matrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![0.0, 3.0, 1.0],
            vec![1.0, 0.0, 1.0],
        ]);
        let mut a = b.transpose().matmul(&b);
        a.add_diagonal(0.5);
        a
    }

    #[test]
    fn solves_spd_system() {
        let a = spd();
        let b = vec![1.0, 2.0, 3.0];
        let out = conjugate_gradient(|v| a.matvec(v), &b, 1e-12, 100);
        assert!(out.converged, "CG did not converge: {out:?}");
        let back = a.matvec(&out.x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = spd();
        let out = conjugate_gradient(|v| a.matvec(v), &[0.0, 0.0, 0.0], 1e-10, 100);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.x, vec![0.0; 3]);
    }

    #[test]
    fn converges_in_at_most_n_iterations_for_identity() {
        let out = conjugate_gradient(|v| v.to_vec(), &[5.0, -3.0], 1e-14, 10);
        assert!(out.converged);
        assert!(out.iterations <= 2);
        assert!((out.x[0] - 5.0).abs() < 1e-12);
        assert!((out.x[1] + 3.0).abs() < 1e-12);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let a = spd();
        let out = conjugate_gradient(|v| a.matvec(v), &[1.0, 1.0, 1.0], 1e-16, 1);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn matches_cholesky_solution() {
        let a = spd();
        let b = vec![0.3, -1.2, 2.5];
        let chol = crate::Cholesky::factor(&a).unwrap();
        let exact = chol.solve(&b);
        let cg = conjugate_gradient(|v| a.matvec(v), &b, 1e-13, 200);
        for (u, v) in cg.x.iter().zip(&exact) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }
}
