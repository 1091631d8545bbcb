//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The influence engine repeatedly solves `H x = b` against the (damped)
//! Hessian of the training loss. Factoring once and back-substituting per
//! right-hand side makes each subsequent solve O(p²).

use crate::matrix::Matrix;
use crate::vecops;

/// Error returned when a matrix is not positive definite (within tolerance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CholeskyError {
    /// The pivot index at which factorization failed.
    pub pivot: usize,
    /// The offending (non-positive) pivot value.
    pub value: f64,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} has value {:.3e}",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for CholeskyError {}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor stored densely (upper part zeroed).
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read, so slightly asymmetric inputs
    /// (e.g. Hessians assembled from finite differences) are tolerated.
    pub fn factor(a: &Matrix) -> Result<Self, CholeskyError> {
        assert_eq!(a.rows(), a.cols(), "cholesky: matrix not square");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a[(j, j)];
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(CholeskyError { pivot: j, value: d });
            }
            let diag = d.sqrt();
            l[(j, j)] = diag;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / diag;
            }
        }
        Ok(Self { l })
    }

    /// Factors `a + damping * I`, retrying with 10× larger damping until the
    /// factorization succeeds (up to `max_tries`). Returns the factor and the
    /// damping value actually used.
    ///
    /// This mirrors the standard practice for influence functions on
    /// non-convex models (the MLP), where the exact Hessian may be indefinite.
    pub fn factor_damped(
        a: &Matrix,
        mut damping: f64,
        max_tries: u32,
    ) -> Result<(Self, f64), CholeskyError> {
        assert!(damping >= 0.0, "factor_damped: damping must be >= 0");
        let mut last_err = CholeskyError {
            pivot: 0,
            value: 0.0,
        };
        for attempt in 0..max_tries {
            let mut damped = a.clone();
            damped.add_diagonal(damping);
            match Self::factor(&damped) {
                Ok(chol) => return Ok((chol, damping)),
                Err(e) => {
                    last_err = e;
                    // Escalate: start from a scale-aware floor, then grow.
                    let floor = 1e-8 * a.max_abs().max(1.0);
                    damping = if damping == 0.0 {
                        floor
                    } else {
                        damping * 10.0
                    };
                    let _ = attempt;
                }
            }
        }
        Err(last_err)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor.
    pub fn factor_matrix(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward/backward substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// In-place solve: overwrites `b` with `A⁻¹ b`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve: rhs dimension mismatch");
        // Forward substitution: L y = b.
        for i in 0..n {
            let mut s = b[i];
            let row = self.l.row(i);
            s -= vecops::dot(&row[..i], &b[..i]);
            b[i] = s / row[i];
        }
        // Backward substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in (i + 1)..n {
                s -= self.l[(j, i)] * b[j];
            }
            b[i] = s / self.l[(i, i)];
        }
    }

    /// Solves for several right-hand sides given as rows of `b`
    /// (returns a matrix whose row `i` is `A⁻¹ bᵢ`).
    pub fn solve_rows(&self, b: &Matrix) -> Matrix {
        assert_eq!(b.cols(), self.dim(), "solve_rows: dimension mismatch");
        let mut out = b.clone();
        for i in 0..out.rows() {
            self.solve_in_place(out.row_mut(i));
        }
        out
    }

    /// Log-determinant of `A` (sum of log of squared diagonal of `L`).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| 2.0 * self.l[(i, i)].ln()).sum()
    }

    /// Rescales the factored matrix: after `scale(alpha)` the factor
    /// represents `alpha * A` (the factor itself is scaled by `√alpha`).
    /// Used when a mean-form Hessian `(1/n)Σᵢ hᵢ` changes its row count:
    /// `A' = (n/n') A ± rank-1 terms`.
    ///
    /// # Panics
    /// If `alpha` is not strictly positive and finite.
    pub fn scale(&mut self, alpha: f64) {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "scale: alpha must be positive and finite, got {alpha}"
        );
        self.l.scale(alpha.sqrt());
    }

    /// Rank-1 update: replaces the factored `A` with `A + x xᵀ` in O(p²)
    /// using Givens-style rotations on the columns of `L` (the classic
    /// LINPACK `dchud` scheme). Always succeeds — adding an outer product
    /// keeps a positive-definite matrix positive definite.
    ///
    /// # Panics
    /// If `x.len() != dim()`.
    pub fn rank_one_update(&mut self, x: &[f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "rank_one_update: dimension mismatch");
        let mut work = x.to_vec();
        for j in 0..n {
            let ljj = self.l[(j, j)];
            let r = ljj.hypot(work[j]);
            let c = r / ljj;
            let s = work[j] / ljj;
            self.l[(j, j)] = r;
            for i in (j + 1)..n {
                let lij = (self.l[(i, j)] + s * work[i]) / c;
                work[i] = c * work[i] - s * lij;
                self.l[(i, j)] = lij;
            }
        }
    }

    /// Rank-1 downdate: replaces the factored `A` with `A − x xᵀ` in O(p²),
    /// the hyperbolic counterpart of [`Self::rank_one_update`]. Fails when
    /// the downdated matrix loses positive-definiteness (numerically: a
    /// pivot `Lⱼⱼ² − wⱼ²` that is not strictly positive), reporting the
    /// offending pivot like [`Self::factor`].
    ///
    /// On `Err` the factor is left partially modified and must be discarded
    /// (callers refactor from the full matrix — that is exactly the
    /// fallback path this error exists to trigger).
    ///
    /// # Panics
    /// If `x.len() != dim()`.
    pub fn rank_one_downdate(&mut self, x: &[f64]) -> Result<(), CholeskyError> {
        let n = self.dim();
        assert_eq!(x.len(), n, "rank_one_downdate: dimension mismatch");
        let mut work = x.to_vec();
        for j in 0..n {
            let ljj = self.l[(j, j)];
            let d = ljj * ljj - work[j] * work[j];
            if d <= 0.0 || !d.is_finite() {
                return Err(CholeskyError { pivot: j, value: d });
            }
            let r = d.sqrt();
            let c = r / ljj;
            let s = work[j] / ljj;
            self.l[(j, j)] = r;
            for i in (j + 1)..n {
                let lij = (self.l[(i, j)] - s * work[i]) / c;
                work[i] = c * work[i] - s * lij;
                self.l[(i, j)] = lij;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> Matrix {
        // A = Bᵀ B + I for a fixed B is SPD.
        let b = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.0, 1.0, -1.0],
            vec![2.0, 0.0, 1.0],
            vec![1.0, 1.0, 1.0],
        ]);
        let mut a = b.transpose().matmul(&b);
        a.add_diagonal(1.0);
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_example();
        let chol = Cholesky::factor(&a).unwrap();
        let l = chol.factor_matrix();
        let recon = l.matmul(&l.transpose());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    (recon[(i, j)] - a[(i, j)]).abs() < 1e-10,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn solve_inverts() {
        let a = spd_example();
        let chol = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 3.0];
        let x = chol.solve(&b);
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn solve_rows_matches_individual_solves() {
        let a = spd_example();
        let chol = Cholesky::factor(&a).unwrap();
        let rhs = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 1.0]]);
        let solved = chol.solve_rows(&rhs);
        for i in 0..2 {
            let single = chol.solve(rhs.row(i));
            for j in 0..3 {
                assert!((solved[(i, j)] - single[j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        let err = Cholesky::factor(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.value <= 0.0);
    }

    #[test]
    fn damped_factorization_recovers() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        let (chol, damping) = Cholesky::factor_damped(&a, 0.0, 20).unwrap();
        assert!(damping > 1.0, "needs damping > |min eigenvalue| = 1");
        // (A + damping I) x = b must hold.
        let b = vec![1.0, 1.0];
        let x = chol.solve(&b);
        let mut ad = a.clone();
        ad.add_diagonal(damping);
        let back = ad.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_solves_are_identity() {
        let chol = Cholesky::factor(&Matrix::identity(4)).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(chol.solve(&b), b);
        assert!((chol.log_det()).abs() < 1e-12);
    }

    #[test]
    fn log_det_of_diagonal() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = 4.0;
        a[(1, 1)] = 9.0;
        let chol = Cholesky::factor(&a).unwrap();
        assert!((chol.log_det() - (4.0f64.ln() + 9.0f64.ln())).abs() < 1e-12);
    }

    fn assert_factors_same_matrix(chol: &Cholesky, a: &Matrix, tol: f64) {
        let l = chol.factor_matrix();
        let recon = l.matmul(&l.transpose());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    (recon[(i, j)] - a[(i, j)]).abs() < tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    recon[(i, j)],
                    a[(i, j)]
                );
            }
        }
    }

    #[test]
    fn rank_one_update_matches_refactorization() {
        let mut a = spd_example();
        let mut chol = Cholesky::factor(&a).unwrap();
        let x = [0.5, -1.5, 2.0];
        chol.rank_one_update(&x);
        a.rank1_update(1.0, &x);
        assert_factors_same_matrix(&chol, &a, 1e-10);
    }

    #[test]
    fn rank_one_downdate_matches_refactorization() {
        // Build A = base + x xᵀ, factor, downdate by x: must recover base.
        let base = spd_example();
        let x = [0.5, -1.5, 2.0];
        let mut a = base.clone();
        a.rank1_update(1.0, &x);
        let mut chol = Cholesky::factor(&a).unwrap();
        chol.rank_one_downdate(&x).unwrap();
        assert_factors_same_matrix(&chol, &base, 1e-9);
    }

    #[test]
    fn update_then_downdate_round_trips() {
        let a = spd_example();
        let mut chol = Cholesky::factor(&a).unwrap();
        let x = [1.0, 2.0, -0.5];
        chol.rank_one_update(&x);
        chol.rank_one_downdate(&x).unwrap();
        assert_factors_same_matrix(&chol, &a, 1e-9);
    }

    #[test]
    fn downdate_that_loses_definiteness_errors() {
        // A − x xᵀ with ‖x‖ big enough is indefinite.
        let a = spd_example();
        let mut chol = Cholesky::factor(&a).unwrap();
        let err = chol.rank_one_downdate(&[10.0, 0.0, 0.0]).unwrap_err();
        assert!(err.value <= 0.0 || !err.value.is_finite());
    }

    #[test]
    fn scale_rescales_the_factored_matrix() {
        let a = spd_example();
        let mut chol = Cholesky::factor(&a).unwrap();
        chol.scale(0.25);
        let mut scaled = a.clone();
        scaled.scale(0.25);
        assert_factors_same_matrix(&chol, &scaled, 1e-10);
        // Solves now invert 0.25·A.
        let b = vec![1.0, -1.0, 2.0];
        let x = chol.solve(&b);
        let back = scaled.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9);
        }
    }
}
