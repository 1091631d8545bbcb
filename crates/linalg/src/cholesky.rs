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
    /// Only the lower triangle of `a` is read, so inputs whose two triangles
    /// differ by rounding (e.g. a Hessian assembled from Hessian–vector
    /// products) are tolerated.
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
    }
}
