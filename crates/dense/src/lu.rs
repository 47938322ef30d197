use crate::{DenseError, Matrix, Result};

/// LU factorization with partial pivoting: `P A = L U`.
///
/// Used by the associative smoother's combination formulas, which need to
/// solve small general (non-symmetric, non-triangular) systems such as
/// `(I + C₁ J₂) X = B`.
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// Packed factors: `U` on and above the diagonal, unit-`L` below.
    packed: Matrix,
    /// Row permutation as an `n × 1` column of exact small integers: row `i`
    /// of the factored matrix is row `perm[i]` of `A`.  Stored in a [`Matrix`]
    /// rather than a `Vec<usize>` so the pivots cycle through the workspace
    /// pool like every other buffer — the associative-scan smoother factors
    /// two of these per element combine.
    perm: Matrix,
    /// Sign of the permutation (for determinants).
    sign: f64,
}

impl LuFactor {
    /// Factorizes the square matrix `a` (consumed).
    ///
    /// # Errors
    ///
    /// Returns [`DenseError::Singular`] if a zero pivot is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(mut a: Matrix) -> Result<Self> {
        assert!(a.is_square(), "LU requires a square matrix");
        let n = a.rows();
        let mut perm = Matrix::zeros(n, 1);
        for (i, p) in perm.col_mut(0).iter_mut().enumerate() {
            *p = i as f64;
        }
        let mut sign = 1.0;
        for j in 0..n {
            // Find pivot in column j at or below the diagonal.
            let mut piv = j;
            let mut max = a[(j, j)].abs();
            for i in (j + 1)..n {
                let v = a[(i, j)].abs();
                if v > max {
                    max = v;
                    piv = i;
                }
            }
            if max == 0.0 {
                return Err(DenseError::Singular { index: j });
            }
            if piv != j {
                // Swap rows piv and j across all columns.
                for k in 0..n {
                    let ck = a.col_mut(k);
                    ck.swap(piv, j);
                }
                perm.col_mut(0).swap(piv, j);
                sign = -sign;
            }
            let pivot = a[(j, j)];
            // Eliminate below the pivot; store multipliers in place.
            for i in (j + 1)..n {
                let m = a[(i, j)] / pivot;
                a[(i, j)] = m;
                if m != 0.0 {
                    for k in (j + 1)..n {
                        let v = a[(j, k)];
                        a[(i, k)] -= m * v;
                    }
                }
            }
        }
        Ok(LuFactor {
            packed: a,
            perm,
            sign,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.packed.rows()
    }

    /// Solves `A x = b` for each column of `b`, returning the solution.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.dim()`.
    pub fn solve(&self, b: &Matrix) -> Matrix {
        let n = self.dim();
        assert_eq!(b.rows(), n, "LU solve rhs row mismatch");
        let mut x = Matrix::zeros(n, b.cols());
        for k in 0..b.cols() {
            let bk = b.col(k);
            let xk = x.col_mut(k);
            // Apply permutation.
            let perm = self.perm.col(0);
            for i in 0..n {
                xk[i] = bk[perm[i] as usize];
            }
            // Forward solve with unit lower factor.
            for i in 0..n {
                let mut acc = xk[i];
                for (j, &xj) in xk.iter().enumerate().take(i) {
                    acc -= self.packed[(i, j)] * xj;
                }
                xk[i] = acc;
            }
            // Back solve with upper factor.
            for i in (0..n).rev() {
                let mut acc = xk[i];
                for (j, &xj) in xk.iter().enumerate().take(n).skip(i + 1) {
                    acc -= self.packed[(i, j)] * xj;
                }
                xk[i] = acc / self.packed[(i, i)];
            }
        }
        x
    }

    /// Returns `A⁻¹`.
    pub fn inverse(&self) -> Matrix {
        self.solve(&Matrix::identity(self.dim()))
    }

    /// Determinant of `A`.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.packed[(i, i)];
        }
        d
    }
}

/// Solves `A x = b` for square `A` (convenience wrapper).
///
/// # Errors
///
/// Returns [`DenseError::Singular`] if `a` is singular.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    Ok(LuFactor::new(a.clone())?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -1.0, 0.0], &[3.0, 0.0, -2.0]])
    }

    #[test]
    fn solve_reproduces_rhs() {
        let a = sample();
        let b = Matrix::from_fn(3, 2, |i, j| (i + j) as f64 + 1.0);
        let lu = LuFactor::new(a.clone()).unwrap();
        let x = lu.solve(&b);
        assert!(matmul(&a, &x).approx_eq(&b, 1e-12));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // a[(0,0)] == 0 requires pivoting on the first step.
        let a = sample();
        assert_eq!(a[(0, 0)], 0.0);
        assert!(LuFactor::new(a).is_ok());
    }

    #[test]
    fn inverse_times_a_is_identity() {
        let a = sample();
        let inv = LuFactor::new(a.clone()).unwrap().inverse();
        assert!(matmul(&a, &inv).approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn determinant() {
        // det of sample: expand -> 0*(2-0) - 2*(-2-0) + 1*(0+3) = 4 + 3 = 7.
        let lu = LuFactor::new(sample()).unwrap();
        assert!((lu.det() - 7.0).abs() < 1e-12);
        let id = LuFactor::new(Matrix::identity(4)).unwrap();
        assert!((id.det() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match LuFactor::new(a) {
            Err(DenseError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn convenience_solve() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = Matrix::col_from_slice(&[2.0, 8.0]);
        let x = solve(&a, &b).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-15);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[5.0]]);
        let lu = LuFactor::new(a).unwrap();
        let x = lu.solve(&Matrix::col_from_slice(&[10.0]));
        assert!((x[(0, 0)] - 2.0).abs() < 1e-15);
        assert!((lu.det() - 5.0).abs() < 1e-15);
    }
}
