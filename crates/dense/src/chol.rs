use crate::gemm::matmul_nt;
use crate::tri;
use crate::{DenseError, Matrix, Result};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive definite matrix.
///
/// Covariance matrices enter the smoothers through their *inverse factors*
/// (`WᵀW = C⁻¹`, see the paper's §2.1); [`Cholesky::inverse_factor`] computes
/// exactly that: `W = L⁻¹` is lower triangular and satisfies
/// `WᵀW = L⁻ᵀL⁻¹ = C⁻¹`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// The lower-triangular factor (upper triangle is zero).
    l: Matrix,
}

impl Cholesky {
    /// Factorizes the SPD matrix `a` (only its lower triangle is read).
    ///
    /// # Errors
    ///
    /// Returns [`DenseError::NotPositiveDefinite`] if a pivot is not finite
    /// and positive — a NaN or `+∞` anywhere in the lower triangle reaches
    /// a pivot and is refused, never factored into a NaN-filled `L`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn new(a: &Matrix) -> Result<Self> {
        assert!(a.is_square(), "Cholesky requires a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a[(j, j)];
            for k in 0..j {
                let v = l[(j, k)];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(DenseError::NotPositiveDefinite { index: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` for each column of `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.dim()`.
    pub fn solve(&self, b: &Matrix) -> Matrix {
        let mut x = b.clone();
        // L is produced with strictly positive diagonal, so these cannot fail.
        tri::solve_lower_in_place(&self.l, &mut x).expect("positive diagonal");
        tri::solve_lower_transpose_in_place(&self.l, &mut x).expect("positive diagonal");
        x
    }

    /// Returns `A⁻¹` (symmetric).
    pub fn inverse(&self) -> Matrix {
        let mut inv = self.solve(&Matrix::identity(self.dim()));
        inv.symmetrize();
        inv
    }

    /// Returns the lower-triangular inverse factor `W = L⁻¹` with
    /// `WᵀW = A⁻¹`.
    pub fn inverse_factor(&self) -> Matrix {
        tri::invert_lower(&self.l).expect("positive diagonal")
    }
}

/// Reconstructs `L Lᵀ` (test helper and covariance round-tripping).
pub fn llt(l: &Matrix) -> Matrix {
    matmul_nt(l, l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tn};

    fn spd() -> Matrix {
        // AᵀA + I for a random-ish A is SPD.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.5, -1.0], &[2.0, 0.0, 1.0]]);
        let mut g = matmul_tn(&a, &a);
        for i in 0..3 {
            g[(i, i)] += 1.0;
        }
        g
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd();
        let ch = Cholesky::new(&a).unwrap();
        assert!(llt(ch.l()).approx_eq(&a, 1e-12));
    }

    #[test]
    fn solve_is_correct() {
        let a = spd();
        let b = Matrix::from_fn(3, 2, |i, j| (i as f64) - (j as f64));
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b);
        assert!(matmul(&a, &x).approx_eq(&b, 1e-12));
    }

    #[test]
    fn inverse_is_correct() {
        let a = spd();
        let inv = Cholesky::new(&a).unwrap().inverse();
        assert!(matmul(&a, &inv).approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn inverse_factor_property() {
        let a = spd();
        let w = Cholesky::new(&a).unwrap().inverse_factor();
        // WᵀW == A⁻¹  ⇔  WᵀW A == I
        let wtw = matmul_tn(&w, &w);
        assert!(matmul(&wtw, &a).approx_eq(&Matrix::identity(3), 1e-10));
        // W is lower triangular.
        assert_eq!(w[(0, 1)], 0.0);
        assert_eq!(w[(0, 2)], 0.0);
        assert_eq!(w[(1, 2)], 0.0);
    }

    #[test]
    fn not_spd_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        match Cholesky::new(&a) {
            Err(DenseError::NotPositiveDefinite { .. }) => {}
            other => panic!("expected not-SPD, got {other:?}"),
        }
    }

    /// `d <= 0.0` is false for NaN and `+∞`: each of these used to come
    /// back `Ok` with a factor full of NaN (or a zeroed column).
    #[test]
    fn non_finite_pivots_are_rejected() {
        let mut nan_on_diag = spd();
        nan_on_diag[(1, 1)] = f64::NAN;
        let mut nan_below_diag = spd();
        nan_below_diag[(2, 0)] = f64::NAN;
        let mut inf_on_diag = spd();
        inf_on_diag[(0, 0)] = f64::INFINITY;
        for (what, a, index) in [
            ("NaN on the diagonal", nan_on_diag, 1),
            ("NaN below the diagonal", nan_below_diag, 2),
            ("+inf on the diagonal", inf_on_diag, 0),
        ] {
            match Cholesky::new(&a) {
                Err(DenseError::NotPositiveDefinite { index: got }) => {
                    assert_eq!(got, index, "{what}")
                }
                other => panic!("{what}: expected not-SPD, got {other:?}"),
            }
        }
    }

    #[test]
    fn identity_factorizes_to_identity() {
        let ch = Cholesky::new(&Matrix::identity(4)).unwrap();
        assert!(ch.l().approx_eq(&Matrix::identity(4), 0.0));
        assert!(ch.inverse_factor().approx_eq(&Matrix::identity(4), 0.0));
    }
}
