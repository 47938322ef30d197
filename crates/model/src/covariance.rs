use crate::{KalmanError, Result};
use kalman_dense::{tri, Cholesky, Matrix};

/// Specification of a noise covariance matrix.
///
/// The smoothers only ever need the *inverse factor* `W` with `WᵀW = C⁻¹`
/// (the paper's `V_i`, `W_i` matrices, §2.1), so the common
/// identity/diagonal cases can be applied without forming any matrix.
/// All variants must be symmetric positive definite; the QR formulation
/// (like Paige–Saunders) requires non-singular covariances.
#[derive(Debug, Clone, PartialEq)]
pub enum CovarianceSpec {
    /// The identity covariance `I_n` (the paper's benchmark setting).
    Identity(usize),
    /// `σ² I_n` with `σ² > 0`.
    ScaledIdentity(usize, f64),
    /// `diag(v)` with strictly positive entries.
    Diagonal(Vec<f64>),
    /// A general dense SPD matrix.
    Dense(Matrix),
}

impl CovarianceSpec {
    /// Dimension of the covariance matrix.
    pub fn dim(&self) -> usize {
        match self {
            CovarianceSpec::Identity(n) | CovarianceSpec::ScaledIdentity(n, _) => *n,
            CovarianceSpec::Diagonal(v) => v.len(),
            CovarianceSpec::Dense(m) => m.rows(),
        }
    }

    /// Materializes the covariance as a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        match self {
            CovarianceSpec::Identity(n) => Matrix::identity(*n),
            CovarianceSpec::ScaledIdentity(n, s) => Matrix::identity(*n).scaled(*s),
            CovarianceSpec::Diagonal(v) => Matrix::from_diag(v),
            CovarianceSpec::Dense(m) => m.clone(),
        }
    }

    /// Validates positivity; `step` is used only for error reporting.
    pub fn validate(&self, step: usize) -> Result<()> {
        match self {
            CovarianceSpec::Identity(_) => Ok(()),
            CovarianceSpec::ScaledIdentity(_, s) => {
                if *s > 0.0 && s.is_finite() {
                    Ok(())
                } else {
                    Err(KalmanError::NotPositiveDefinite { step })
                }
            }
            CovarianceSpec::Diagonal(v) => {
                if v.iter().all(|&x| x > 0.0 && x.is_finite()) {
                    Ok(())
                } else {
                    Err(KalmanError::NotPositiveDefinite { step })
                }
            }
            CovarianceSpec::Dense(m) => {
                if !m.is_square() {
                    return Err(KalmanError::InvalidModel(format!(
                        "covariance at step {step} is not square"
                    )));
                }
                // `Cholesky::new` refuses a non-finite pivot but reads the
                // lower triangle only: a NaN/∞ above the diagonal would get
                // past it.
                if !m.as_slice().iter().all(|v| v.is_finite()) {
                    return Err(KalmanError::NotPositiveDefinite { step });
                }
                Cholesky::new(m)
                    .map(|_| ())
                    .map_err(|_| KalmanError::NotPositiveDefinite { step })
            }
        }
    }

    /// Applies the inverse factor: returns `W·A` where `WᵀW = C⁻¹`.
    ///
    /// For identity this is a clone; for diagonal a row scaling; for dense
    /// covariances `W = L⁻¹` (Cholesky factor inverse) and the product is a
    /// triangular solve — `W` itself is never formed.
    ///
    /// # Errors
    ///
    /// [`KalmanError::NotPositiveDefinite`] if the covariance is not SPD
    /// (`step` is used for error reporting).
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != self.dim()`.
    // lint: allow(alloc, "by-value whitening API allocates its output by contract; the streaming path whitens each step once, when it is eliminated")
    pub fn whiten(&self, a: &Matrix, step: usize) -> Result<Matrix> {
        let mut out = a.clone();
        self.whiten_in_place(&mut [&mut out], step)?;
        Ok(out)
    }

    /// [`CovarianceSpec::whiten`] of every block in `blocks`, in place and
    /// against one factorization: a dense covariance is Cholesky-factored
    /// once however many blocks of a step it whitens.  Each block comes out
    /// bitwise what a separate `whiten` call returns.
    ///
    /// # Panics
    ///
    /// Panics if a block's row count is not `self.dim()`.
    pub(crate) fn whiten_in_place(&self, blocks: &mut [&mut Matrix], step: usize) -> Result<()> {
        let not_spd = || KalmanError::NotPositiveDefinite { step };
        for a in blocks.iter() {
            assert_eq!(a.rows(), self.dim(), "whiten dimension mismatch");
        }
        match self {
            CovarianceSpec::Identity(_) => {}
            CovarianceSpec::ScaledIdentity(_, s) => {
                if *s <= 0.0 || !s.is_finite() {
                    return Err(not_spd());
                }
                let factor = 1.0 / s.sqrt();
                for a in blocks.iter_mut() {
                    a.scale(factor);
                }
            }
            CovarianceSpec::Diagonal(v) => {
                if !v.iter().all(|&d| d > 0.0 && d.is_finite()) {
                    return Err(not_spd());
                }
                for a in blocks.iter_mut() {
                    for j in 0..a.cols() {
                        for (x, d) in a.col_mut(j).iter_mut().zip(v) {
                            *x /= d.sqrt();
                        }
                    }
                }
            }
            CovarianceSpec::Dense(m) => {
                let ch = Cholesky::new(m).map_err(|_| not_spd())?;
                for a in blocks.iter_mut() {
                    tri::solve_lower_in_place(ch.l(), a).map_err(|_| not_spd())?;
                }
            }
        }
        Ok(())
    }

    /// Applies the inverse factor to a vector: `W·x`.
    ///
    /// # Errors
    ///
    /// [`KalmanError::NotPositiveDefinite`] if the covariance is not SPD.
    pub fn whiten_vec(&self, x: &[f64], step: usize) -> Result<Vec<f64>> {
        Ok(self.whiten(&Matrix::col_from_slice(x), step)?.into_vec())
    }

    /// The block-diagonal combination `diag(a, b)` of two covariances,
    /// staying in the cheapest representation that holds both (identity +
    /// identity stays identity, diagonal-like inputs stay diagonal, anything
    /// else goes dense).  Used when stacking independent observations of
    /// the same state in the streaming ingestion path.
    pub fn block_diag(a: &CovarianceSpec, b: &CovarianceSpec) -> CovarianceSpec {
        use CovarianceSpec::*;
        match (a, b) {
            (Identity(m), Identity(n)) => Identity(m + n),
            (ScaledIdentity(m, s), ScaledIdentity(n, t)) if s == t => ScaledIdentity(m + n, *s),
            _ => match (a.diag_vec(), b.diag_vec()) {
                (Some(mut diag), Some(tail)) => {
                    diag.extend(tail);
                    Diagonal(diag)
                }
                _ => {
                    let (da, db) = (a.to_dense(), b.to_dense());
                    let (m, n) = (da.rows(), db.rows());
                    let mut out = Matrix::zeros(m + n, m + n);
                    out.set_block(0, 0, &da);
                    out.set_block(m, m, &db);
                    Dense(out)
                }
            },
        }
    }

    /// The diagonal as a vector, for the variants that are diagonal without
    /// materializing anything (`None` for dense covariances).
    fn diag_vec(&self) -> Option<Vec<f64>> {
        match self {
            CovarianceSpec::Identity(n) => Some(vec![1.0; *n]),
            CovarianceSpec::ScaledIdentity(n, s) => Some(vec![*s; *n]),
            CovarianceSpec::Diagonal(v) => Some(v.clone()),
            CovarianceSpec::Dense(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_dense::{matmul, matmul_tn, random};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dims() {
        assert_eq!(CovarianceSpec::Identity(3).dim(), 3);
        assert_eq!(CovarianceSpec::ScaledIdentity(2, 4.0).dim(), 2);
        assert_eq!(CovarianceSpec::Diagonal(vec![1.0, 2.0]).dim(), 2);
        assert_eq!(CovarianceSpec::Dense(Matrix::identity(5)).dim(), 5);
    }

    #[test]
    fn whiten_identity_is_clone() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let w = CovarianceSpec::Identity(2).whiten(&a, 0).unwrap();
        assert!(w.approx_eq(&a, 0.0));
    }

    #[test]
    fn whiten_scaled_identity() {
        let a = Matrix::identity(2);
        let w = CovarianceSpec::ScaledIdentity(2, 4.0)
            .whiten(&a, 0)
            .unwrap();
        assert!((w[(0, 0)] - 0.5).abs() < 1e-15);
    }

    /// Whitening property: (W·A)ᵀ(W·A) == Aᵀ C⁻¹ A for every variant.
    #[test]
    fn whiten_satisfies_gram_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = random::gaussian(&mut rng, 4, 3);
        let dense_cov = random::spd(&mut rng, 4);
        let specs = vec![
            CovarianceSpec::Identity(4),
            CovarianceSpec::ScaledIdentity(4, 2.5),
            CovarianceSpec::Diagonal(vec![1.0, 0.5, 2.0, 4.0]),
            CovarianceSpec::Dense(dense_cov),
        ];
        for spec in specs {
            let wa = spec.whiten(&a, 0).unwrap();
            let got = matmul_tn(&wa, &wa);
            let cinv = Cholesky::new(&spec.to_dense()).unwrap().inverse();
            let expect = matmul_tn(&a, &matmul(&cinv, &a));
            assert!(
                got.approx_eq(&expect, 1e-10),
                "gram identity failed for {spec:?}"
            );
        }
    }

    #[test]
    fn whiten_vec_matches_matrix_path() {
        let spec = CovarianceSpec::Diagonal(vec![4.0, 9.0]);
        let v = spec.whiten_vec(&[2.0, 3.0], 0).unwrap();
        assert!((v[0] - 1.0).abs() < 1e-15);
        assert!((v[1] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn invalid_covariances_are_rejected() {
        assert!(CovarianceSpec::ScaledIdentity(2, 0.0).validate(3).is_err());
        assert!(CovarianceSpec::Diagonal(vec![1.0, -2.0])
            .validate(0)
            .is_err());
        let not_spd = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(CovarianceSpec::Dense(not_spd).validate(0).is_err());
        match CovarianceSpec::ScaledIdentity(2, -1.0).validate(5) {
            Err(KalmanError::NotPositiveDefinite { step }) => assert_eq!(step, 5),
            other => panic!("unexpected {other:?}"),
        }
    }
}
