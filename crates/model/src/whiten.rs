//! Whitened per-step blocks: the inputs to the QR-based smoothers.
//!
//! The least-squares matrix `U·A` of §3 of the paper is built from
//! `C_i = W_i G_i`, `B_i = V_i F_i`, and `D_i = V_i H_i`, where
//! `V_iᵀV_i = K_i⁻¹` and `W_iᵀW_i = L_i⁻¹`.  A prior on `u_0` appears as an
//! extra observation row block on state 0.  Each step whitens independently,
//! so the conversion parallelizes trivially (the paper's §3.2 notes the
//! array of steps is built in parallel); callers that want that use
//! [`WhitenedStep::from_model_step`] per index from a parallel loop.

use crate::{LinearModel, Result};
use kalman_dense::Matrix;

/// Whitened observation rows for one state: `C_i` and its right-hand side.
#[derive(Debug, Clone, Default)]
pub struct WhitenedObs {
    /// `C_i = W_i G_i` (`m_i × n_i`); includes prior rows for state 0.
    pub c: Matrix,
    /// Whitened observed values (length `m_i`) as a column.
    pub rhs: Matrix,
}

/// Whitened evolution rows coupling states `i−1` and `i`.
#[derive(Debug, Clone, Default)]
pub struct WhitenedEvo {
    /// `B_i = V_i F_i` (`ℓ_i × n_{i-1}`); enters the matrix negated.
    pub b: Matrix,
    /// `D_i = V_i H_i` (`ℓ_i × n_i`).
    pub d: Matrix,
    /// Whitened input `V_i c_i` (length `ℓ_i`) as a column.
    pub rhs: Matrix,
}

/// All whitened blocks belonging to one step.
#[derive(Debug, Clone)]
pub struct WhitenedStep {
    /// State dimension `n_i`.
    pub state_dim: usize,
    /// Observation rows (absent when `m_i = 0` and, for state 0, no prior).
    pub obs: Option<WhitenedObs>,
    /// Evolution rows (absent for state 0).
    pub evo: Option<WhitenedEvo>,
}

impl WhitenedObs {
    /// Whitens one raw observation; `index` names the step in errors.
    ///
    /// # Errors
    ///
    /// Covariance whitening failures ([`crate::KalmanError::NotPositiveDefinite`]).
    // lint: allow(alloc, "by-value whitening API allocates its output by contract; the streaming path whitens each step once, when it is eliminated")
    pub fn from_observation(obs: &crate::Observation, index: usize) -> Result<WhitenedObs> {
        let mut c = obs.g.clone();
        let mut rhs = Matrix::col_from_slice(&obs.o);
        obs.noise.whiten_in_place(&mut [&mut c, &mut rhs], index)?;
        Ok(WhitenedObs { c, rhs })
    }

    /// [`WhitenedObs::from_observation`] into `self`, reusing its storage
    /// (a streaming flush whitens every step through one such scratch).
    ///
    /// # Errors
    ///
    /// As [`WhitenedObs::from_observation`]; `self` then holds nothing
    /// meaningful.
    pub fn assign(&mut self, obs: &crate::Observation, index: usize) -> Result<()> {
        self.c.clone_from(&obs.g);
        self.rhs.assign_col(&obs.o);
        obs.noise
            .whiten_in_place(&mut [&mut self.c, &mut self.rhs], index)
    }

    /// `step`'s observation, if it has one, whitened into `self`: how a
    /// sweep that eliminates one step at a time whitens every step through
    /// one scratch.
    ///
    /// # Errors
    ///
    /// As [`WhitenedObs::assign`].
    pub fn assign_step(
        &mut self,
        step: &crate::LinearStep,
        index: usize,
    ) -> Result<Option<&WhitenedObs>> {
        match &step.observation {
            Some(obs) => {
                self.assign(obs, index)?;
                Ok(Some(self))
            }
            None => Ok(None),
        }
    }

    /// Stacks already-whitened rows `(c, rhs)` above `below`'s rows — how
    /// prior rows join state 0's observation block.
    pub(crate) fn with_rows_above(c: Matrix, rhs: Matrix, below: Option<WhitenedObs>) -> Self {
        match below {
            None => WhitenedObs { c, rhs },
            Some(obs) => WhitenedObs {
                c: Matrix::vstack(&[&c, &obs.c]),
                rhs: Matrix::vstack(&[&rhs, &obs.rhs]),
            },
        }
    }
}

impl WhitenedEvo {
    /// Whitens one raw evolution into a state of dimension `state_dim`
    /// (which sizes the implicit `H = I`); `index` names the step in
    /// errors.
    ///
    /// # Errors
    ///
    /// Covariance whitening failures ([`crate::KalmanError::NotPositiveDefinite`]).
    // lint: allow(alloc, "by-value whitening API allocates its output by contract; the streaming path whitens each step once, when it is eliminated")
    pub fn from_evolution(
        evo: &crate::Evolution,
        state_dim: usize,
        index: usize,
    ) -> Result<WhitenedEvo> {
        let mut b = evo.f.clone();
        let mut d = match &evo.h {
            Some(h) => h.clone(),
            None => Matrix::identity(state_dim),
        };
        let mut rhs = Matrix::col_from_slice(&evo.c);
        evo.noise
            .whiten_in_place(&mut [&mut b, &mut d, &mut rhs], index)?;
        Ok(WhitenedEvo { b, d, rhs })
    }
}

impl WhitenedEvo {
    /// [`WhitenedEvo::from_evolution`] into `self`, reusing its storage.
    ///
    /// # Errors
    ///
    /// As [`WhitenedEvo::from_evolution`]; `self` then holds nothing
    /// meaningful.
    pub fn assign(&mut self, evo: &crate::Evolution, state_dim: usize, index: usize) -> Result<()> {
        self.b.clone_from(&evo.f);
        match &evo.h {
            Some(h) => self.d.clone_from(h),
            None => self.d.assign_identity(state_dim),
        }
        self.rhs.assign_col(&evo.c);
        evo.noise
            .whiten_in_place(&mut [&mut self.b, &mut self.d, &mut self.rhs], index)
    }
}

impl WhitenedStep {
    /// Whitens step `i` of `model`.  For `i == 0` the prior (if any) is
    /// stacked on top of the observation rows.
    ///
    /// # Errors
    ///
    /// Covariance whitening failures ([`crate::KalmanError::NotPositiveDefinite`]).
    pub fn from_model_step(model: &LinearModel, i: usize) -> Result<WhitenedStep> {
        let mut whitened = WhitenedStep::from_step(&model.steps[i], i)?;
        if i == 0 {
            if let Some(prior) = &model.prior {
                let (c, d) = crate::incremental::InfoHead::from_prior(prior)?.into_rows();
                whitened.obs = Some(WhitenedObs::with_rows_above(c, d, whitened.obs.take()));
            }
        }
        Ok(whitened)
    }

    /// Whitens a single free-standing step (no prior handling) — the
    /// building block of [`WhitenedStep::from_model_step`].  `index` is
    /// used only for error reporting.
    ///
    /// # Errors
    ///
    /// Covariance whitening failures ([`crate::KalmanError::NotPositiveDefinite`]).
    pub fn from_step(step: &crate::LinearStep, index: usize) -> Result<WhitenedStep> {
        let obs = step
            .observation
            .as_ref()
            .map(|obs| WhitenedObs::from_observation(obs, index))
            .transpose()?;
        let evo = step
            .evolution
            .as_ref()
            .map(|evo| WhitenedEvo::from_evolution(evo, step.state_dim, index))
            .transpose()?;
        Ok(WhitenedStep {
            state_dim: step.state_dim,
            obs,
            evo,
        })
    }
}

/// Whitens an entire model sequentially.
///
/// # Errors
///
/// Model validation errors or covariance whitening failures.
pub fn whiten_model(model: &LinearModel) -> Result<Vec<WhitenedStep>> {
    model.validate()?;
    (0..model.num_states())
        .map(|i| WhitenedStep::from_model_step(model, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble_dense, generators};
    use kalman_dense::matmul_tn;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The whitened blocks, reassembled densely, must reproduce `assemble_dense`
    /// up to row order — we verify via the Gram matrix (UA)ᵀ(UA) and (UA)ᵀUb,
    /// which are row-order invariant.
    #[test]
    fn whitened_blocks_match_dense_assembly() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let model = generators::paper_benchmark(&mut rng, 3, 4, true);
        let sys = assemble_dense(&model).unwrap();
        let steps = whiten_model(&model).unwrap();

        // Rebuild a dense matrix from the whitened blocks.
        let total_cols = model.total_state_dim();
        let mut col_off = vec![0usize];
        for s in &model.steps {
            col_off.push(col_off.last().unwrap() + s.state_dim);
        }
        let mut rows: Vec<(Matrix, Matrix)> = Vec::new(); // (dense row block, rhs)
        for (i, ws) in steps.iter().enumerate() {
            if let Some(evo) = &ws.evo {
                let mut block = Matrix::zeros(evo.b.rows(), total_cols);
                block.set_block(0, col_off[i - 1], &evo.b.scaled(-1.0));
                block.set_block(0, col_off[i], &evo.d);
                rows.push((block, evo.rhs.clone()));
            }
            if let Some(obs) = &ws.obs {
                let mut block = Matrix::zeros(obs.c.rows(), total_cols);
                block.set_block(0, col_off[i], &obs.c);
                rows.push((block, obs.rhs.clone()));
            }
        }
        let mats: Vec<&Matrix> = rows.iter().map(|(m, _)| m).collect();
        let rhss: Vec<&Matrix> = rows.iter().map(|(_, r)| r).collect();
        let a2 = Matrix::vstack(&mats);
        let b2 = Matrix::vstack(&rhss);

        let gram1 = matmul_tn(&sys.a, &sys.a);
        let gram2 = matmul_tn(&a2, &a2);
        assert!(gram1.approx_eq(&gram2, 1e-10));
        let atb1 = matmul_tn(&sys.a, &sys.b);
        let atb2 = matmul_tn(&a2, &b2);
        assert!(atb1.approx_eq(&atb2, 1e-10));
    }

    /// `W·a` block by block, spelled as `CovarianceSpec::whiten` was before
    /// a step's blocks shared one factorization.
    fn whiten_one_block(spec: &crate::CovarianceSpec, a: &Matrix) -> Matrix {
        use crate::CovarianceSpec::*;
        match spec {
            Identity(_) => a.clone(),
            ScaledIdentity(_, s) => a.scaled(1.0 / s.sqrt()),
            Diagonal(v) => Matrix::from_fn(a.rows(), a.cols(), |i, j| a[(i, j)] / v[i].sqrt()),
            Dense(m) => {
                let ch = kalman_dense::Cholesky::new(m).unwrap();
                let mut out = a.clone();
                kalman_dense::tri::solve_lower_in_place(ch.l(), &mut out).unwrap();
                out
            }
        }
    }

    /// One factorization per whitened step must not change a bit: every
    /// block equals the separate per-block whitening it replaced, for all
    /// four covariance variants (and both `H` forms).
    #[test]
    fn step_blocks_are_bitwise_the_per_block_whitening() {
        use crate::{CovarianceSpec, Evolution, Observation};
        use kalman_dense::random;
        let bits = |m: &Matrix| -> (usize, Vec<u64>) {
            (m.rows(), m.as_slice().iter().map(|v| v.to_bits()).collect())
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 3;
        for noise in [
            CovarianceSpec::Identity(n),
            CovarianceSpec::ScaledIdentity(n, 2.5),
            CovarianceSpec::Diagonal(vec![0.5, 2.0, 4.0]),
            CovarianceSpec::Dense(random::spd(&mut rng, n)),
        ] {
            let want = |a: &Matrix| bits(&whiten_one_block(&noise, a));
            for h in [None, Some(random::gaussian(&mut rng, n, n))] {
                let evo = Evolution {
                    f: random::gaussian(&mut rng, n, n),
                    h,
                    c: vec![0.3, -1.0, 2.0],
                    noise: noise.clone(),
                };
                let got = WhitenedEvo::from_evolution(&evo, n, 1).unwrap();
                let h = evo.h.clone().unwrap_or_else(|| Matrix::identity(n));
                assert_eq!(bits(&got.b), want(&evo.f), "{noise:?}");
                assert_eq!(bits(&got.d), want(&h), "{noise:?}");
                assert_eq!(
                    bits(&got.rhs),
                    want(&Matrix::col_from_slice(&evo.c)),
                    "{noise:?}"
                );
                assert_eq!(bits(&noise.whiten(&evo.f, 1).unwrap()), want(&evo.f));
            }
            let obs = Observation {
                g: random::gaussian(&mut rng, n, 2),
                o: vec![1.0, -2.0, 0.5],
                noise: noise.clone(),
            };
            let got = WhitenedObs::from_observation(&obs, 0).unwrap();
            assert_eq!(bits(&got.c), want(&obs.g), "{noise:?}");
            assert_eq!(
                bits(&got.rhs),
                want(&Matrix::col_from_slice(&obs.o)),
                "{noise:?}"
            );
        }
    }

    #[test]
    fn prior_rows_are_stacked_into_state0_obs() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = generators::paper_benchmark(&mut rng, 2, 2, true);
        let ws = WhitenedStep::from_model_step(&model, 0).unwrap();
        // n=2 prior rows + 2 observation rows.
        assert_eq!(ws.obs.as_ref().unwrap().c.rows(), 4);
        assert!(ws.evo.is_none());
    }

    #[test]
    fn unobserved_step_has_no_obs_block() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = generators::sparse_observations(&mut rng, 2, 6, 3);
        let steps = whiten_model(&model).unwrap();
        assert!(steps[1].obs.is_none());
        assert!(steps[3].obs.is_some());
        assert!(steps[1].evo.is_some());
    }
}
