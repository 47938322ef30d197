use crate::{CovarianceSpec, KalmanError, Result};
use kalman_dense::Matrix;
use std::fmt;

/// Refuses NaN/±∞ in `values` with an error, made by `err`, that names
/// `what`.  One such entry would make every estimate NaN — and, in a
/// stream, because forgetting is exact, stay in its head forever.
///
/// # Errors
///
/// `err` applied to the message when any entry is not finite.
pub fn check_finite(
    values: &[f64],
    what: fmt::Arguments<'_>,
    err: fn(String) -> KalmanError,
) -> Result<()> {
    // No early exit, so the scan vectorizes.
    if values.iter().fold(true, |ok, v| ok & v.is_finite()) {
        return Ok(());
    }
    Err(err(format!("{what} has a non-finite entry")))
}

/// An evolution equation `H_i u_i = F_i u_{i-1} + c_i + ε_i`, `cov(ε_i) = K_i`.
#[derive(Debug, Clone)]
pub struct Evolution {
    /// Transition matrix `F_i` (`ℓ_i × n_{i-1}`).
    pub f: Matrix,
    /// Left-hand matrix `H_i` (`ℓ_i × n_i`); `None` means the identity
    /// (requiring `ℓ_i = n_i`).  A rectangular `H_i` models state vectors
    /// whose dimension grows or shrinks (§2.1).
    pub h: Option<Matrix>,
    /// Known exogenous input `c_i` (length `ℓ_i`).
    pub c: Vec<f64>,
    /// Evolution noise covariance `K_i` (`ℓ_i × ℓ_i`).
    pub noise: CovarianceSpec,
}

impl Evolution {
    /// A random-walk evolution: `u_i = u_{i-1} + ε_i` with `K = I`.
    pub fn random_walk(n: usize) -> Self {
        Evolution {
            f: Matrix::identity(n),
            h: None,
            c: vec![0.0; n],
            noise: CovarianceSpec::Identity(n),
        }
    }

    /// Row dimension `ℓ_i` of the evolution equation.
    pub fn row_dim(&self) -> usize {
        self.f.rows()
    }

    /// Checks this evolution as step `index`, evolving from a state of
    /// dimension `prev_dim`: block shapes, an SPD noise (cheap checks only)
    /// and finite `F`, `H` and `c`.  Returns the new state's dimension
    /// (`H`'s columns, or `F`'s rows when `H` is the implicit identity).
    ///
    /// # Errors
    ///
    /// [`KalmanError::InvalidModel`] naming the step and the block, or
    /// [`KalmanError::NotPositiveDefinite`].
    pub fn validate(&self, prev_dim: usize, index: usize) -> Result<usize> {
        if self.f.cols() != prev_dim {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: F has {} columns but previous state dimension is {prev_dim}",
                self.f.cols()
            )));
        }
        let l = self.row_dim();
        if let Some(h) = &self.h {
            if h.rows() != l {
                return Err(KalmanError::InvalidModel(format!(
                    "step {index}: H has {} rows but F has {l}",
                    h.rows()
                )));
            }
        }
        let new_dim = self.h.as_ref().map_or(l, |h| h.cols());
        if new_dim == 0 {
            return Err(KalmanError::InvalidModel(format!(
                "step {index} has zero state dimension"
            )));
        }
        if self.c.len() != l {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: c has length {} but F has {l} rows",
                self.c.len()
            )));
        }
        if self.noise.dim() != l {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: K has dimension {} but F has {l} rows",
                self.noise.dim()
            )));
        }
        self.noise.validate(index)?;
        let invalid = KalmanError::InvalidModel;
        check_finite(self.f.as_slice(), format_args!("step {index}: F"), invalid)?;
        if let Some(h) = &self.h {
            check_finite(h.as_slice(), format_args!("step {index}: H"), invalid)?;
        }
        check_finite(&self.c, format_args!("step {index}: c"), invalid)?;
        Ok(new_dim)
    }
}

/// An observation equation `o_i = G_i u_i + δ_i`, `cov(δ_i) = L_i`.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Observation matrix `G_i` (`m_i × n_i`).
    pub g: Matrix,
    /// Observed values `o_i` (length `m_i`).
    pub o: Vec<f64>,
    /// Observation noise covariance `L_i` (`m_i × m_i`).
    pub noise: CovarianceSpec,
}

impl Observation {
    /// Number of scalar observations `m_i`.
    pub fn dim(&self) -> usize {
        self.g.rows()
    }

    /// Checks this observation of state `index` (dimension `state_dim`):
    /// block shapes, an SPD noise (cheap checks only) and finite `G` and
    /// `o`.
    ///
    /// # Errors
    ///
    /// [`KalmanError::InvalidModel`] naming the step and the block, or
    /// [`KalmanError::NotPositiveDefinite`].
    pub fn validate(&self, state_dim: usize, index: usize) -> Result<()> {
        if self.g.cols() != state_dim {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: G has {} columns but state dimension is {state_dim}",
                self.g.cols()
            )));
        }
        if self.o.len() != self.dim() {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: o has length {} but G has {} rows",
                self.o.len(),
                self.dim()
            )));
        }
        if self.noise.dim() != self.dim() {
            return Err(KalmanError::InvalidModel(format!(
                "step {index}: L has dimension {} but G has {} rows",
                self.noise.dim(),
                self.dim()
            )));
        }
        self.noise.validate(index)?;
        let invalid = KalmanError::InvalidModel;
        check_finite(self.g.as_slice(), format_args!("step {index}: G"), invalid)?;
        check_finite(&self.o, format_args!("step {index}: o"), invalid)
    }

    /// Stacks two independent observations of the same state into one
    /// (their noises combine block-diagonally).  The streaming ingestion
    /// path uses this when several sensors report the same step.
    ///
    /// # Panics
    ///
    /// Panics if the two observations disagree on the state dimension.
    pub fn stacked(a: &Observation, b: &Observation) -> Observation {
        assert_eq!(
            a.g.cols(),
            b.g.cols(),
            "stacked observations must share the state dimension"
        );
        let mut o = a.o.clone();
        o.extend_from_slice(&b.o);
        Observation {
            g: Matrix::vstack(&[&a.g, &b.g]),
            o,
            noise: CovarianceSpec::block_diag(&a.noise, &b.noise),
        }
    }
}

/// A Gaussian prior `u_0 ~ N(mean, cov)` on the initial state.
///
/// The QR-based smoothers treat the prior as one more observation row-block
/// on state 0; the conventional RTS and associative smoothers require it.
#[derive(Debug, Clone)]
pub struct Prior {
    /// Prior mean of `u_0`.
    pub mean: Vec<f64>,
    /// Prior covariance of `u_0`.
    pub cov: CovarianceSpec,
}

impl Prior {
    /// Checks the prior on its own: the covariance matches the mean, the
    /// mean is finite and the covariance SPD (cheap checks only).
    ///
    /// # Errors
    ///
    /// [`KalmanError::InvalidModel`] on a dimension mismatch or a NaN/∞ in
    /// the mean, [`KalmanError::NotPositiveDefinite`] on the covariance.
    pub fn validate(&self) -> Result<()> {
        if self.cov.dim() != self.mean.len() {
            return Err(KalmanError::InvalidModel(
                "prior covariance dimension does not match prior mean".into(),
            ));
        }
        check_finite(
            &self.mean,
            format_args!("step 0: prior mean"),
            KalmanError::InvalidModel,
        )?;
        self.cov.validate(0)
    }
}

/// One step of the dynamic system: the state `u_i`, its (optional) evolution
/// from `u_{i-1}`, and its (optional) observation.
#[derive(Debug, Clone)]
pub struct LinearStep {
    /// Dimension `n_i` of the state vector `u_i`.
    pub state_dim: usize,
    /// Evolution from the previous state; `None` for the initial step.
    pub evolution: Option<Evolution>,
    /// Observation of this state; `None` when the state was not observed
    /// (`m_i = 0`).
    pub observation: Option<Observation>,
}

impl LinearStep {
    /// The initial step (no evolution) with state dimension `n`.
    pub fn initial(n: usize) -> Self {
        LinearStep {
            state_dim: n,
            evolution: None,
            observation: None,
        }
    }

    /// A step that evolves from its predecessor.  The state dimension is
    /// inferred from `H` (or from `F` when `H` is the implicit identity).
    pub fn evolving(evolution: Evolution) -> Self {
        let n = evolution
            .h
            .as_ref()
            .map(|h| h.cols())
            .unwrap_or_else(|| evolution.f.rows());
        LinearStep {
            state_dim: n,
            evolution: Some(evolution),
            observation: None,
        }
    }

    /// Attaches an observation to this step.
    pub fn with_observation(mut self, observation: Observation) -> Self {
        self.observation = Some(observation);
        self
    }

    /// Number of observation rows `m_i` (0 when unobserved).
    pub fn obs_dim(&self) -> usize {
        self.observation.as_ref().map(|o| o.dim()).unwrap_or(0)
    }
}

/// A complete linear smoothing problem over states `u_0 … u_k`.
#[derive(Debug, Clone, Default)]
pub struct LinearModel {
    /// The per-state steps; `steps[0]` must have no evolution.
    pub steps: Vec<LinearStep>,
    /// Optional Gaussian prior on `u_0`.
    pub prior: Option<Prior>,
}

impl LinearModel {
    /// An empty model.
    pub fn new() -> Self {
        LinearModel {
            steps: Vec::new(),
            prior: None,
        }
    }

    /// Appends a step.
    pub fn push_step(&mut self, step: LinearStep) {
        self.steps.push(step);
    }

    /// Sets the prior on the initial state.
    pub fn set_prior(&mut self, mean: Vec<f64>, cov: CovarianceSpec) {
        self.prior = Some(Prior { mean, cov });
    }

    /// Number of states `k + 1`.
    pub fn num_states(&self) -> usize {
        self.steps.len()
    }

    /// State dimension `n_i`.
    pub fn state_dim(&self, i: usize) -> usize {
        self.steps[i].state_dim
    }

    /// Sum of all state dimensions (the column dimension of `U·A`).
    pub fn total_state_dim(&self) -> usize {
        self.steps.iter().map(|s| s.state_dim).sum()
    }

    /// Total number of equation rows, including prior rows (the row
    /// dimension of `U·A`).
    pub fn total_row_dim(&self) -> usize {
        let prior_rows = self.prior.as_ref().map(|p| p.mean.len()).unwrap_or(0);
        prior_rows
            + self
                .steps
                .iter()
                .map(|s| s.obs_dim() + s.evolution.as_ref().map(|e| e.row_dim()).unwrap_or(0))
                .sum::<usize>()
    }

    /// `true` when every state has the same dimension, every `H_i` is the
    /// implicit identity, and every `F_i` is square — the structure the
    /// conventional RTS and associative smoothers require.
    pub fn is_uniform(&self) -> bool {
        if self.steps.is_empty() {
            return false;
        }
        let n = self.steps[0].state_dim;
        self.steps.iter().all(|s| {
            s.state_dim == n
                && s.evolution
                    .as_ref()
                    .map(|e| e.h.is_none() && e.f.rows() == n && e.f.cols() == n)
                    .unwrap_or(true)
        })
    }

    /// Validation of the whole model: every step passes
    /// [`Evolution::validate`] / [`Observation::validate`] — the checks a
    /// stream runs on each event, NaN/∞ entries included — and the prior
    /// [`Prior::validate`]; then what only a whole model can get wrong:
    /// step 0 has no evolution, every later step has one whose new
    /// dimension is the step's `state_dim`, the prior matches state 0, and
    /// there are at least as many equation rows as unknowns (necessary, not
    /// sufficient, for a unique solution).  Dense SPD-ness is verified on
    /// use.
    ///
    /// # Errors
    ///
    /// [`KalmanError::InvalidModel`] describing the first defect found, or
    /// [`KalmanError::NotPositiveDefinite`].
    pub fn validate(&self) -> Result<()> {
        if self.steps.is_empty() {
            return Err(KalmanError::InvalidModel("model has no steps".into()));
        }
        if self.steps[0].evolution.is_some() {
            return Err(KalmanError::InvalidModel(
                "step 0 must not have an evolution equation".into(),
            ));
        }
        for (i, step) in self.steps.iter().enumerate() {
            if step.state_dim == 0 {
                return Err(KalmanError::InvalidModel(format!(
                    "step {i} has zero state dimension"
                )));
            }
            if i > 0 {
                let Some(evo) = &step.evolution else {
                    return Err(KalmanError::InvalidModel(format!(
                        "step {i} is missing its evolution equation"
                    )));
                };
                let new_dim = evo.validate(self.steps[i - 1].state_dim, i)?;
                if new_dim != step.state_dim {
                    return Err(KalmanError::InvalidModel(match &evo.h {
                        Some(_) => format!(
                            "step {i}: H has {new_dim} columns but state dimension is {}",
                            step.state_dim
                        ),
                        None => format!(
                            "step {i}: implicit identity H requires F rows ({new_dim}) == state dim ({})",
                            step.state_dim
                        ),
                    }));
                }
            }
            if let Some(obs) = &step.observation {
                obs.validate(step.state_dim, i)?;
            }
        }
        if let Some(prior) = &self.prior {
            if prior.mean.len() != self.steps[0].state_dim {
                return Err(KalmanError::InvalidModel(format!(
                    "prior mean has length {} but state 0 has dimension {}",
                    prior.mean.len(),
                    self.steps[0].state_dim
                )));
            }
            prior.validate()?;
        }
        // Necessary (not sufficient) condition for full column rank.
        if self.total_row_dim() < self.total_state_dim() {
            return Err(KalmanError::InvalidModel(format!(
                "underdetermined problem: {} equation rows for {} unknowns",
                self.total_row_dim(),
                self.total_state_dim()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed_step(n: usize, o: f64) -> LinearStep {
        LinearStep::evolving(Evolution::random_walk(n)).with_observation(Observation {
            g: Matrix::identity(n),
            o: vec![o; n],
            noise: CovarianceSpec::Identity(n),
        })
    }

    fn simple_model(k: usize) -> LinearModel {
        let mut m = LinearModel::new();
        m.push_step(LinearStep::initial(2).with_observation(Observation {
            g: Matrix::identity(2),
            o: vec![0.0; 2],
            noise: CovarianceSpec::Identity(2),
        }));
        for i in 0..k {
            m.push_step(observed_step(2, i as f64));
        }
        m
    }

    #[test]
    fn valid_model_passes() {
        let m = simple_model(4);
        assert!(m.validate().is_ok());
        assert_eq!(m.num_states(), 5);
        assert_eq!(m.total_state_dim(), 10);
        assert_eq!(m.total_row_dim(), 5 * 2 + 4 * 2);
        assert!(m.is_uniform());
    }

    #[test]
    fn empty_model_fails() {
        assert!(matches!(
            LinearModel::new().validate(),
            Err(KalmanError::InvalidModel(_))
        ));
    }

    #[test]
    fn step0_with_evolution_fails() {
        let mut m = LinearModel::new();
        m.push_step(observed_step(2, 0.0));
        assert!(m.validate().is_err());
    }

    #[test]
    fn missing_evolution_fails() {
        let mut m = simple_model(2);
        m.steps[1].evolution = None;
        let err = m.validate().unwrap_err();
        assert!(err.to_string().contains("missing its evolution"));
    }

    #[test]
    fn f_dimension_mismatch_fails() {
        let mut m = simple_model(2);
        m.steps[2].evolution.as_mut().unwrap().f = Matrix::identity(3);
        assert!(m.validate().is_err());
    }

    #[test]
    fn c_length_mismatch_fails() {
        let mut m = simple_model(2);
        m.steps[1].evolution.as_mut().unwrap().c = vec![0.0; 5];
        assert!(m.validate().is_err());
    }

    #[test]
    fn observation_mismatch_fails() {
        let mut m = simple_model(2);
        m.steps[1].observation.as_mut().unwrap().o = vec![0.0; 7];
        assert!(m.validate().is_err());
    }

    #[test]
    fn underdetermined_fails() {
        // Two 2-dim states, only an evolution linking them: 2 rows, 4 unknowns.
        let mut m = LinearModel::new();
        m.push_step(LinearStep::initial(2));
        m.push_step(LinearStep::evolving(Evolution::random_walk(2)));
        let err = m.validate().unwrap_err();
        assert!(err.to_string().contains("underdetermined"));
    }

    #[test]
    fn rectangular_h_is_accepted() {
        // State dimension grows from 2 to 3 via a rectangular H.
        let mut m = LinearModel::new();
        m.push_step(LinearStep::initial(2).with_observation(Observation {
            g: Matrix::identity(2),
            o: vec![0.0; 2],
            noise: CovarianceSpec::Identity(2),
        }));
        let evo = Evolution {
            f: Matrix::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 0.0 }),
            h: Some(Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]])),
            c: vec![0.0; 2],
            noise: CovarianceSpec::Identity(2),
        };
        m.push_step(LinearStep::evolving(evo).with_observation(Observation {
            g: Matrix::identity(3),
            o: vec![0.0; 3],
            noise: CovarianceSpec::Identity(3),
        }));
        assert!(m.validate().is_ok());
        assert_eq!(m.state_dim(1), 3);
        assert!(!m.is_uniform());
    }

    #[test]
    fn prior_dimension_checked() {
        let mut m = simple_model(1);
        m.set_prior(vec![0.0; 3], CovarianceSpec::Identity(3));
        assert!(m.validate().is_err());
        m.set_prior(vec![0.0; 2], CovarianceSpec::Identity(2));
        assert!(m.validate().is_ok());
    }

    #[test]
    fn bad_covariance_rejected() {
        let mut m = simple_model(1);
        m.steps[1].observation.as_mut().unwrap().noise = CovarianceSpec::Diagonal(vec![1.0, -1.0]);
        assert!(matches!(
            m.validate(),
            Err(KalmanError::NotPositiveDefinite { step: 1 })
        ));
    }
}
