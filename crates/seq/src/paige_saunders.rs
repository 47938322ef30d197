//! The sequential Paige–Saunders QR smoother.
//!
//! One forward sweep eliminates the states in order: each step's
//! observation and the next step's evolution rows are absorbed into the
//! running head and the state is marginalized out by
//! [`InfoHead::step_into`], the square-root information filter step a
//! streaming window runs.  What the state leaves of the block-bidiagonal
//! `R` factor is kept only as the [`SweepTerms`] the downward sweep reads —
//! `X_j = R_jj⁻¹ R_{j,j+1}` and `b_j = R_jj⁻¹ rhs_j`, and with covariances
//! `A_j = R_jj⁻¹ R_jj⁻ᵀ` — all three from one `R_jj⁻¹`.  The downward
//! sweep then forms each mean `m_j = b_j − X_j m_{j+1}` and, with
//! covariances, the sequential block SelInv of the paper's Algorithm 1,
//! `S_jj = A_j + X_j S_{j+1,j+1} X_jᵀ`, written over the `A_j` it reads.
//! `Θ(kn³)` work, `Θ(k·n log n)` critical path — the sequential baseline
//! the odd-even algorithm is measured against (§2.2, §5.4).
//!
//! The arithmetic is `kalman-model`'s, shared with a streaming window's
//! flush: a stream whose lag covers the whole chain, fed the model's events
//! and finished, returns bitwise this smoother's means and covariances.

use kalman_dense::Matrix;
use kalman_model::{
    EliminatedRows, InfoHead, KalmanError, LinearModel, Result, Smoothed, SweepTerms, WhitenedEvo,
    WhitenedObs,
};

/// Options shared by the QR smoothers.
#[derive(Debug, Clone, Copy)]
pub struct SmootherOptions {
    /// Compute `cov(û_i)` in a separate final phase.  `false` gives the
    /// paper's "NC" variant, used inside Levenberg–Marquardt nonlinear
    /// smoothers where covariances are not needed (§5.4).
    pub covariances: bool,
}

impl Default for SmootherOptions {
    fn default() -> Self {
        SmootherOptions { covariances: true }
    }
}

/// Smooths `model` with the sequential Paige–Saunders algorithm.
///
/// Per state it keeps `X_j` and `b_j`, plus — with covariances — `A_j` in
/// the slot its covariance later overwrites: `2n² + n` doubles a state
/// beside the means, and nothing whitened beyond the step being eliminated.
/// The "NC" variant forms each `A_j` into one scratch block and drops it;
/// its means are bitwise those of the covariance variant.
///
/// # Errors
///
/// Model validation errors, covariance failures, and
/// [`KalmanError::RankDeficient`] for underdetermined data, naming the
/// newest state the data do not determine.
pub fn paige_saunders_smooth(model: &LinearModel, options: SmootherOptions) -> Result<Smoothed> {
    model.validate()?;
    let steps = &model.steps;
    let k = steps.len() - 1;
    let mut head = match &model.prior {
        Some(prior) => InfoHead::from_prior(prior)?,
        None => InfoHead::empty(steps[0].state_dim),
    };
    let mut next = InfoHead::empty(0);
    let (mut obs, mut evo) = (WhitenedObs::default(), WhitenedEvo::default());
    let (mut rows, mut dropped) = (EliminatedRows::default(), Matrix::default());
    // One entry per state; the newest holds only its covariance.
    let mut terms: Vec<SweepTerms> = Vec::with_capacity(k + 1);
    let mut undetermined = None;
    for (j, pair) in steps.windows(2).enumerate() {
        let observed = obs.assign_step(&pair[0], j)?;
        let evolution = pair[1]
            .evolution
            .as_ref()
            .expect("validated: evolution exists");
        evo.assign(evolution, pair[1].state_dim, j + 1)?;
        let mut t = SweepTerms::default();
        let parts = if options.covariances {
            t.parts()
        } else {
            (&mut t.x, &mut dropped, &mut t.b)
        };
        if !head.step_into(observed, &evo, &mut rows, Some(parts), &mut next) {
            undetermined = Some(j);
        }
        std::mem::swap(&mut head, &mut next);
        terms.push(t);
    }
    let newest = match obs.assign_step(&steps[k], k)? {
        Some(obs) => {
            head.absorb_into(obs, &mut next);
            &next
        }
        None => &head,
    };

    let mut means = vec![Vec::new(); k + 1];
    terms.push(SweepTerms::default());
    let last_cov = options.covariances.then_some(&mut terms[k].a);
    newest.solve_newest(k, &mut means[k], &mut Matrix::default(), last_cov)?;
    if let Some(state) = undetermined {
        return Err(KalmanError::RankDeficient { state });
    }
    let (mut s, mut xs) = (Matrix::default(), Matrix::default());
    for j in (0..k).rev() {
        let (mean, later_means) = means.split_at_mut(j + 1);
        let (t, later_terms) = terms.split_at_mut(j + 1);
        let t = &mut t[j];
        t.mean_into(&later_means[0], &mut mean[j]);
        if options.covariances {
            t.selinv_into(&later_terms[0].a, &mut s, &mut xs);
            std::mem::swap(&mut t.a, &mut s);
        }
    }
    let covariances = options
        .covariances
        .then(|| terms.into_iter().map(|t| t.a).collect());
    Ok(Smoothed { means, covariances })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_model::{generators, solve_dense, KalmanError};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn matches_dense_oracle_on_paper_benchmark() {
        let model = generators::paper_benchmark(&mut rng(1), 3, 9, false);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(
            ps.max_mean_diff(&dense) < 1e-9,
            "means {}",
            ps.max_mean_diff(&dense)
        );
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-9);
    }

    #[test]
    fn matches_dense_with_prior() {
        let model = generators::paper_benchmark(&mut rng(2), 4, 7, true);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-9);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-9);
    }

    #[test]
    fn nc_variant_matches_means_without_covs() {
        let model = generators::paper_benchmark(&mut rng(3), 3, 6, false);
        let full = paige_saunders_smooth(&model, SmootherOptions { covariances: true }).unwrap();
        let nc = paige_saunders_smooth(&model, SmootherOptions { covariances: false }).unwrap();
        assert!(nc.covariances.is_none());
        assert!(full.max_mean_diff(&nc) == 0.0);
    }

    #[test]
    fn handles_missing_observations() {
        let model = generators::sparse_observations(&mut rng(4), 2, 15, 4);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-9);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn handles_dimension_changes() {
        let model = generators::dimension_change(&mut rng(5), 2, 9);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-9);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn handles_partial_observations() {
        let p = generators::oscillator(&mut rng(6), 40, 0.05, 2.0, 0.1, 1e-4, 1e-2);
        let ps = paige_saunders_smooth(&p.model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&p.model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-8);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn single_state() {
        let model = generators::paper_benchmark(&mut rng(7), 3, 0, false);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-12);
    }

    #[test]
    fn two_states() {
        let model = generators::paper_benchmark(&mut rng(8), 2, 1, false);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-11);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-11);
    }

    #[test]
    fn underdetermined_is_detected() {
        // Observation only on state 0; states 1.. unconstrained except by
        // evolution — still full rank actually (evolution chains pin them).
        // Break rank: no observations at all after state 0 and G_0 = 0 rows?
        // Simplest true deficiency: sparse observations with gap > 1 and no
        // prior leaves... evolution rows pin relative motion; with G
        // orthonormal on state 0 the chain is determined. To get genuine
        // deficiency, drop the state-0 observation entirely:
        let mut model = generators::sparse_observations(&mut rng(9), 2, 3, 100);
        model.steps[0].observation = None;
        // Now rows = 3·2 (evolutions) for 8 unknowns → validate() rejects it.
        match paige_saunders_smooth(&model, SmootherOptions::default()) {
            Err(KalmanError::InvalidModel(_)) | Err(KalmanError::RankDeficient { .. }) => {}
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn rank_deficiency_mid_chain_is_detected() {
        // Enough rows but deficient: zero G on state 1 of a 3-state chain
        // with zero F_2 breaks the link: state 1 appears only via D_1 = I
        // and F_2 = 0 rows... keep it simple: zero out both F entering and
        // G at a middle state, making that state's column block zero except
        // D_1 = I (well-determined actually). Use instead zero D (H=0):
        let mut model = generators::paper_benchmark(&mut rng(10), 2, 2, false);
        model.steps[1].evolution.as_mut().unwrap().h = Some(kalman_dense::Matrix::zeros(2, 2));
        model.steps[1].observation = None;
        model.steps[2].evolution.as_mut().unwrap().f = kalman_dense::Matrix::zeros(2, 2);
        // State 1 now appears in no equation with a nonzero coefficient.
        match paige_saunders_smooth(&model, SmootherOptions::default()) {
            Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 1),
            other => panic!("expected rank deficiency, got {other:?}"),
        }
    }
}
