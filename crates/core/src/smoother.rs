//! High-level driver: whiten → factor → solve → (optionally) SelInv.

use crate::plan::SmoothPlan;
use kalman_model::{LinearModel, Result, Smoothed};
use kalman_par::ExecPolicy;

/// Options for the odd-even smoother.
#[derive(Debug, Clone, Copy)]
pub struct OddEvenOptions {
    /// Compute `cov(û_i)` in the separate SelInv phase.  `false` is the
    /// paper's "Odd-Even NC" variant (§5.4), the right choice inside
    /// Levenberg–Marquardt nonlinear smoothers.
    pub covariances: bool,
    /// Execution policy of both tree walks (factorization; back
    /// substitution + SelInv): `Par { grain }` forks sibling subtrees of
    /// more than `grain` states.  [`ExecPolicy::Seq`] gives the compiled
    /// sequential twin the paper benchmarks as the 1-core reference.
    pub policy: ExecPolicy,
    /// Ignored: the odd-column compression (step 3 of each level) always
    /// runs.  Kept only for the benchmark's struct literal; drop it in the
    /// `[benchmark]` PR.
    pub compress_odd: bool,
}

impl Default for OddEvenOptions {
    fn default() -> Self {
        OddEvenOptions {
            covariances: true,
            policy: ExecPolicy::par(),
            compress_odd: true,
        }
    }
}

impl OddEvenOptions {
    /// The "NC" (no covariance) variant with the given policy.
    pub fn nc(policy: ExecPolicy) -> Self {
        OddEvenOptions {
            covariances: false,
            policy,
            compress_odd: true,
        }
    }

    /// Full variant with the given policy.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        OddEvenOptions {
            covariances: true,
            policy,
            compress_odd: true,
        }
    }
}

/// Smooths `model` with the odd-even parallel-in-time algorithm.
///
/// Two walks of the odd-even pair tree, both respecting `options.policy`:
///
/// 1. bottom-up — each leaf whitens its step into the blocks of `U·A`,
///    each node eliminates its pair's even column (critical path
///    `Θ(log k)` eliminations) — leaving the `R` factor;
/// 2. top-down — back substitution and, unless this is the NC variant, the
///    SelInv covariance recurrences, one column after its two neighbours.
///
/// This is the one-shot wrapper around the plan/execute split: it builds a
/// transient [`SmoothPlan`] for the model's shape and executes it once.
/// Callers that smooth the same shape repeatedly hold a plan themselves —
/// [`SmoothPlan::for_model`] then [`SmoothPlan::smooth_model_into`] — which
/// amortizes planning and makes steady-state re-solves allocation-free,
/// with bitwise-identical results.
///
/// # Errors
///
/// Model validation errors, covariance failures, and
/// [`kalman_model::KalmanError::RankDeficient`] for underdetermined data.
pub fn odd_even_smooth(model: &LinearModel, options: OddEvenOptions) -> Result<Smoothed> {
    SmoothPlan::for_one_shot(model, options)?.smooth_model(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_model::{generators, solve_dense, CovarianceSpec, KalmanError};
    use kalman_seq::{paige_saunders_smooth, rts_smooth, SmootherOptions};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn matches_dense_oracle_across_sizes() {
        for (k, seed) in [
            (0usize, 40u64),
            (1, 41),
            (2, 42),
            (5, 43),
            (16, 44),
            (31, 45),
            (64, 46),
        ] {
            let model = generators::paper_benchmark(&mut rng(seed), 3, k, false);
            let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
            let dense = solve_dense(&model).unwrap();
            assert!(
                oe.max_mean_diff(&dense) < 1e-8,
                "k={k} mean diff {}",
                oe.max_mean_diff(&dense)
            );
            assert!(
                oe.max_cov_diff(&dense).unwrap() < 1e-8,
                "k={k} cov diff {:?}",
                oe.max_cov_diff(&dense)
            );
        }
    }

    #[test]
    fn matches_paige_saunders_on_larger_problem() {
        let model = generators::paper_benchmark(&mut rng(50), 6, 200, false);
        let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        assert!(
            oe.max_mean_diff(&ps) < 1e-8,
            "mean diff {}",
            oe.max_mean_diff(&ps)
        );
        assert!(oe.max_cov_diff(&ps).unwrap() < 1e-8);
    }

    #[test]
    fn matches_rts_with_prior() {
        let model = generators::paper_benchmark(&mut rng(51), 4, 75, true);
        let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        let rts = rts_smooth(&model).unwrap();
        assert!(oe.max_mean_diff(&rts) < 1e-8);
        assert!(oe.max_cov_diff(&rts).unwrap() < 1e-8);
    }

    #[test]
    fn nc_variant_skips_covariances() {
        let model = generators::paper_benchmark(&mut rng(52), 3, 20, false);
        let full = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        let nc = odd_even_smooth(&model, OddEvenOptions::nc(ExecPolicy::par())).unwrap();
        assert!(nc.covariances.is_none());
        assert_eq!(full.max_mean_diff(&nc), 0.0);
    }

    #[test]
    fn seq_and_par_policies_agree_bitwise() {
        let model = generators::paper_benchmark(&mut rng(53), 4, 63, true);
        let seq = odd_even_smooth(&model, OddEvenOptions::with_policy(ExecPolicy::Seq)).unwrap();
        let par = odd_even_smooth(
            &model,
            OddEvenOptions::with_policy(ExecPolicy::par_with_grain(3)),
        )
        .unwrap();
        // Same arithmetic in the same order → identical results.
        assert_eq!(seq.max_mean_diff(&par), 0.0);
        assert_eq!(seq.max_cov_diff(&par), Some(0.0));
    }

    #[test]
    fn handles_no_prior_and_sparse_observations() {
        let model = generators::sparse_observations(&mut rng(54), 3, 40, 2);
        let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(oe.max_mean_diff(&dense) < 1e-8);
        assert!(oe.max_cov_diff(&dense).unwrap() < 1e-7);
    }

    #[test]
    fn handles_dimension_changes() {
        let model = generators::dimension_change(&mut rng(55), 3, 21);
        let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(oe.max_mean_diff(&dense) < 1e-8);
        assert!(oe.max_cov_diff(&dense).unwrap() < 1e-7);
    }

    #[test]
    fn handles_tracking_problem_with_dense_covs() {
        let p = generators::tracking_2d(&mut rng(56), 50, 0.1, 0.5, 0.25);
        let oe = odd_even_smooth(&p.model, OddEvenOptions::default()).unwrap();
        let dense = solve_dense(&p.model).unwrap();
        assert!(oe.max_mean_diff(&dense) < 1e-7);
        assert!(oe.max_cov_diff(&dense).unwrap() < 1e-7);
    }

    #[test]
    fn rank_deficiency_is_detected_not_garbage() {
        let mut model = generators::paper_benchmark(&mut rng(58), 2, 6, false);
        // Disconnect state 3 from every equation.
        model.steps[3].evolution.as_mut().unwrap().h = Some(kalman_dense::Matrix::zeros(2, 2));
        model.steps[3].observation = None;
        model.steps[4].evolution.as_mut().unwrap().f = kalman_dense::Matrix::zeros(2, 2);
        match odd_even_smooth(&model, OddEvenOptions::default()) {
            Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 3),
            other => panic!("expected rank deficiency, got {other:?}"),
        }
    }

    #[test]
    fn prior_only_state0_is_determined() {
        // Prior but zero observations anywhere: chain still determined.
        let mut model = generators::sparse_observations(&mut rng(59), 2, 8, 1_000_000);
        model.steps[0].observation = None;
        model.set_prior(vec![0.5, -0.5], CovarianceSpec::Identity(2));
        let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(oe.max_mean_diff(&dense) < 1e-9);
    }

    /// An evolution with no equations (`F`, `H` with zero rows) decouples
    /// the chain there.  Wherever it falls — an even or an odd column of
    /// any level, a lone tail — the survivor stays coupled to its chain
    /// neighbour by zero blocks, so means and covariances come out (the
    /// level-major SelInv panicked on the even positions).
    #[test]
    fn an_evolution_without_equations_decouples_the_chain() {
        for k in [3usize, 4, 7, 8, 12, 16] {
            for cut in 1..=k {
                let mut model = generators::paper_benchmark(&mut rng(60), 2, k, true);
                let evo = model.steps[cut].evolution.as_mut().unwrap();
                evo.f = kalman_dense::Matrix::zeros(0, 2);
                evo.h = Some(kalman_dense::Matrix::zeros(0, 2));
                evo.c = Vec::new();
                evo.noise = CovarianceSpec::Identity(0);
                let dense = solve_dense(&model).unwrap();
                for policy in [ExecPolicy::Seq, ExecPolicy::par_with_grain(1)] {
                    let oe = odd_even_smooth(&model, OddEvenOptions::with_policy(policy)).unwrap();
                    assert!(oe.max_mean_diff(&dense) < 1e-9, "k={k} cut={cut}");
                    assert!(oe.max_cov_diff(&dense).unwrap() < 1e-9, "k={k} cut={cut}");
                }
            }
        }
    }
}
