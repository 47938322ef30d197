//! Property tests for the odd-even smoother: on *randomly shaped* problems
//! (random chain lengths, dimensions, observation patterns, priors), the
//! smoother must agree with the dense least-squares oracle, and the parallel
//! execution must be bitwise-deterministic.

use kalman_model::{
    generators, solve_dense, CovarianceSpec, Evolution, LinearModel, LinearStep, Observation,
};
use kalman_odd_even::{odd_even_smooth, OddEvenOptions};
use kalman_par::ExecPolicy;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A random well-posed model: every state observed with probability
/// `obs_prob` (state 0 always, to anchor the chain when there is no prior).
fn random_model(seed: u64, n: usize, k: usize, obs_prob: f64, with_prior: bool) -> LinearModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = LinearModel::new();
    for i in 0..=k {
        let mut step = if i == 0 {
            LinearStep::initial(n)
        } else {
            LinearStep::evolving(Evolution {
                f: kalman_dense::random::orthonormal(&mut rng, n),
                h: None,
                c: kalman_dense::random::gaussian_vec(&mut rng, n),
                noise: CovarianceSpec::ScaledIdentity(n, 0.5),
            })
        };
        let observe =
            i == 0 || kalman_dense::random::standard_normal(&mut rng).abs() < obs_prob * 2.0;
        if observe {
            step = step.with_observation(Observation {
                g: kalman_dense::random::orthonormal(&mut rng, n),
                o: kalman_dense::random::gaussian_vec(&mut rng, n),
                noise: CovarianceSpec::Identity(n),
            });
        }
        model.push_step(step);
    }
    if with_prior {
        model.set_prior(vec![0.1; n], CovarianceSpec::ScaledIdentity(n, 2.0));
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn odd_even_matches_dense_oracle(
        seed in 0u64..10_000,
        n in 1usize..5,
        k in 0usize..40,
        with_prior: bool,
    ) {
        let model = random_model(seed, n, k, 0.7, with_prior);
        let oracle = solve_dense(&model).unwrap();
        let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        prop_assert!(
            oe.max_mean_diff(&oracle) < 1e-7,
            "means diverge: {}", oe.max_mean_diff(&oracle)
        );
        prop_assert!(
            oe.max_cov_diff(&oracle).unwrap() < 1e-7,
            "covs diverge: {:?}", oe.max_cov_diff(&oracle)
        );
    }

    #[test]
    fn policies_are_bitwise_deterministic(
        seed in 0u64..10_000,
        k in 0usize..60,
        grain in 1usize..20,
    ) {
        let model = random_model(seed, 3, k, 0.8, true);
        let a = odd_even_smooth(
            &model,
            OddEvenOptions::with_policy(ExecPolicy::Seq),
        ).unwrap();
        let b = odd_even_smooth(
            &model,
            OddEvenOptions::with_policy(ExecPolicy::par_with_grain(grain)),
        ).unwrap();
        prop_assert_eq!(a.max_mean_diff(&b), 0.0);
        prop_assert_eq!(a.max_cov_diff(&b), Some(0.0));
    }

    #[test]
    fn sparse_observation_patterns(
        seed in 0u64..10_000,
        k in 1usize..30,
        every in 1usize..5,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = generators::sparse_observations(&mut rng, 2, k, every);
        let oracle = solve_dense(&model).unwrap();
        let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        prop_assert!(oe.max_mean_diff(&oracle) < 1e-7);
    }
}
