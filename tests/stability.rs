//! The paper's stability claim (§6) as a thresholded test: smoothers built
//! on orthogonal transformations stay accurate as the noise covariances
//! become ill conditioned, while cyclic reduction of the normal equations
//! — which squares the condition number — loses orders of magnitude more.
//!
//! Same sweep as `cargo run -p kalman-bench --bin stability` (which stays
//! as the figure): error is the max mean difference against the dense
//! Householder-QR oracle.

use kalman::model::{generators, solve_dense};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn qr_smoothers_stay_accurate_where_normal_equations_degrade() {
    for exp in [0i32, 2, 4, 6, 8, 10, 12] {
        let cond = 10f64.powi(exp);
        let mut rng = ChaCha8Rng::seed_from_u64(1000 + exp as u64);
        let mut model = generators::ill_conditioned(&mut rng, 4, 60, cond);
        model.set_prior(vec![0.0; 4], CovarianceSpec::Identity(4));
        let oracle = solve_dense(&model).unwrap();

        let odd_even = odd_even_smooth(&model, OddEvenOptions::default())
            .unwrap()
            .max_mean_diff(&oracle);
        let paige_saunders = paige_saunders_smooth(&model, SmootherOptions::default())
            .unwrap()
            .max_mean_diff(&oracle);
        assert!(odd_even <= 1e-9, "cond 1e{exp}: odd-even {odd_even:e}");
        assert!(
            paige_saunders <= 1e-9,
            "cond 1e{exp}: Paige-Saunders {paige_saunders:e}"
        );

        if exp < 10 {
            continue;
        }
        match normal_equations_smooth(&model, TridiagMethod::CyclicReduction, ExecPolicy::par()) {
            Ok(s) => {
                let cyclic = s.max_mean_diff(&oracle);
                assert!(
                    cyclic >= 100.0 * odd_even,
                    "cond 1e{exp}: cyclic reduction {cyclic:e} vs odd-even {odd_even:e}"
                );
            }
            Err(KalmanError::NotPositiveDefinite { .. }) => {}
            Err(e) => panic!("cond 1e{exp}: cyclic reduction failed with {e}"),
        }
    }
}

/// The same claim above the level-3 thresholds: at n = 32 the eliminations
/// run the compact-WY tri-stack, SelInv the tile GEMM, the blocked back
/// substitution (which applies each 8×8 diagonal block as its explicit
/// inverse) and the blocked inverse-Gram — none of which the n = 4 sweep
/// ever reaches.  Means and covariances, odd-even and Paige–Saunders.
#[test]
fn level3_kernels_stay_accurate_on_ill_conditioned_covariances() {
    for exp in [0i32, 4, 8, 12] {
        let cond = 10f64.powi(exp);
        let mut rng = ChaCha8Rng::seed_from_u64(2000 + exp as u64);
        let mut model = generators::ill_conditioned(&mut rng, 32, 12, cond);
        model.set_prior(vec![0.0; 32], CovarianceSpec::Identity(32));
        let oracle = solve_dense(&model).unwrap();

        let odd_even = odd_even_smooth(
            &model,
            OddEvenOptions {
                covariances: true,
                ..OddEvenOptions::default()
            },
        )
        .unwrap();
        let paige_saunders =
            paige_saunders_smooth(&model, SmootherOptions { covariances: true }).unwrap();
        for (name, smoothed) in [("odd-even", &odd_even), ("Paige-Saunders", &paige_saunders)] {
            let mean = smoothed.max_mean_diff(&oracle);
            let cov = smoothed.max_cov_diff(&oracle).expect("covariances on");
            assert!(mean <= 1e-9, "cond 1e{exp}: {name} mean {mean:e}");
            assert!(cov <= 1e-9, "cond 1e{exp}: {name} covariance {cov:e}");
        }
    }
}
