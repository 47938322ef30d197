//! The paper's stability claim (§6) as a thresholded test: smoothers built
//! on orthogonal transformations — batch and streaming — stay accurate as
//! the noise covariances become ill conditioned, while cyclic reduction of
//! the normal equations — which squares the condition number — loses
//! orders of magnitude more.
//!
//! Same sweep as `cargo run -p kalman-bench --bin stability` (which stays
//! as the figure): error is the max mean difference against the dense
//! Householder-QR oracle.

use kalman::model::{generators, solve_dense};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Feeds `model` through a [`StreamingSmoother`] whose lag covers the whole
/// chain and returns what `finish` emits: the serving path solving the
/// whole problem in one window.
fn stream_smooth(model: &LinearModel, covariances: bool) -> Smoothed {
    let prior = model
        .prior
        .as_ref()
        .expect("the sweep's models carry priors");
    let opts = StreamOptions {
        lag: model.num_states(),
        flush_every: 1,
        covariances,
        ..StreamOptions::default()
    };
    let mut stream =
        StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts).unwrap();
    for event in kalman::model::events_of(model) {
        assert!(
            stream.ingest(event).unwrap().is_empty(),
            "lag covers the chain"
        );
    }
    let (steps, _) = stream.finish().unwrap();
    assert_eq!(steps.len(), model.num_states());
    let covs = steps.iter().map(|s| s.covariance.clone());
    Smoothed {
        covariances: covs.collect(),
        means: steps.into_iter().map(|s| s.mean).collect(),
    }
}

/// At n = 4 and 8 the stream runs its fixed-size bodies, at n = 16 its
/// general ones.  With a lag that covers the chain it solves the same
/// least-squares problem as the batch QR smoothers and meets their bound,
/// means and covariances.  The associative scan and the RTS smoother — the
/// baselines of Figures 2 and 3 — invert covariances instead of
/// triangularizing their square roots, so they get a looser bound, 1e-6,
/// which docs/BENCHMARKS.md records as their safe range (at cond 1e12 they
/// read ≈ 4e-8 at n = 4, where the stream reads ≈ 7e-12).
#[test]
fn qr_smoothers_stay_accurate_where_normal_equations_degrade() {
    for (n, k, seed) in [(4usize, 60usize, 1000u64), (8, 30, 3000), (16, 16, 4000)] {
        for exp in [0i32, 2, 4, 6, 8, 10, 12] {
            let cond = 10f64.powi(exp);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + exp as u64);
            let mut model = generators::ill_conditioned(&mut rng, n, k, cond);
            model.set_prior(vec![0.0; n], CovarianceSpec::Identity(n));
            let oracle = solve_dense(&model).unwrap();

            let odd_even = odd_even_smooth(&model, OddEvenOptions::default())
                .unwrap()
                .max_mean_diff(&oracle);
            let paige_saunders = paige_saunders_smooth(&model, SmootherOptions::default())
                .unwrap()
                .max_mean_diff(&oracle);
            assert!(
                odd_even <= 1e-9,
                "n {n} cond 1e{exp}: odd-even {odd_even:e}"
            );
            assert!(
                paige_saunders <= 1e-9,
                "n {n} cond 1e{exp}: Paige-Saunders {paige_saunders:e}"
            );
            for covariances in [false, true] {
                let stream = stream_smooth(&model, covariances);
                let mean = stream.max_mean_diff(&oracle);
                assert!(mean <= 1e-9, "n {n} cond 1e{exp}: stream mean {mean:e}");
                if let Some(cov) = stream.max_cov_diff(&oracle) {
                    assert!(cov <= 1e-9, "n {n} cond 1e{exp}: stream covariance {cov:e}");
                }
            }
            let associative = associative_smooth(&model, AssociativeOptions::default())
                .unwrap()
                .max_mean_diff(&oracle);
            let rts = rts_smooth(&model).unwrap().max_mean_diff(&oracle);
            assert!(
                associative <= 1e-6,
                "n {n} cond 1e{exp}: associative {associative:e}"
            );
            assert!(rts <= 1e-6, "n {n} cond 1e{exp}: RTS {rts:e}");

            if exp < 10 {
                continue;
            }
            match normal_equations_smooth(&model, TridiagMethod::CyclicReduction, ExecPolicy::par())
            {
                Ok(s) => {
                    let cyclic = s.max_mean_diff(&oracle);
                    assert!(
                        cyclic >= 100.0 * odd_even,
                        "n {n} cond 1e{exp}: cyclic reduction {cyclic:e} vs odd-even {odd_even:e}"
                    );
                }
                Err(KalmanError::NotPositiveDefinite { .. }) => {}
                Err(e) => panic!("n {n} cond 1e{exp}: cyclic reduction failed with {e}"),
            }
        }
    }
}

/// The same claim above the level-3 thresholds: at n = 32 the eliminations
/// run the compact-WY tri-stack, SelInv the tile GEMM, the blocked back
/// substitution (which applies each 8×8 diagonal block as its explicit
/// inverse) and the blocked inverse-Gram, which the first sweep (n ≤ 16)
/// reaches only in part: the compact-WY tri-stack starts at n = 24.  Means
/// and covariances, odd-even and Paige–Saunders.
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
