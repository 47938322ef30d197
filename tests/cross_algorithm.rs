//! Cross-algorithm agreement: every smoother in the workspace must produce
//! the same posterior on models they all support, and the QR smoothers must
//! agree with the dense least-squares oracle on everything.

use kalman::model::{generators, solve_dense};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// All five mean-producing algorithms on one uniform model with a prior.
#[test]
fn all_algorithms_agree_on_uniform_model_with_prior() {
    let model = generators::paper_benchmark(&mut rng(1), 5, 120, true);
    let oracle = solve_dense(&model).unwrap();

    let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
    let rts = rts_smooth(&model).unwrap();
    let assoc = associative_smooth(&model, AssociativeOptions::default()).unwrap();
    let neq =
        normal_equations_smooth(&model, TridiagMethod::CyclicReduction, ExecPolicy::par()).unwrap();

    for (name, est, tol) in [
        ("odd-even", &oe, 1e-8),
        ("paige-saunders", &ps, 1e-8),
        ("rts", &rts, 1e-8),
        ("associative", &assoc, 1e-7),
        ("normal-equations", &neq, 1e-6),
    ] {
        let d = est.max_mean_diff(&oracle);
        assert!(d < tol, "{name} mean diff {d}");
    }
    // Covariance agreement for the four that compute it.
    for (name, est) in [
        ("odd-even", &oe),
        ("paige-saunders", &ps),
        ("rts", &rts),
        ("associative", &assoc),
    ] {
        let d = est.max_cov_diff(&oracle).unwrap();
        assert!(d < 1e-7, "{name} cov diff {d}");
    }
}

#[test]
fn qr_smoothers_agree_without_prior() {
    for (n, k, seed) in [(2, 30, 2u64), (6, 101, 3), (3, 64, 4)] {
        let model = generators::paper_benchmark(&mut rng(seed), n, k, false);
        let oracle = solve_dense(&model).unwrap();
        let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        assert!(oe.max_mean_diff(&oracle) < 1e-7, "n={n} k={k}");
        assert!(ps.max_mean_diff(&oracle) < 1e-7, "n={n} k={k}");
        assert!(oe.max_cov_diff(&ps).unwrap() < 1e-7, "n={n} k={k}");
    }
}

#[test]
fn nc_variants_match_full_variants() {
    let model = generators::paper_benchmark(&mut rng(5), 4, 77, false);
    let oe_full = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    let oe_nc = odd_even_smooth(&model, OddEvenOptions::nc(ExecPolicy::par())).unwrap();
    let ps_full = paige_saunders_smooth(&model, SmootherOptions { covariances: true }).unwrap();
    let ps_nc = paige_saunders_smooth(&model, SmootherOptions { covariances: false }).unwrap();
    assert_eq!(oe_full.max_mean_diff(&oe_nc), 0.0);
    assert_eq!(ps_full.max_mean_diff(&ps_nc), 0.0);
    assert!(oe_nc.covariances.is_none());
    assert!(ps_nc.covariances.is_none());
}

#[test]
fn agreement_on_simulated_tracking_and_oscillator() {
    let tracking = generators::tracking_2d(&mut rng(6), 150, 0.05, 0.3, 0.4);
    let osc = generators::oscillator(&mut rng(7), 150, 0.02, 3.0, 0.05, 1e-4, 1e-2);
    for problem in [&tracking.model, &osc.model] {
        let oracle = solve_dense(problem).unwrap();
        let oe = odd_even_smooth(problem, OddEvenOptions::default()).unwrap();
        let rts = rts_smooth(problem).unwrap();
        let assoc = associative_smooth(problem, AssociativeOptions::default()).unwrap();
        assert!(oe.max_mean_diff(&oracle) < 1e-7);
        assert!(rts.max_mean_diff(&oracle) < 1e-7);
        assert!(assoc.max_mean_diff(&oracle) < 1e-6);
        assert!(oe.max_cov_diff(&oracle).unwrap() < 1e-7);
    }
}

#[test]
fn smoothing_beats_observations_on_simulated_data() {
    let p = generators::tracking_2d(&mut rng(8), 500, 0.1, 0.3, 1.0);
    let oe = odd_even_smooth(&p.model, OddEvenOptions::default()).unwrap();
    // Position RMSE of the smoothed estimate vs the raw observations.
    let mut obs_sq = 0.0;
    let mut est_sq = 0.0;
    let mut count = 0;
    for i in 0..p.truth.len() {
        let obs = p.model.steps[i].observation.as_ref().unwrap();
        for d in 0..2 {
            obs_sq += (obs.o[d] - p.truth[i][d]).powi(2);
            est_sq += (oe.mean(i)[d] - p.truth[i][d]).powi(2);
            count += 1;
        }
    }
    let (obs_rmse, est_rmse) = (
        (obs_sq / count as f64).sqrt(),
        (est_sq / count as f64).sqrt(),
    );
    assert!(
        est_rmse < 0.7 * obs_rmse,
        "smoothed RMSE {est_rmse} should be well below observation RMSE {obs_rmse}"
    );
}

#[test]
fn thread_count_does_not_change_results() {
    let model = generators::paper_benchmark(&mut rng(9), 4, 257, true);
    let reference = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    for threads in [1, 2, 4] {
        let model_ref = &model;
        let est = run_with_threads(threads, move || {
            odd_even_smooth(model_ref, OddEvenOptions::default()).unwrap()
        });
        assert_eq!(
            est.max_mean_diff(&reference),
            0.0,
            "odd-even must be deterministic across thread counts"
        );
        assert_eq!(est.max_cov_diff(&reference), Some(0.0));
    }
}

#[test]
fn larger_chain_still_matches_paige_saunders() {
    let model = generators::paper_benchmark(&mut rng(10), 6, 1_000, false);
    let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
    assert!(
        oe.max_mean_diff(&ps) < 1e-7,
        "diff {}",
        oe.max_mean_diff(&ps)
    );
    assert!(oe.max_cov_diff(&ps).unwrap() < 1e-7);
}
