//! Property-based differential tests for the smoother backends.
//!
//! One `Strategy` generates uniform linear models across the shapes the
//! backends must agree on — irregular chain lengths, state dimensions from
//! 1 to 24, singular and near-singular transition matrices, missing
//! observations, stacked multi-sensor observations, varied noise scales —
//! and every sampled model is solved three ways:
//!
//! * the **dense least-squares oracle** (`solve_dense`): assembles the
//!   whole problem as one tall regression — slow, but its correctness
//!   rests only on the dense QR kernels;
//! * the **odd-even QR backend** (`odd_even_smooth`): the paper's
//!   algorithm;
//! * the **associative-scan backend** (`associative_smooth`): the Särkkä &
//!   García-Fernández algorithm, its elements built straight from the
//!   model and combined on `kalman-par`'s fixed-tree scan.
//!
//! Means and SelInv covariance diagonals must pairwise agree to a
//! scale-aware tolerance.  The vendored proptest has no shrinking, but
//! cases are deterministic per (test, case index), so failures reproduce
//! exactly.

use kalman::dense::{random, Matrix};
use kalman::model::LinearStep;
use kalman::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Uniform draw in `[lo, hi)` from the vendored minimal `Rng`.
fn unif(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> f64 {
    lo + rng.random::<f64>() * (hi - lo)
}

/// Uniform index in `0..n` (`n ≥ 1`).
fn pick(rng: &mut ChaCha8Rng, n: usize) -> usize {
    (rng.random::<u32>() as usize) % n
}

/// How the transition matrices of a sampled model are conditioned.
#[derive(Clone, Copy, Debug)]
enum FKind {
    /// Well-scaled dense `F` (entries `O(1/√n)`, spectral radius ≲ 1).
    Regular,
    /// Exactly singular: one row of `F` is zeroed (rank `n-1`; for
    /// `n = 1`, `F = 0` — the chain forgets its past entirely).
    Singular,
    /// Near-singular: one row scaled down to `1e-8` of its size.
    NearSingular,
}

fn transition(rng: &mut ChaCha8Rng, n: usize, kind: FKind) -> Matrix {
    let mut f = random::gaussian(rng, n, n);
    let shrink = 0.9 / (n as f64).sqrt();
    let row = pick(rng, n);
    for c in 0..n {
        f.col_mut(c)[row] = match kind {
            FKind::Regular => f.col_mut(c)[row],
            FKind::Singular => 0.0,
            FKind::NearSingular => f.col_mut(c)[row] * 1e-8,
        };
        for v in f.col_mut(c).iter_mut() {
            *v *= shrink;
        }
    }
    f
}

fn observation(rng: &mut ChaCha8Rng, n: usize, stacked: bool) -> Observation {
    let single = |rng: &mut ChaCha8Rng| {
        let m = 1 + pick(rng, n + 1);
        Observation {
            g: random::gaussian(rng, m, n),
            o: random::gaussian_vec(rng, m),
            noise: CovarianceSpec::ScaledIdentity(m, unif(rng, 0.5, 2.0)),
        }
    };
    let first = single(rng);
    if stacked {
        // Two independent sensors reporting the same state, merged the way
        // the streaming ingestion path merges them.
        let second = single(rng);
        Observation::stacked(&first, &second)
    } else {
        first
    }
}

/// Builds a uniform model (square `F`, implicit `H = I`, a prior on state
/// 0) of `k + 1` states, dimension `n`, with the requested conditioning
/// and observation pattern.  `obs_density` is the per-step probability of
/// an observation; `stack_density` the probability an observed step got
/// two stacked sensor readings.
fn build_model(
    seed: u64,
    n: usize,
    k: usize,
    f_kind: FKind,
    obs_density: f64,
    stack_density: f64,
) -> LinearModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = LinearModel::new();
    model.set_prior(
        random::gaussian_vec(&mut rng, n),
        CovarianceSpec::ScaledIdentity(n, unif(&mut rng, 0.5, 2.0)),
    );
    for i in 0..=k {
        let mut step = if i == 0 {
            LinearStep::initial(n)
        } else {
            LinearStep::evolving(Evolution {
                f: transition(&mut rng, n, f_kind),
                h: None,
                c: random::gaussian_vec(&mut rng, n),
                noise: CovarianceSpec::ScaledIdentity(n, unif(&mut rng, 0.5, 2.0)),
            })
        };
        if rng.random::<f64>() < obs_density {
            let stack = rng.random::<f64>() < stack_density;
            step = step.with_observation(observation(&mut rng, n, stack));
        }
        model.push_step(step);
    }
    model
}

/// Largest mean magnitude — the scale the agreement tolerances ride on.
fn mean_scale(s: &Smoothed) -> f64 {
    s.means
        .iter()
        .flat_map(|m| m.iter())
        .fold(1.0_f64, |acc, v| acc.max(v.abs()))
}

/// Asserts two estimates agree on means and covariance diagonals to
/// `tol * scale`.
fn assert_agree(label: &str, a: &Smoothed, b: &Smoothed, tol: f64) {
    let scale = mean_scale(a).max(mean_scale(b));
    let mean_diff = a.max_mean_diff(b);
    assert!(
        mean_diff <= tol * scale,
        "{label}: mean diff {mean_diff:e} > {:e}",
        tol * scale
    );
    let ca = a.covariances.as_ref().unwrap();
    let cb = b.covariances.as_ref().unwrap();
    assert_eq!(ca.len(), cb.len(), "{label}: covariance count");
    for (i, (x, y)) in ca.iter().zip(cb).enumerate() {
        for (dx, dy) in x.diag().iter().zip(y.diag().iter()) {
            assert!(
                (dx - dy).abs() <= tol * (1.0 + dx.abs().max(dy.abs())),
                "{label}: state {i} SelInv diagonal {dx} vs {dy}"
            );
        }
    }
}

/// Solves one model through all three backends and cross-checks them.
fn differential_case(model: &LinearModel, tol: f64) {
    let dense = solve_dense(model).unwrap();
    let odd_even = odd_even_smooth(
        model,
        OddEvenOptions {
            covariances: true,
            policy: ExecPolicy::Seq,
            compress_odd: true,
        },
    )
    .unwrap();
    let scan = associative_smooth(
        model,
        AssociativeOptions {
            policy: ExecPolicy::Seq,
        },
    )
    .unwrap();
    assert_agree("odd-even vs dense", &odd_even, &dense, tol);
    assert_agree("scan vs dense", &scan, &dense, tol);
    assert_agree("scan vs odd-even", &scan, &odd_even, tol);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Well-conditioned models: all three backends agree tightly across
    /// irregular lengths, dimensions, and observation patterns.
    #[test]
    fn backends_agree_on_regular_models(
        n in 1usize..25,
        k_raw in 0usize..21,
        seed in 0u64..1_000_000,
        obs_density in 0.3f64..1.0,
        stack_density in 0.0f64..0.6,
    ) {
        // Cap the total problem size so the dense oracle stays fast in
        // debug builds: k scales down as n scales up.
        let k = k_raw.min(160 / n);
        let model = build_model(seed, n, k, FKind::Regular, obs_density, stack_density);
        differential_case(&model, 1e-8);
    }

    /// Exactly singular transition matrices (rank-deficient dynamics):
    /// the scan's covariance-form elements and the QR backends must keep
    /// agreeing — singular `F` is legal everywhere, only singular *noise*
    /// is not.
    #[test]
    fn backends_agree_on_singular_transitions(
        n in 1usize..13,
        k_raw in 1usize..17,
        seed in 0u64..1_000_000,
        obs_density in 0.4f64..1.0,
    ) {
        let k = k_raw.min(160 / n).max(1);
        let model = build_model(seed, n, k, FKind::Singular, obs_density, 0.3);
        differential_case(&model, 1e-8);
    }

    /// Near-singular transitions (a row at 1e-8 scale): agreement holds
    /// at a slightly relaxed tolerance — the posterior is still well
    /// conditioned (SPD noise everywhere), but intermediate products
    /// straddle eight orders of magnitude.
    #[test]
    fn backends_agree_on_near_singular_transitions(
        n in 1usize..13,
        k_raw in 1usize..17,
        seed in 0u64..1_000_000,
    ) {
        let k = k_raw.min(160 / n).max(1);
        let model = build_model(seed, n, k, FKind::NearSingular, 0.8, 0.3);
        differential_case(&model, 1e-7);
    }

    /// The scan backend's fixed combine tree really is policy-invariant:
    /// sequential and parallel runs of the same sampled model are
    /// **bitwise** identical (the odd-even backend pins the same property
    /// in tests/determinism.rs).
    #[test]
    fn scan_policies_are_bitwise_equal(
        n in 1usize..9,
        k_raw in 0usize..21,
        seed in 0u64..1_000_000,
        grain_raw in 0usize..9,
    ) {
        let k = k_raw.min(160 / n);
        let grain = grain_raw + 1;
        let model = build_model(seed, n, k, FKind::Regular, 0.7, 0.3);
        let seq = associative_smooth(&model, AssociativeOptions { policy: ExecPolicy::Seq }).unwrap();
        let par = associative_smooth(
            &model,
            AssociativeOptions { policy: ExecPolicy::par_with_grain(grain) },
        )
        .unwrap();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        for i in 0..seq.len() {
            prop_assert_eq!(bits(seq.mean(i)), bits(par.mean(i)), "state {}", i);
            prop_assert_eq!(
                bits(seq.covariance(i).unwrap().as_slice()),
                bits(par.covariance(i).unwrap().as_slice()),
                "covariance {}",
                i
            );
        }
    }
}
