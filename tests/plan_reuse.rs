//! The plan/execute contract: executing through a reused `SmoothPlan` is
//! bitwise identical to one-shot smoothing, and a plan covers one shape.
//! A stream holds no plan; its counterpart here is that the storage of its
//! window's `R` blocks is sized only by windows longer than any before.

use kalman::odd_even::SmoothPlan;
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn assert_bitwise(a: &Smoothed, b: &Smoothed, what: &str) {
    assert_eq!(a.max_mean_diff(b), 0.0, "{what}: means differ bitwise");
    assert_eq!(
        a.max_cov_diff(b),
        Some(0.0),
        "{what}: covariances differ bitwise"
    );
}

/// Plan-reused executes must be bitwise equal to freshly planned one-shot
/// calls, under both policies, across the acceptance state dimensions.
#[test]
fn plan_reuse_is_bitwise_equal_to_one_shot() {
    for (n, seed) in [(4usize, 901u64), (8, 902), (16, 903)] {
        for policy in [ExecPolicy::Seq, ExecPolicy::par_with_grain(3)] {
            let opts = OddEvenOptions {
                covariances: true,
                policy,
                compress_odd: true,
            };
            // Two models with the same shape but different data: the plan
            // must be a pure function of shape, not of the numbers.
            let model_a = kalman::model::generators::paper_benchmark(&mut rng(seed), n, 37, true);
            let model_b =
                kalman::model::generators::paper_benchmark(&mut rng(seed + 50), n, 37, true);
            let fresh_a = odd_even_smooth(&model_a, opts).unwrap();
            let fresh_b = odd_even_smooth(&model_b, opts).unwrap();

            let mut plan = SmoothPlan::for_model(&model_a, opts).unwrap();
            for round in 0..3 {
                let planned_a = plan.smooth_model(&model_a).unwrap();
                assert_bitwise(
                    &fresh_a,
                    &planned_a,
                    &format!("n={n} {policy:?} round {round} (model a)"),
                );
                let planned_b = plan.smooth_model(&model_b).unwrap();
                assert_bitwise(
                    &fresh_b,
                    &planned_b,
                    &format!("n={n} {policy:?} round {round} (model b)"),
                );
            }
        }
    }
}

/// A plan covers one shape: handed a model of another it refuses with
/// `InvalidModel` (and keeps serving its own), while a fresh plan per
/// shape — non-uniform dimension sequences included — matches one-shot
/// smoothing bitwise.
#[test]
fn plan_follows_shape_changes() {
    let opts = OddEvenOptions::default();
    let models = [
        kalman::model::generators::paper_benchmark(&mut rng(910), 3, 17, true),
        kalman::model::generators::paper_benchmark(&mut rng(911), 3, 9, false),
        kalman::model::generators::dimension_change(&mut rng(912), 3, 21),
        kalman::model::generators::paper_benchmark(&mut rng(913), 3, 17, true),
    ];
    let mut first = SmoothPlan::for_model(&models[0], opts).unwrap();
    for (i, model) in models.iter().enumerate() {
        let fresh = odd_even_smooth(model, opts).unwrap();
        let mut plan = SmoothPlan::for_model(model, opts).unwrap();
        assert_bitwise(
            &fresh,
            &plan.smooth_model(model).unwrap(),
            &format!("model {i}"),
        );
        // Models 0 and 3 share a shape; 1 and 2 do not.
        let through_first = first.smooth_model(model);
        if i == 1 || i == 2 {
            assert!(
                matches!(through_first, Err(KalmanError::InvalidModel(_))),
                "model {i} through model 0's plan"
            );
        } else {
            let what = format!("model {i} through model 0's plan");
            assert_bitwise(&fresh, &through_first.unwrap(), &what);
        }
    }
}

/// Under an irregular manual flush cadence the window length differs from
/// flush to flush.  `plan_builds` counts the flushes that had to size the
/// stream's `R`-block storage — those whose window was longer than any
/// before — and *only* those: a flush at or below the high-water length
/// reuses it.  Estimates stay within the fixed-lag equivalence bound of the
/// hindsight batch solution throughout.
#[test]
fn stream_storage_is_resized_only_by_longer_windows() {
    let model = kalman::model::generators::paper_benchmark(&mut rng(920), 3, 60, true);
    let opts = StreamOptions {
        lag: 16,
        flush_every: 1,
        covariances: false,
        policy: ExecPolicy::Seq,
        auto_flush: false,
        ..StreamOptions::default()
    };
    let prior = model.prior.as_ref().unwrap();
    let mut stream =
        StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts).unwrap();
    let mut finalized = Vec::new();

    let feed = |stream: &mut StreamingSmoother, range: std::ops::RangeInclusive<usize>| {
        for i in range {
            let step = &model.steps[i];
            if i > 0 {
                stream.evolve(step.evolution.clone().unwrap()).unwrap();
            }
            if let Some(obs) = &step.observation {
                stream.observe(obs.clone()).unwrap();
            }
        }
    };

    // Window fills to 21 steps → the first flush sizes the storage.
    feed(&mut stream, 0..=20);
    finalized.extend(stream.flush().unwrap());
    assert_eq!(stream.plan_builds(), 1);
    // Refill to exactly 21 again → same length, storage reused.
    feed(&mut stream, 21..=25);
    finalized.extend(stream.flush().unwrap());
    assert_eq!(
        stream.plan_builds(),
        1,
        "same window length must not resize"
    );
    // A longer window (24 steps) → resized.
    feed(&mut stream, 26..=33);
    finalized.extend(stream.flush().unwrap());
    assert_eq!(stream.plan_builds(), 2, "a longer window must resize");
    // And a longer one still (43 steps).
    feed(&mut stream, 34..=60);
    finalized.extend(stream.flush().unwrap());
    assert_eq!(stream.plan_builds(), 3);

    let (tail, _) = stream.finish().unwrap();
    finalized.extend(tail);
    assert_eq!(finalized.len(), 61);

    // Fixed-lag equivalence against hindsight: post-window influence has
    // decayed by ≈0.38^16 by finalization time on this model family.
    let batch = odd_even_smooth(&model, OddEvenOptions::nc(ExecPolicy::Seq)).unwrap();
    for f in &finalized {
        let i = f.index as usize;
        let diff = f
            .mean
            .iter()
            .zip(batch.mean(i))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 1e-4, "state {i}: diff {diff}");
    }
}
