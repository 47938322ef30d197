//! Streaming-vs-batch equivalence: a stream fed step by step must finalize
//! the same estimates the batch odd-even smoother computes on the full
//! model, while holding only a bounded window in memory.
//!
//! The finalized estimate of a step uses the data seen up to the step's
//! flush; the batch run sees the whole stream.  The difference is the
//! influence of data more than `lag` steps ahead, which decays
//! geometrically (≈ 0.38 per observed step on the paper's benchmark
//! dynamics), so the lags below push it far beneath the 1e-8 assertion.

use kalman::model::{
    events_of, generators, CovarianceSpec, Evolution, LinearModel, LinearStep, Observation,
    StreamEvent,
};
use kalman::prelude::*;
use kalman_dense::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Builds the stream for `model` (same prior or lack thereof).
fn stream_for(model: &LinearModel, opts: StreamOptions) -> StreamingSmoother {
    match &model.prior {
        Some(p) => StreamingSmoother::with_prior(p.mean.clone(), p.cov.clone(), opts).unwrap(),
        None => StreamingSmoother::new(model.steps[0].state_dim, opts).unwrap(),
    }
}

/// Streams `model` event by event, asserting the window stays bounded, and
/// returns all finalized steps in index order.
fn stream_model(model: &LinearModel, opts: StreamOptions) -> Vec<FinalizedStep> {
    let mut stream = stream_for(model, opts);
    let mut finalized = Vec::new();
    for event in events_of(model) {
        finalized.extend(stream.ingest(event).unwrap());
        assert!(
            stream.buffered_len() <= opts.window_capacity(),
            "window exceeded its capacity"
        );
    }
    let (tail, checkpoint) = stream.finish().unwrap();
    finalized.extend(tail);
    assert_eq!(checkpoint.index as usize, model.num_states() - 1);
    finalized
}

/// Asserts every finalized step matches the batch estimate.
fn assert_matches_batch(
    finalized: &[FinalizedStep],
    batch: &Smoothed,
    mean_tol: f64,
    cov_tol: Option<f64>,
) {
    assert_eq!(finalized.len(), batch.len(), "every step finalized once");
    for f in finalized {
        let i = f.index as usize;
        let diff = f
            .mean
            .iter()
            .zip(batch.mean(i))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < mean_tol, "state {i}: mean diff {diff}");
        if let Some(tol) = cov_tol {
            let cdiff = f
                .covariance
                .as_ref()
                .expect("stream configured with covariances")
                .max_abs_diff(batch.covariance(i).expect("batch covariances"));
            assert!(cdiff < tol, "state {i}: cov diff {cdiff}");
        }
    }
}

/// The acceptance case: a no-prior stream ≥ 10× the window length, with
/// covariances, must match the batch smoother to 1e-8 under bounded memory.
#[test]
fn long_no_prior_stream_matches_batch_with_covariances() {
    let model = generators::paper_benchmark(&mut rng(900), 3, 640, false);
    let opts = StreamOptions {
        lag: 32,
        flush_every: 28, // window of 60 steps; the stream is > 10 windows long
        covariances: true,
        ..StreamOptions::default()
    };
    assert!(model.num_states() >= 10 * opts.window_capacity());
    let finalized = stream_model(&model, opts);
    let batch = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    assert_matches_batch(&finalized, &batch, 1e-8, Some(1e-7));
}

#[test]
fn stream_with_prior_matches_batch() {
    let model = generators::paper_benchmark(&mut rng(901), 4, 300, true);
    let opts = StreamOptions {
        lag: 32,
        flush_every: 16,
        covariances: false,
        ..StreamOptions::default()
    };
    let finalized = stream_model(&model, opts);
    let batch = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    assert_matches_batch(&finalized, &batch, 1e-8, None);
}

/// Missing observations (every other step unobserved) and no prior: the
/// information decay is slower per step, so the lag doubles.
#[test]
fn sparse_observation_stream_matches_batch() {
    let model = generators::sparse_observations(&mut rng(902), 2, 500, 2);
    let opts = StreamOptions {
        lag: 64,
        flush_every: 16,
        covariances: true,
        ..StreamOptions::default()
    };
    let finalized = stream_model(&model, opts);
    let batch = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    assert_matches_batch(&finalized, &batch, 1e-8, Some(1e-7));
}

/// Eight concurrent streams through a pool, each matching its own batch
/// solution — the multi-tenant serving path is exact per tenant.
#[test]
fn pooled_streams_each_match_their_batch() {
    let models: Vec<LinearModel> = (0..8)
        .map(|k| generators::paper_benchmark(&mut rng(910 + k), 2, 200, k % 2 == 0))
        .collect();
    let opts = StreamOptions {
        lag: 32,
        flush_every: 8,
        covariances: false,
        policy: ExecPolicy::Seq, // parallelism lives across streams
        ..StreamOptions::default()
    };
    let mut pool = SmootherPool::new(ExecPolicy::par_with_grain(1));
    let ids: Vec<StreamId> = models
        .iter()
        .map(|m| pool.insert(stream_for(m, opts)))
        .collect();

    let mut collected: Vec<Vec<FinalizedStep>> = vec![Vec::new(); models.len()];
    for si in 0..models[0].num_states() {
        for (k, model) in models.iter().enumerate() {
            let step = &model.steps[si];
            if si > 0 {
                pool.evolve(ids[k], step.evolution.clone().unwrap())
                    .unwrap();
            }
            if let Some(obs) = &step.observation {
                pool.observe(ids[k], obs.clone()).unwrap();
            }
        }
        for (id, steps) in pool.poll() {
            let k = ids.iter().position(|x| *x == id).unwrap();
            collected[k].extend(steps.unwrap());
        }
    }
    for (k, id) in ids.iter().enumerate() {
        let (tail, _) = pool.finish(*id).unwrap();
        collected[k].extend(tail);
    }

    for (k, model) in models.iter().enumerate() {
        let batch = odd_even_smooth(model, OddEvenOptions::default()).unwrap();
        assert_matches_batch(&collected[k], &batch, 1e-8, None);
    }
}

/// The model from the `scratch_review` regression: rank-deficient
/// `F = [[1,0],[0,0]]`, no prior, identity observations only every 4th
/// step, process mean pushing the dead component toward 5.
fn singular_f_model(k: u64) -> LinearModel {
    let n = 2;
    let f = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
    let obs = |i: u64| Observation {
        g: Matrix::identity(n),
        o: vec![i as f64, 0.5],
        noise: CovarianceSpec::Identity(n),
    };
    let mut model = LinearModel::new();
    let mut step0 = LinearStep::initial(n);
    step0.observation = Some(obs(0));
    model.push_step(step0);
    for i in 1..=k {
        let evo = Evolution {
            f: f.clone(),
            h: None,
            c: vec![0.0, 5.0],
            noise: CovarianceSpec::Identity(n),
        };
        let mut s = LinearStep::evolving(evo);
        if i % 4 == 0 {
            s.observation = Some(obs(i));
        }
        model.push_step(s);
    }
    model
}

/// The prefix of `model` up to and including state `horizon`.
fn truncated(model: &LinearModel, horizon: usize) -> LinearModel {
    let mut m = LinearModel::new();
    m.prior = model.prior.clone();
    for s in &model.steps[..=horizon] {
        m.push_step(s.clone());
    }
    m
}

/// Streams `model`, recording for every finalized step the *horizon* (the
/// newest ingested state) at emission time.
fn stream_with_horizons(model: &LinearModel, opts: StreamOptions) -> Vec<(FinalizedStep, usize)> {
    stream_events_with_horizons(model, events_of(model), opts)
}

/// [`stream_with_horizons`] over an explicit event list (`model` still
/// supplies the prior and the initial dimension).
fn stream_events_with_horizons(
    model: &LinearModel,
    events: Vec<StreamEvent>,
    opts: StreamOptions,
) -> Vec<(FinalizedStep, usize)> {
    let mut stream = stream_for(model, opts);
    let mut finalized = Vec::new();
    let mut newest = 0usize;
    for event in events {
        if matches!(event, StreamEvent::Evolve(_)) {
            newest += 1;
        }
        // An evolve event flushes *before* appending the new state, so
        // steps it emits saw data only up to the previous newest state.
        let horizon = match &event {
            StreamEvent::Evolve(_) => newest - 1,
            StreamEvent::Observe(_) => newest,
        };
        for f in stream.ingest(event).unwrap() {
            finalized.push((f, horizon));
        }
    }
    let (tail, _) = stream.finish().unwrap();
    finalized.extend(tail.into_iter().map(|f| (f, newest)));
    finalized
}

/// Named regression (was `tests/scratch_review.rs`): the singular-F,
/// no-prior, sparse-observation stream must agree with the batch smoother
/// run on exactly the data each finalized step had seen — the invariant the
/// `InfoHead` forget/condense path promises, and the one a rank-deficient
/// `[C; -B]` stack in `InfoHead::advance` breaks without rank-revealing
/// elimination.
///
/// The original scratch test compared against the *full-hindsight* batch
/// solution instead.  That comparison cannot converge for this model at any
/// small lag: the live component is a pure random walk observed every 4th
/// step, so observations beyond the 2-step finalization lag move the batch
/// estimate by O(1) (the observed 1.73), for any correct fixed-lag
/// smoother.  Against the matching-hindsight batch the agreement is exact.
#[test]
fn singular_f_no_prior_stream_matches_batch() {
    let k = 12u64;
    let model = singular_f_model(k);
    let opts = StreamOptions {
        lag: 2,
        flush_every: 2,
        covariances: false,
        ..StreamOptions::default()
    };
    let finalized = stream_with_horizons(&model, opts);
    assert_eq!(finalized.len(), k as usize + 1, "every step finalized once");
    // Steps are forgotten while observations are still 4 steps apart: the
    // condensation path this regression guards is genuinely exercised.
    assert!(finalized.iter().any(|(f, h)| (*h - f.index as usize) <= 3));
    for (f, horizon) in &finalized {
        let i = f.index as usize;
        let batch =
            odd_even_smooth(&truncated(&model, *horizon), OddEvenOptions::default()).unwrap();
        let diff = f
            .mean
            .iter()
            .zip(batch.mean(i))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 1e-8, "state {i} (horizon {horizon}): diff {diff}");
    }
    // The tail finalizes at `finish()` with full hindsight, so there the
    // full-batch comparison is apples-to-apples and must hold too.
    let full = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    for (f, horizon) in &finalized {
        if *horizon == k as usize {
            let i = f.index as usize;
            let diff = f
                .mean
                .iter()
                .zip(full.mean(i))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(diff < 1e-8, "tail state {i}: diff {diff}");
        }
    }
}

/// A paper-benchmark model some of whose steps are observed twice: the
/// model carries the stacked observation, the event list the two parts.
fn twice_observed_case(seed: u64, k: usize) -> (LinearModel, Vec<StreamEvent>) {
    let mut model = generators::paper_benchmark(&mut rng(seed), 3, k, true);
    let mut events = Vec::new();
    for (i, step) in model.steps.iter_mut().enumerate() {
        if let Some(evo) = &step.evolution {
            events.push(StreamEvent::Evolve(evo.clone()));
        }
        let first = step.observation.clone().unwrap();
        events.push(StreamEvent::Observe(first.clone()));
        if i % 3 == 1 {
            let second = Observation {
                g: Matrix::from_rows(&[&[1.0, 1.0, 0.0]]),
                o: vec![0.3 * i as f64],
                noise: CovarianceSpec::ScaledIdentity(1, 2.0),
            };
            events.push(StreamEvent::Observe(second.clone()));
            step.observation = Some(Observation::stacked(&first, &second));
        }
    }
    (model, events)
}

/// The oracle of the incremental flush: it no longer runs the batch
/// pipeline, so "stream ≡ batch" is tested, not assumed.  Every finalized
/// step — means and covariances — must agree to 1e-8 with *both* batch
/// smoothers run on exactly the data the step had seen at emission, across
/// model families (with and without prior, changing dimensions, missing
/// and stacked observations, ill-conditioned noise), cadences (including
/// `flush_every = 1` and `flush_every > lag`).  The
/// `n = 4` and `n = 8` cases are the serving dimensions: only there do the
/// monomorphized kernels the sweep binds (the tri-stack forward step, the
/// SelInv products) run, and the `KALMAN_REF_KERNELS=1` CI leg takes the
/// same cases through the reference kernels.
#[test]
fn every_finalized_step_matches_both_batch_smoothers_at_its_horizon() {
    let k = 36;
    let (stacked_model, stacked_events) = twice_observed_case(935, k);
    let cases: Vec<(&str, LinearModel, Vec<StreamEvent>)> = [
        (
            "prior",
            generators::paper_benchmark(&mut rng(930), 3, k, true),
        ),
        (
            "no prior",
            generators::paper_benchmark(&mut rng(931), 3, k, false),
        ),
        (
            "dimension change",
            generators::dimension_change(&mut rng(932), 3, k),
        ),
        (
            "sparse",
            generators::sparse_observations(&mut rng(933), 2, k, 2),
        ),
        (
            "cond 1e4",
            generators::ill_conditioned(&mut rng(934), 3, k, 1e4),
        ),
        (
            "n = 4",
            generators::paper_benchmark(&mut rng(936), 4, k, true),
        ),
        (
            "n = 8",
            generators::paper_benchmark(&mut rng(937), 8, k, true),
        ),
    ]
    .into_iter()
    .map(|(name, model)| {
        let events = events_of(&model);
        (name, model, events)
    })
    .chain([("stacked", stacked_model, stacked_events)])
    .collect();

    let max_diff = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max)
    };
    for (name, model, events) in &cases {
        for (lag, flush_every) in [(6usize, 1usize), (4, 3), (3, 5)] {
            let opts = StreamOptions {
                lag,
                flush_every,
                covariances: true,
                ..StreamOptions::default()
            };
            let what = format!("{name}, lag {lag}, flush_every {flush_every}");
            let finalized = stream_events_with_horizons(model, events.clone(), opts);
            assert_eq!(finalized.len(), k + 1, "{what}: every step finalized once");
            // One pair of batch solves per distinct horizon.
            let mut batches: Option<(usize, [Smoothed; 2])> = None;
            for (f, horizon) in &finalized {
                if batches.as_ref().map(|(h, _)| *h) != Some(*horizon) {
                    let seen = truncated(model, *horizon);
                    batches = Some((
                        *horizon,
                        [
                            odd_even_smooth(&seen, OddEvenOptions::default()).unwrap(),
                            paige_saunders_smooth(&seen, SmootherOptions::default()).unwrap(),
                        ],
                    ));
                }
                let i = f.index as usize;
                assert!(i <= *horizon);
                for batch in &batches.as_ref().unwrap().1 {
                    let diff = max_diff(&f.mean, batch.mean(i));
                    assert!(diff < 1e-8, "{what}: state {i}@{horizon} mean diff {diff}");
                    let cdiff = f
                        .covariance
                        .as_ref()
                        .unwrap()
                        .max_abs_diff(batch.covariance(i).unwrap());
                    assert!(cdiff < 1e-8, "{what}: state {i}@{horizon} cov diff {cdiff}");
                }
            }
        }
    }
}

/// Finishing mid-stream and restoring the finished stream's snapshot
/// reproduces the uninterrupted stream's finalized estimates for all
/// later steps.
#[test]
fn checkpoint_resume_is_transparent() {
    let model = generators::paper_benchmark(&mut rng(920), 3, 240, true);
    let opts = StreamOptions {
        lag: 40,
        flush_every: 10,
        covariances: false,
        ..StreamOptions::default()
    };
    let uninterrupted = stream_model(&model, opts);

    let cut = 120usize;
    let mut first = stream_for(&model, opts);
    for (i, step) in model.steps.iter().enumerate().take(cut + 1) {
        if i > 0 {
            first.evolve(step.evolution.clone().unwrap()).unwrap();
        }
        if let Some(obs) = &step.observation {
            first.observe(obs.clone()).unwrap();
        }
    }
    let (_, checkpoint) = first.finish().unwrap();
    assert_eq!(checkpoint.index as usize, cut);

    let mut resumed_stream = StreamingSmoother::restore(checkpoint, opts).unwrap();
    let mut resumed = Vec::new();
    for step in model.steps.iter().skip(cut + 1) {
        resumed.extend(
            resumed_stream
                .evolve(step.evolution.clone().unwrap())
                .unwrap(),
        );
        if let Some(obs) = &step.observation {
            resumed_stream.observe(obs.clone()).unwrap();
        }
    }
    let (tail, _) = resumed_stream.finish().unwrap();
    resumed.extend(tail);

    assert_eq!(resumed.first().unwrap().index as usize, cut + 1);
    for f in &resumed {
        let reference = &uninterrupted[f.index as usize];
        let diff = f
            .mean
            .iter()
            .zip(&reference.mean)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // Flush phases differ between the two runs; the hindsight gap
        // decays through the 40-step lag to far below this bound.
        assert!(diff < 1e-8, "state {}: diff {diff}", f.index);
    }
}
