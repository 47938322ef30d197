//! Edge cases: tiny chains, chains around power-of-two boundaries, missing
//! observations, partial observations, extreme weightings, and degenerate
//! streaming configurations.

use kalman::model::{events_of, generators, solve_dense, InfoHead};
use kalman::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn every_chain_length_up_to_33() {
    for k in 0..=33usize {
        let model = generators::paper_benchmark(&mut rng(300 + k as u64), 2, k, false);
        let oracle = solve_dense(&model).unwrap();
        let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
        assert!(
            oe.max_mean_diff(&oracle) < 1e-8,
            "k={k}: mean diff {}",
            oe.max_mean_diff(&oracle)
        );
        assert!(
            oe.max_cov_diff(&oracle).unwrap() < 1e-8,
            "k={k}: cov diff {:?}",
            oe.max_cov_diff(&oracle)
        );
    }
}

#[test]
fn state_dimension_one() {
    let model = generators::paper_benchmark(&mut rng(400), 1, 50, true);
    let oracle = solve_dense(&model).unwrap();
    let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    let rts = rts_smooth(&model).unwrap();
    assert!(oe.max_mean_diff(&oracle) < 1e-9);
    assert!(rts.max_mean_diff(&oracle) < 1e-9);
}

#[test]
fn observations_only_at_the_ends() {
    // Everything between the two observed states is interpolated through
    // the dynamics — a stress test for long unobserved stretches.
    let mut model = generators::sparse_observations(&mut rng(401), 2, 24, 1_000_000);
    // keep state-0 observation; add one at the very end
    let g = kalman::dense::Matrix::identity(2);
    model.steps[24].observation = Some(kalman::model::Observation {
        g,
        o: vec![1.0, -1.0],
        noise: CovarianceSpec::Identity(2),
    });
    let oracle = solve_dense(&model).unwrap();
    let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
    assert!(oe.max_mean_diff(&oracle) < 1e-8);
    assert!(ps.max_mean_diff(&oracle) < 1e-8);
    assert!(oe.max_cov_diff(&oracle).unwrap() < 1e-7);
}

#[test]
fn partial_observation_of_high_dimensional_state() {
    // Oscillator observes 1 of 2 components; also try every chain parity.
    for k in [7usize, 8, 9] {
        let p = generators::oscillator(&mut rng(402 + k as u64), k, 0.05, 2.0, 0.1, 1e-3, 1e-2);
        let oracle = solve_dense(&p.model).unwrap();
        let oe = odd_even_smooth(&p.model, OddEvenOptions::default()).unwrap();
        assert!(oe.max_mean_diff(&oracle) < 1e-8, "k={k}");
    }
}

#[test]
fn extreme_noise_weightings() {
    // Nearly exact observations (tiny L) and nearly free dynamics (huge K).
    let mut model = generators::paper_benchmark(&mut rng(500), 2, 10, false);
    for step in model.steps.iter_mut() {
        if let Some(obs) = &mut step.observation {
            obs.noise = CovarianceSpec::ScaledIdentity(2, 1e-10);
        }
        if let Some(evo) = &mut step.evolution {
            evo.noise = CovarianceSpec::ScaledIdentity(2, 1e6);
        }
    }
    let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    // With near-exact observations, û_i ≈ G⁻¹ o_i.
    for (i, step) in model.steps.iter().enumerate() {
        let obs = step.observation.as_ref().unwrap();
        let reconstructed = obs.g.mul_vec(oe.mean(i));
        for (a, b) in reconstructed.iter().zip(&obs.o) {
            assert!((a - b).abs() < 1e-4, "state {i}: {a} vs {b}");
        }
    }
}

#[test]
fn exogenous_inputs_are_respected() {
    // Deterministic drift: u_i = u_{i-1} + c with tiny noise, one anchor
    // observation at state 0 → û_i ≈ i·c.
    let mut model = LinearModel::new();
    model.push_step(LinearStep::initial(1).with_observation(Observation {
        g: Matrix::identity(1),
        o: vec![0.0],
        noise: CovarianceSpec::ScaledIdentity(1, 1e-9),
    }));
    for _ in 0..9 {
        model.push_step(LinearStep::evolving(Evolution {
            f: Matrix::identity(1),
            h: None,
            c: vec![2.5],
            noise: CovarianceSpec::ScaledIdentity(1, 1e-9),
        }));
    }
    // Need one more anchor for full rank? No: evolution rows + state-0 obs
    // give a square system. (k+1 unknowns, 1 + k rows.)
    let oe = odd_even_smooth(&model, OddEvenOptions::nc(ExecPolicy::Seq)).unwrap();
    for i in 0..10 {
        assert!(
            (oe.mean(i)[0] - 2.5 * i as f64).abs() < 1e-6,
            "state {i}: {}",
            oe.mean(i)[0]
        );
    }
}

#[test]
fn grain_size_sweep_is_exact() {
    // The paper's Fig. 6 sweeps TBB block sizes; results must be identical.
    let model = generators::paper_benchmark(&mut rng(501), 3, 100, false);
    let reference = odd_even_smooth(&model, OddEvenOptions::with_policy(ExecPolicy::Seq)).unwrap();
    for grain in [1usize, 2, 7, 100, 1_000_000] {
        let est = odd_even_smooth(
            &model,
            OddEvenOptions::with_policy(ExecPolicy::par_with_grain(grain)),
        )
        .unwrap();
        assert_eq!(est.max_mean_diff(&reference), 0.0, "grain {grain}");
    }
}

/// The smallest legal streaming configuration: lag 1, flush every step.
/// Estimates are filtered-like (one step of hindsight) but the machinery —
/// flush on every evolve, per-step condensation — must hold together.
#[test]
fn streaming_with_lag_one_finalizes_every_step() {
    let opts = StreamOptions {
        lag: 1,
        flush_every: 1,
        covariances: true,
        ..StreamOptions::default()
    };
    let mut stream =
        StreamingSmoother::with_prior(vec![0.0], CovarianceSpec::Identity(1), opts).unwrap();
    let mut finalized = Vec::new();
    for i in 0..25u64 {
        if i > 0 {
            finalized.extend(stream.evolve(Evolution::random_walk(1)).unwrap());
        }
        stream
            .observe(Observation {
                g: Matrix::identity(1),
                o: vec![i as f64],
                noise: CovarianceSpec::Identity(1),
            })
            .unwrap();
        assert!(stream.buffered_len() <= 2);
    }
    let (tail, _) = stream.finish().unwrap();
    finalized.extend(tail);
    assert_eq!(finalized.len(), 25);
    for (i, f) in finalized.iter().enumerate() {
        assert_eq!(f.index, i as u64);
        assert!(f.mean[0].is_finite());
        assert!(f.covariance.as_ref().unwrap()[(0, 0)].is_finite());
    }
}

/// Partial observations (oscillator observes 1 of 2 components) streamed
/// with the lag covering the whole run: finalization happens only at
/// finish(), so the result must equal the batch smoother to rounding.
#[test]
fn streaming_oscillator_with_full_lag_is_exact() {
    let p = generators::oscillator(&mut rng(600), 60, 0.05, 2.0, 0.1, 1e-3, 1e-2);
    let opts = StreamOptions {
        lag: 100, // > stream length: nothing finalizes early
        flush_every: 8,
        covariances: true,
        ..StreamOptions::default()
    };
    let prior = p.model.prior.as_ref().unwrap();
    let mut stream =
        StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts).unwrap();
    for event in events_of(&p.model) {
        assert!(stream.ingest(event).unwrap().is_empty());
    }
    let (finalized, _) = stream.finish().unwrap();
    let batch = odd_even_smooth(&p.model, OddEvenOptions::default()).unwrap();
    assert_eq!(finalized.len(), batch.len());
    for f in &finalized {
        let i = f.index as usize;
        for (a, b) in f.mean.iter().zip(batch.mean(i)) {
            assert!((a - b).abs() < 1e-9, "state {i}");
        }
        let cdiff = f
            .covariance
            .as_ref()
            .unwrap()
            .max_abs_diff(batch.covariance(i).unwrap());
        assert!(cdiff < 1e-9, "state {i}: cov diff {cdiff}");
    }
}

/// Exogenous inputs through condensation: a deterministic drift chain
/// observed only at its anchor must stream to û_i ≈ i·c exactly, because
/// the drift terms ride the head's right-hand side across windows.
#[test]
fn streaming_respects_exogenous_inputs_across_windows() {
    let opts = StreamOptions {
        lag: 3,
        flush_every: 2,
        covariances: false,
        ..StreamOptions::default()
    };
    let mut stream = StreamingSmoother::new(1, opts).unwrap();
    stream
        .observe(Observation {
            g: Matrix::identity(1),
            o: vec![0.0],
            noise: CovarianceSpec::ScaledIdentity(1, 1e-9),
        })
        .unwrap();
    let mut finalized = Vec::new();
    for _ in 0..20 {
        finalized.extend(
            stream
                .evolve(Evolution {
                    f: Matrix::identity(1),
                    h: None,
                    c: vec![2.5],
                    noise: CovarianceSpec::ScaledIdentity(1, 1e-9),
                })
                .unwrap(),
        );
    }
    let (tail, _) = stream.finish().unwrap();
    finalized.extend(tail);
    assert_eq!(finalized.len(), 21);
    for f in &finalized {
        let expect = 2.5 * f.index as f64;
        assert!(
            (f.mean[0] - expect).abs() < 1e-6,
            "state {}: {} vs {expect}",
            f.index,
            f.mean[0]
        );
    }
}

/// A no-prior, unobserved stream is rank deficient; the flush must say so
/// (instead of emitting garbage) and leave the stream usable.
#[test]
fn streaming_rank_deficiency_is_detected_and_recoverable() {
    let opts = StreamOptions {
        lag: 1,
        flush_every: 1,
        covariances: false,
        ..StreamOptions::default()
    };
    let mut stream = StreamingSmoother::new(2, opts).unwrap();
    stream.evolve(Evolution::random_walk(2)).unwrap();
    // Window is full; this evolve must flush and fail: nothing determines
    // the chain yet.
    let err = stream.evolve(Evolution::random_walk(2)).unwrap_err();
    assert!(matches!(err, KalmanError::RankDeficient { .. }), "{err:?}");
    // Observing pins the chain down; the stream proceeds.
    stream
        .observe(Observation {
            g: Matrix::identity(2),
            o: vec![1.0, -1.0],
            noise: CovarianceSpec::Identity(2),
        })
        .unwrap();
    let finalized = stream.evolve(Evolution::random_walk(2)).unwrap();
    assert!(!finalized.is_empty());
}

/// Non-finite input is refused where it enters, before any state is
/// touched: a NaN observation, an ∞ in `F`, a dense noise block with NaN
/// or ∞ on or below its diagonal (on `observe` and on `evolve`), an ∞ prior
/// mean, a NaN prior covariance and a NaN in a restored snapshot's head each
/// return the layer's typed error, and every step the stream finalizes
/// afterwards is bitwise equal to a twin that never saw them (forgetting is
/// exact, so one NaN in the window would otherwise stay in the stream's
/// priors for good).
#[test]
fn streaming_refuses_non_finite_input_and_stays_exact() {
    let model = generators::paper_benchmark(&mut rng(601), 2, 30, true);
    let prior = model.prior.as_ref().unwrap();
    let opts = StreamOptions {
        lag: 3,
        flush_every: 2,
        covariances: true,
        ..StreamOptions::default()
    };
    let dense = |rows: &[&[f64]]| CovarianceSpec::Dense(Matrix::from_rows(rows));

    let err = StreamingSmoother::with_prior(vec![f64::INFINITY, 0.0], prior.cov.clone(), opts)
        .unwrap_err();
    assert!(matches!(err, KalmanError::InvalidModel(_)), "{err:?}");
    let nan_cov = dense(&[&[1.0, 0.0], &[f64::NAN, 1.0]]);
    let err = StreamingSmoother::with_prior(prior.mean.clone(), nan_cov, opts).unwrap_err();
    assert!(
        matches!(err, KalmanError::NotPositiveDefinite { .. }),
        "{err:?}"
    );
    let poisoned = WindowSnapshot {
        index: 4,
        head: InfoHead::from_rows(
            Matrix::from_rows(&[&[1.0, f64::NAN], &[0.0, 1.0]]),
            Matrix::col_from_slice(&[0.0, 0.0]),
        ),
        base_emitted: true,
        events: Vec::new(),
    };
    let err = StreamingSmoother::restore(poisoned, opts).unwrap_err();
    assert!(matches!(err, KalmanError::Stream(_)), "{err:?}");

    let new_stream =
        || StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts).unwrap();
    let (mut clean, mut hostile) = (new_stream(), new_stream());
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for (j, event) in events_of(&model).into_iter().enumerate() {
        if j == 9 {
            let err = hostile
                .observe(Observation {
                    g: Matrix::identity(2),
                    o: vec![f64::NAN, 0.0],
                    noise: CovarianceSpec::Identity(2),
                })
                .unwrap_err();
            assert!(matches!(err, KalmanError::InvalidModel(_)), "{err:?}");
            for noise in [
                dense(&[&[f64::NAN, 0.0], &[0.0, 1.0]]),
                dense(&[&[1.0, 0.0], &[f64::NAN, 1.0]]),
            ] {
                let err = hostile
                    .observe(Observation {
                        g: Matrix::identity(2),
                        o: vec![0.0, 0.0],
                        noise,
                    })
                    .unwrap_err();
                assert!(
                    matches!(err, KalmanError::NotPositiveDefinite { .. }),
                    "{err:?}"
                );
            }
        }
        if j == 20 {
            let mut evo = Evolution::random_walk(2);
            evo.f[(1, 0)] = f64::INFINITY;
            let err = hostile.evolve(evo).unwrap_err();
            assert!(matches!(err, KalmanError::InvalidModel(_)), "{err:?}");
            for noise in [
                dense(&[&[f64::NAN, 0.0], &[0.0, 1.0]]),
                dense(&[&[1.0, 0.0], &[0.0, f64::INFINITY]]),
            ] {
                let mut evo = Evolution::random_walk(2);
                evo.noise = noise;
                let err = hostile.evolve(evo).unwrap_err();
                assert!(
                    matches!(err, KalmanError::NotPositiveDefinite { .. }),
                    "{err:?}"
                );
            }
        }
        want.extend(clean.ingest(event.clone()).unwrap());
        got.extend(hostile.ingest(event).unwrap());
    }
    want.extend(clean.finish().unwrap().0);
    got.extend(hostile.finish().unwrap().0);
    assert_eq!(got.len(), 31);
    for (a, b) in got.iter().zip(&want) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.mean, b.mean, "step {}", a.index);
        let (ca, cb) = (
            a.covariance.as_ref().unwrap(),
            b.covariance.as_ref().unwrap(),
        );
        assert_eq!(ca.max_abs_diff(cb), 0.0, "step {}", a.index);
    }
}

/// `restore` refuses every head the wire decoder refuses — one check
/// serves both entries: a NaN, a +∞, 3 rows on 2 columns, a 2-column `d`,
/// a `d` with the wrong row count, 0 columns and `MAX_STATE_DIM + 1`
/// columns each return `KalmanError::Stream` from `restore` and
/// `WireError::Malformed` off the wire, and the clean snapshot they were
/// cut from still continues its stream bitwise.
#[test]
fn restore_refuses_what_the_wire_refuses() {
    use kalman::stream::{FinalizedStep, MAX_STATE_DIM};
    use kalman::wire::{codec, Reader, WireError, Writer};

    let model = generators::paper_benchmark(&mut rng(603), 2, 40, true);
    let prior = model.prior.as_ref().unwrap();
    let opts = StreamOptions {
        lag: 4,
        flush_every: 2,
        covariances: true,
        ..StreamOptions::default()
    };
    let events = events_of(&model);
    let mut original =
        StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts).unwrap();
    for event in &events[..21] {
        original.ingest(event.clone()).unwrap();
    }
    let snap = original.snapshot().unwrap();
    let (c, d) = snap.head.rows_ref();
    let poisoned = |m: &Matrix, at: (usize, usize), v: f64| {
        let mut m = m.clone();
        m[at] = v;
        m
    };
    let eye32 = Matrix::from_fn(3, 2, |i, j| (i == j) as u8 as f64);
    let hostile = [
        ("a NaN", poisoned(c, (0, 1), f64::NAN), d.clone()),
        ("a +inf", c.clone(), poisoned(d, (1, 0), f64::INFINITY)),
        ("3 rows on 2 columns", eye32, Matrix::zeros(3, 1)),
        ("a 2-column d", c.clone(), Matrix::zeros(2, 2)),
        (
            "a d with the wrong row count",
            c.clone(),
            Matrix::zeros(3, 1),
        ),
        ("0 columns", Matrix::zeros(0, 0), Matrix::zeros(0, 1)),
        (
            "too many columns",
            Matrix::zeros(0, MAX_STATE_DIM + 1),
            Matrix::zeros(0, 1),
        ),
    ];
    for (what, c, d) in hostile {
        let bad = WindowSnapshot {
            head: InfoHead::from_rows(c, d),
            ..snap.clone()
        };
        let mut w = Writer::new();
        codec::encode_window_snapshot(&mut w, &bad);
        let decoded = codec::decode_window_snapshot(&mut Reader::new(w.as_slice()));
        assert!(matches!(decoded, Err(WireError::Malformed(_))), "{what}");
        let restored = StreamingSmoother::restore(bad, opts);
        assert!(matches!(restored, Err(KalmanError::Stream(_))), "{what}");
    }

    let mut twin = StreamingSmoother::restore(snap, opts).unwrap();
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for event in &events[21..] {
        want.extend(original.ingest(event.clone()).unwrap());
        got.extend(twin.ingest(event.clone()).unwrap());
    }
    want.extend(original.finish().unwrap().0);
    got.extend(twin.finish().unwrap().0);
    let bits = |f: &FinalizedStep| -> Vec<u64> {
        let cov = f.covariance.as_ref().unwrap().as_slice();
        let all = f.mean.iter().chain(cov).map(|x| x.to_bits());
        std::iter::once(f.index).chain(all).collect()
    };
    assert_eq!(got.last().unwrap().index, 40);
    let bits_of = |v: &[FinalizedStep]| v.iter().map(bits).collect::<Vec<_>>();
    assert_eq!(bits_of(&got), bits_of(&want));
}

/// Every batch engine refuses a NaN/±∞ entry with the very error the
/// stream refuses it with: one set of step checks serves both ways a model
/// arrives.  Each poisoned block sits at a middle step; the prior mean is
/// compared with `with_prior`'s refusal.
#[test]
fn batch_engines_refuse_what_the_stream_refuses() {
    const MID: usize = 4;
    let clean = generators::paper_benchmark(&mut rng(602), 3, 9, true);
    let opts = StreamOptions {
        auto_flush: false,
        ..StreamOptions::default()
    };
    let oe = OddEvenOptions::default();
    for block in ["F", "H", "c", "G", "o", "prior mean"] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut model = clean.clone();
            let step = &mut model.steps[MID];
            let (evo, obs) = (
                step.evolution.as_mut().unwrap(),
                step.observation.as_mut().unwrap(),
            );
            match block {
                "F" => evo.f[(1, 2)] = bad,
                // Poisoned where the model states its `H = I` explicitly.
                "H" => evo.h.insert(Matrix::identity(3))[(2, 0)] = bad,
                "c" => evo.c[1] = bad,
                "G" => obs.g[(0, 1)] = bad,
                "o" => obs.o[2] = bad,
                _ => model.prior.as_mut().unwrap().mean[0] = bad,
            }
            let prior = model.prior.as_ref().unwrap();
            let stream_err =
                match StreamingSmoother::with_prior(prior.mean.clone(), prior.cov.clone(), opts) {
                    Err(e) => e,
                    Ok(mut stream) => events_of(&model)
                        .into_iter()
                        .find_map(|event| stream.ingest(event).err())
                        .expect("the stream refuses the poisoned event"),
                };
            let at = if block == "prior mean" { 0 } else { MID };
            let want = format!("step {at}: {block} has a non-finite entry");
            assert!(
                matches!(&stream_err, KalmanError::InvalidModel(m) if *m == want),
                "{stream_err:?}"
            );
            let results = [
                ("odd-even", odd_even_smooth(&model, oe).map(drop)),
                ("plan", SmoothPlan::for_model(&model, oe).map(drop)),
                (
                    "PS",
                    paige_saunders_smooth(&model, SmootherOptions::default()).map(drop),
                ),
                ("RTS", rts_smooth(&model).map(drop)),
                (
                    "assoc",
                    associative_smooth(&model, AssociativeOptions::default()).map(drop),
                ),
                (
                    "normal",
                    normal_equations_smooth(&model, TridiagMethod::Cholesky, ExecPolicy::Seq)
                        .map(drop),
                ),
                ("dense", solve_dense(&model).map(drop)),
            ];
            for (engine, result) in results {
                assert!(
                    matches!(&result, Err(KalmanError::InvalidModel(m)) if *m == want),
                    "{engine}, {block} = {bad}: {result:?}, want {want:?}"
                );
            }
        }
    }
}

#[test]
fn diagonal_and_dense_covariances_mix() {
    let mut model = generators::paper_benchmark(&mut rng(502), 3, 12, true);
    let mut r = rng(503);
    model.steps[3].observation.as_mut().unwrap().noise =
        CovarianceSpec::Diagonal(vec![0.5, 2.0, 1.5]);
    model.steps[5].evolution.as_mut().unwrap().noise =
        CovarianceSpec::Dense(kalman::dense::random::spd(&mut r, 3));
    let oracle = solve_dense(&model).unwrap();
    let oe = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
    let rts = rts_smooth(&model).unwrap();
    assert!(oe.max_mean_diff(&oracle) < 1e-8);
    assert!(rts.max_mean_diff(&oracle) < 1e-8);
    assert!(oe.max_cov_diff(&oracle).unwrap() < 1e-8);
}
