//! Property tests for the model layer: whitening identities and oracle
//! consistency on random covariance specifications.

use kalman_dense::{matmul, matmul_tn, random, Cholesky, Matrix};
use kalman_model::{solve_dense, CovarianceSpec, Evolution, LinearModel, LinearStep, Observation};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn cov_strategy(n: usize) -> impl Strategy<Value = CovarianceSpec> {
    prop_oneof![
        Just(CovarianceSpec::Identity(n)),
        (0.1f64..10.0).prop_map(move |s| CovarianceSpec::ScaledIdentity(n, s)),
        proptest::collection::vec(0.1f64..10.0, n).prop_map(CovarianceSpec::Diagonal),
        (0u64..10_000).prop_map(move |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            CovarianceSpec::Dense(random::spd(&mut rng, n))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whitening identity: (W·A)ᵀ(W·A) == Aᵀ C⁻¹ A for every spec variant.
    #[test]
    fn whitening_gram_identity(spec in cov_strategy(4), seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = random::gaussian(&mut rng, 4, 3);
        let wa = spec.whiten(&a, 0).unwrap();
        let cinv = Cholesky::new(&spec.to_dense()).unwrap().inverse();
        let expect = matmul_tn(&a, &matmul(&cinv, &a));
        let got = matmul_tn(&wa, &wa);
        prop_assert!(got.approx_eq(&expect, 1e-7 * (1.0 + expect.max_abs())));
    }

    /// The weighted least-squares solution is invariant to *rescaling* all
    /// covariances by the same factor (only relative weights matter).
    #[test]
    fn solution_invariant_to_global_covariance_scale(
        seed in 0u64..10_000,
        scale in 0.1f64..10.0,
        k in 1usize..12,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = kalman_model::generators::paper_benchmark(&mut rng, 2, k, false);
        let mut scaled = base.clone();
        for step in scaled.steps.iter_mut() {
            if let Some(evo) = &mut step.evolution {
                evo.noise = CovarianceSpec::ScaledIdentity(2, scale);
            }
            if let Some(obs) = &mut step.observation {
                obs.noise = CovarianceSpec::ScaledIdentity(2, scale);
            }
        }
        let a = solve_dense(&base).unwrap();
        let b = solve_dense(&scaled).unwrap();
        prop_assert!(a.max_mean_diff(&b) < 1e-7, "diff {}", a.max_mean_diff(&b));
        // Covariances scale linearly with the global factor.
        for (ca, cb) in a.covariances.as_ref().unwrap().iter()
            .zip(b.covariances.as_ref().unwrap())
        {
            prop_assert!(ca.scaled(scale).approx_eq(cb, 1e-6 * (1.0 + cb.max_abs())));
        }
    }

    /// Tightening one observation's noise moves the estimate toward that
    /// observation (monotonicity of weighted least squares).
    #[test]
    fn tighter_observation_pulls_estimate(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let o_target = random::gaussian_vec(&mut rng, 1)[0] + 5.0;
        let build = |noise: f64| {
            let mut m = LinearModel::new();
            m.push_step(LinearStep::initial(1).with_observation(Observation {
                g: Matrix::identity(1),
                o: vec![0.0],
                noise: CovarianceSpec::Identity(1),
            }));
            m.push_step(
                LinearStep::evolving(Evolution::random_walk(1)).with_observation(Observation {
                    g: Matrix::identity(1),
                    o: vec![o_target],
                    noise: CovarianceSpec::ScaledIdentity(1, noise),
                }),
            );
            m
        };
        let loose = solve_dense(&build(10.0)).unwrap();
        let tight = solve_dense(&build(0.01)).unwrap();
        prop_assert!(
            (tight.mean(1)[0] - o_target).abs() < (loose.mean(1)[0] - o_target).abs()
        );
    }

    /// Validation accepts exactly the models the solver can handle: random
    /// dimension corruption must be caught by validate(), never panic.
    #[test]
    fn corrupted_models_fail_validation_not_panic(
        seed in 0u64..10_000,
        which in 0usize..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = kalman_model::generators::paper_benchmark(&mut rng, 2, 4, false);
        match which {
            0 => model.steps[2].evolution.as_mut().unwrap().f = Matrix::zeros(3, 3),
            1 => model.steps[1].observation.as_mut().unwrap().o = vec![0.0; 7],
            2 => model.steps[3].evolution.as_mut().unwrap().c = vec![0.0; 9],
            _ => {
                model.steps[1].observation.as_mut().unwrap().noise =
                    CovarianceSpec::Diagonal(vec![1.0])
            }
        }
        prop_assert!(model.validate().is_err());
        prop_assert!(solve_dense(&model).is_err());
    }
}

// ---------------------------------------------------------------------------
// The fused forward step (`InfoHead::step_into`) against the three general
// calls it replaces on the fixed-size shapes.  Under `KALMAN_REF_KERNELS=1`
// the fused call *is* the general chain, and every comparison below holds
// bit for bit.
// ---------------------------------------------------------------------------

use kalman_dense::{fixed, reference_kernels, tri};
use kalman_model::{EliminatedRows, InfoHead, WhitenedEvo, WhitenedObs};

/// One step's worth of random blocks: an `n × n` head (dense, or the upper
/// triangle of one), an `m`-row observation and a square evolution.
struct StepCase {
    head: InfoHead,
    obs: Observation,
    evolution: Evolution,
}

fn step_case(
    seed: u64,
    n: usize,
    m: usize,
    triangular_head: bool,
    square_h: bool,
    noises: (CovarianceSpec, CovarianceSpec),
) -> StepCase {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut c = random::gaussian(&mut rng, n, n);
    if triangular_head {
        c = c.upper_triangular_part();
        for j in 0..n {
            c[(j, j)] += 2.0; // keep the triangle well away from singular
        }
    }
    let column = |rng: &mut ChaCha8Rng, len: usize| random::gaussian(rng, len, 1).col(0).to_vec();
    let d = Matrix::col_from_slice(&column(&mut rng, n));
    StepCase {
        head: InfoHead::from_rows(c, d),
        obs: Observation {
            g: random::gaussian(&mut rng, m, n),
            o: column(&mut rng, m),
            noise: noises.0,
        },
        evolution: Evolution {
            f: random::gaussian(&mut rng, n, n),
            h: square_h.then(|| random::gaussian(&mut rng, n, n)),
            c: column(&mut rng, n),
            noise: noises.1,
        },
    }
}

/// What one forward step leaves: the block row, the downward sweep's terms,
/// the next head.
struct StepResult {
    rows: Option<EliminatedRows>,
    x: Matrix,
    a: Matrix,
    b: Matrix,
    next: InfoHead,
}

/// The step through `with_observation` → `eliminate` → the two triangular
/// kernels.
fn general_step(case: &StepCase, evo: &WhitenedEvo) -> StepResult {
    let posterior = case.head.with_observation(&case.obs, 0).unwrap();
    let (rows, next) = posterior.eliminate(evo);
    let (mut x, mut a, mut b) = (Matrix::default(), Matrix::default(), Matrix::default());
    if let Some(rows) = &rows {
        x = rows.off.clone();
        tri::solve_upper_in_place(&rows.diag, &mut x).unwrap();
        a = tri::inv_gram_upper(&rows.diag).unwrap();
        b = rows.rhs.clone();
        tri::solve_upper_in_place(&rows.diag, &mut b).unwrap();
    }
    StepResult {
        rows,
        x,
        a,
        b,
        next,
    }
}

fn fused_step(case: &StepCase, evo: &WhitenedEvo) -> StepResult {
    let mut obs = WhitenedObs::default();
    obs.assign(&case.obs, 0).unwrap();
    let mut out = StepResult {
        rows: None,
        x: Matrix::default(),
        a: Matrix::default(),
        b: Matrix::default(),
        next: InfoHead::empty(0),
    };
    let mut rows = EliminatedRows::default();
    let determined = case.head.step_into(
        Some(&obs),
        evo,
        &mut rows,
        Some((&mut out.x, &mut out.a, &mut out.b)),
        &mut out.next,
    );
    out.rows = determined.then_some(rows);
    out
}

/// Whether the fixed-size body accepts the whitened blocks of `case`.
fn fixed_body_runs(case: &StepCase, evo: &WhitenedEvo) -> bool {
    let obs = WhitenedObs::from_observation(&case.obs, 0).unwrap();
    let (c, d) = case.head.rows_ref();
    let mut out: [Matrix; 5] = Default::default();
    let [diag, off, rhs, next_c, next_d] = &mut out;
    fixed::forward_step(
        (c, d),
        (&obs.c, &obs.rhs),
        (&evo.b, &evo.d, &evo.rhs),
        (diag, off, rhs),
        (next_c, next_d),
        None,
    )
}

fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
    (
        m.rows(),
        m.cols(),
        m.as_slice().iter().map(|v| v.to_bits()).collect(),
    )
}

/// The blocks of a result, named, in a fixed order.
fn blocks(r: &StepResult) -> Vec<(&'static str, &Matrix)> {
    let (next_c, next_d) = r.next.rows_ref();
    let mut all = vec![("next C", next_c), ("next d", next_d)];
    if let Some(rows) = &r.rows {
        all.extend([
            ("R_jj", &rows.diag),
            ("R_j,j+1", &rows.off),
            ("rhs", &rows.rhs),
            ("X", &r.x),
            ("A", &r.a),
            ("b", &r.b),
        ]);
    }
    all
}

fn assert_same_bits(got: &StepResult, want: &StepResult) {
    assert_eq!(got.rows.is_some(), want.rows.is_some());
    for ((name, g), (_, w)) in blocks(got).into_iter().zip(blocks(want)) {
        assert_eq!(bits(g), bits(w), "{name}");
    }
}

/// `[C 0 d; G 0 o; −B D r]` before the step and `[R_jj R_j,j+1 rhs; 0 C' d']`
/// after it have the same Gram matrix, up to the squared norm of the
/// right-hand side (the absorb drops pure residual rows).
fn assert_augmented_gram(case: &StepCase, evo: &WhitenedEvo, got: &StepResult) {
    let obs = WhitenedObs::from_observation(&case.obs, 0).unwrap();
    let (c, d) = case.head.rows_ref();
    let n = c.cols();
    let width = 2 * n + 1;
    let stack = |blocks: &[(&Matrix, usize)]| {
        let rows = blocks[0].0.rows();
        let mut m = Matrix::zeros(rows, width);
        for (b, col) in blocks {
            m.set_block(0, *col, b);
        }
        m
    };
    let before = Matrix::vstack(&[
        &stack(&[(c, 0), (d, 2 * n)]),
        &stack(&[(&obs.c, 0), (&obs.rhs, 2 * n)]),
        &stack(&[(&evo.b.scaled(-1.0), 0), (&evo.d, n), (&evo.rhs, 2 * n)]),
    ]);
    let rows = got.rows.as_ref().unwrap();
    let (next_c, next_d) = got.next.rows_ref();
    let after = Matrix::vstack(&[
        &stack(&[(&rows.diag, 0), (&rows.off, n), (&rows.rhs, 2 * n)]),
        &stack(&[(next_c, n), (next_d, 2 * n)]),
    ]);
    let (mut want, mut have) = (matmul_tn(&before, &before), matmul_tn(&after, &after));
    want[(2 * n, 2 * n)] = 0.0;
    have[(2 * n, 2 * n)] = 0.0;
    assert!(
        have.approx_eq(&want, 1e-11 * (1.0 + want.max_abs())),
        "augmented Gram off by {}",
        have.max_abs_diff(&want)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On the static shape (n rows observed, square evolution) the fused
    /// step runs the fixed-size body and agrees with the general chain to
    /// rounding on all five blocks and both terms, signs included.
    #[test]
    fn fused_step_matches_the_general_chain_on_the_static_shape(
        seed in 0u64..100_000,
        wide in any::<bool>(),
        triangular_head in any::<bool>(),
        square_h in any::<bool>(),
        obs_noise in 0usize..4,
        evo_noise in 0usize..4,
    ) {
        let n = if wide { 8 } else { 4 };
        let noise = |kind: usize, salt: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ salt);
            match kind {
                0 => CovarianceSpec::Identity(n),
                1 => CovarianceSpec::ScaledIdentity(n, 0.3 + (seed % 7) as f64),
                2 => CovarianceSpec::Diagonal((0..n).map(|i| 0.5 + (i % 3) as f64).collect()),
                _ => CovarianceSpec::Dense(random::spd(&mut rng, n)),
            }
        };
        let case = step_case(
            seed, n, n, triangular_head, square_h, (noise(obs_noise, 1), noise(evo_noise, 2)),
        );
        let evo = WhitenedEvo::from_evolution(&case.evolution, n, 1).unwrap();
        prop_assert_eq!(fixed_body_runs(&case, &evo), !reference_kernels());
        let (got, want) = (fused_step(&case, &evo), general_step(&case, &evo));
        prop_assert!(got.rows.is_some() && want.rows.is_some());
        for ((name, g), (_, w)) in blocks(&got).into_iter().zip(blocks(&want)) {
            let scale = 1.0 + w.max_abs();
            prop_assert!(
                g.approx_eq(w, 1e-12 * scale),
                "n={} {}: off by {} (scale {})", n, name, g.max_abs_diff(w), scale
            );
        }
        prop_assert!(got.rows.as_ref().unwrap().diag.is_upper_triangular());
        assert_augmented_gram(&case, &evo, &got);
    }

    /// Fewer or more observation rows than states, and any other dimension,
    /// are not the static shape: the fused call is the general chain there,
    /// bit for bit.
    #[test]
    fn fused_step_falls_back_off_the_static_shape(
        seed in 0u64..100_000,
        n in prop_oneof![Just(3usize), Just(4), Just(6), Just(8)],
        rows in 1usize..13,
        triangular_head in any::<bool>(),
    ) {
        // `rows == n` is the static shape at n = 4 and 8: stack one more.
        let m = if rows == n && matches!(n, 4 | 8) { rows + 1 } else { rows };
        let noises = (CovarianceSpec::Identity(m), CovarianceSpec::ScaledIdentity(n, 0.5));
        let case = step_case(seed, n, m, triangular_head, false, noises);
        let evo = WhitenedEvo::from_evolution(&case.evolution, n, 1).unwrap();
        prop_assert!(!fixed_body_runs(&case, &evo));
        assert_same_bits(&fused_step(&case, &evo), &general_step(&case, &evo));
    }

    /// A stack that does not determine the state (column `dead` appears in
    /// no equation) fails the rank test inside the fixed-size body, which
    /// then must have written nothing: the result is the general chain's,
    /// bit for bit.  With the column zero in the head and the observation
    /// only (τ = 0 in the absorb, filled in by the evolution) the body runs
    /// and no NaN appears.
    #[test]
    fn rank_failures_fall_back_and_zero_columns_stay_finite(
        seed in 0u64..100_000,
        wide in any::<bool>(),
        dead in 0usize..4,
    ) {
        let n = if wide { 8 } else { 4 };
        let noises = (CovarianceSpec::Identity(n), CovarianceSpec::Identity(n));
        let mut case = step_case(seed, n, n, false, false, noises);
        let (mut c, d) = case.head.clone().into_rows();
        c.col_mut(dead).fill(0.0);
        case.head = InfoHead::from_rows(c, d);
        case.obs.g.col_mut(dead).fill(0.0);
        let evo = WhitenedEvo::from_evolution(&case.evolution, n, 1).unwrap();
        prop_assert_eq!(fixed_body_runs(&case, &evo), !reference_kernels());
        let (got, want) = (fused_step(&case, &evo), general_step(&case, &evo));
        for ((name, g), (_, w)) in blocks(&got).into_iter().zip(blocks(&want)) {
            prop_assert!(g.as_slice().iter().all(|v| v.is_finite()), "{}", name);
            prop_assert!(g.approx_eq(w, 1e-12 * (1.0 + w.max_abs())), "{}", name);
        }

        case.evolution.f.col_mut(dead).fill(0.0);
        let evo = WhitenedEvo::from_evolution(&case.evolution, n, 1).unwrap();
        prop_assert!(!fixed_body_runs(&case, &evo));
        let (got, want) = (fused_step(&case, &evo), general_step(&case, &evo));
        prop_assert!(want.rows.is_none());
        assert_same_bits(&got, &want);
    }
}
