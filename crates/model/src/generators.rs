//! Synthetic problem generators.
//!
//! [`paper_benchmark`] reproduces the paper's §5.2 setting exactly: fixed
//! random orthonormal `F` and `G`, `H = I`, `K = L = I`, random
//! observations.  The remaining generators produce *simulated* trajectories
//! (ground truth + noisy observations) for the examples, accuracy tests, and
//! the stability experiment.

use crate::{CovarianceSpec, Evolution, LinearModel, LinearStep, Observation, Prior};
use kalman_dense::{random, Cholesky, Matrix};
use rand::Rng;

/// The paper's benchmark problem (§5.2): `k + 1` states of dimension `n`,
/// fixed random orthonormal `F_i = F` and `G_i = G`, `H_i = I`,
/// `K_i = L_i = I`, random observations, and (when `with_prior`) a standard
/// Gaussian prior on `u_0` so the RTS/associative smoothers can run on the
/// same model.
///
/// The orthonormal evolution avoids growth or shrinkage of the state over
/// millions of steps, hence overflow/underflow — the reason the paper uses
/// this construction.
pub fn paper_benchmark<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    with_prior: bool,
) -> LinearModel {
    let f = random::orthonormal(rng, n);
    let g = random::orthonormal(rng, n);
    let mut model = LinearModel::new();
    for i in 0..=k {
        let mut step = if i == 0 {
            LinearStep::initial(n)
        } else {
            LinearStep::evolving(Evolution {
                f: f.clone(),
                h: None,
                c: vec![0.0; n],
                noise: CovarianceSpec::Identity(n),
            })
        };
        step = step.with_observation(Observation {
            g: g.clone(),
            o: random::gaussian_vec(rng, n),
            noise: CovarianceSpec::Identity(n),
        });
        model.push_step(step);
    }
    if with_prior {
        model.prior = Some(Prior {
            mean: vec![0.0; n],
            cov: CovarianceSpec::Identity(n),
        });
    }
    model
}

/// Output of a simulation-backed generator: the model plus the ground-truth
/// trajectory the observations were sampled from.
#[derive(Debug, Clone)]
pub struct SimulatedProblem {
    /// The smoothing problem.
    pub model: LinearModel,
    /// True states `u_0 … u_k`.
    pub truth: Vec<Vec<f64>>,
}

/// Constant-velocity 2-D target tracking: state `[x, y, vx, vy]`, noisy
/// position observations — the classic motivating workload for Kalman
/// smoothing.
///
/// `dt` is the sampling interval, `q` the continuous process-noise
/// intensity, `r` the observation noise variance per coordinate.
pub fn tracking_2d<R: Rng + ?Sized>(
    rng: &mut R,
    k: usize,
    dt: f64,
    q: f64,
    r: f64,
) -> SimulatedProblem {
    let n = 4;
    // F = [I2, dt·I2; 0, I2]
    let mut f = Matrix::identity(n);
    f[(0, 2)] = dt;
    f[(1, 3)] = dt;
    // Discretized white-noise-acceleration covariance.
    let (q11, q12, q22) = (q * dt * dt * dt / 3.0, q * dt * dt / 2.0, q * dt);
    let mut qm = Matrix::zeros(n, n);
    for d in 0..2 {
        qm[(d, d)] = q11;
        qm[(d, d + 2)] = q12;
        qm[(d + 2, d)] = q12;
        qm[(d + 2, d + 2)] = q22;
    }
    // G observes positions.
    let mut g = Matrix::zeros(2, n);
    g[(0, 0)] = 1.0;
    g[(1, 1)] = 1.0;

    let process = CovarianceSpec::Dense(qm.clone());
    let obs_noise = CovarianceSpec::ScaledIdentity(2, r);
    let q_chol = Cholesky::new(&qm).expect("process covariance is SPD");

    let mut truth = Vec::with_capacity(k + 1);
    let mut state = vec![0.0, 0.0, 1.0, 0.5]; // start moving diagonally
    truth.push(state.clone());
    let mut model = LinearModel::new();
    let observe = |rng: &mut R, state: &[f64]| -> Observation {
        let o = vec![
            state[0] + r.sqrt() * random::standard_normal(rng),
            state[1] + r.sqrt() * random::standard_normal(rng),
        ];
        Observation {
            g: g.clone(),
            o,
            noise: obs_noise.clone(),
        }
    };
    model.push_step(LinearStep::initial(n).with_observation(observe(rng, &state)));
    for _ in 0..k {
        let mut next = f.mul_vec(&state);
        for (x, w) in next
            .iter_mut()
            .zip(random::sample_gaussian_cov(rng, &q_chol))
        {
            *x += w;
        }
        state = next;
        truth.push(state.clone());
        model.push_step(
            LinearStep::evolving(Evolution {
                f: f.clone(),
                h: None,
                c: vec![0.0; n],
                noise: process.clone(),
            })
            .with_observation(observe(rng, &state)),
        );
    }
    model.prior = Some(Prior {
        mean: vec![0.0, 0.0, 1.0, 0.5],
        cov: CovarianceSpec::ScaledIdentity(n, 10.0),
    });
    SimulatedProblem { model, truth }
}

/// A damped harmonic oscillator observed in position only (`m_i = 1 <
/// n_i = 2`), exercising partial observations.
///
/// `omega` is the angular frequency, `zeta` the damping ratio (< 1),
/// `q`/`r` the process/observation noise variances.
pub fn oscillator<R: Rng + ?Sized>(
    rng: &mut R,
    k: usize,
    dt: f64,
    omega: f64,
    zeta: f64,
    q: f64,
    r: f64,
) -> SimulatedProblem {
    // Exact discretization of x'' + 2ζω x' + ω² x = noise.
    let wd = omega * (1.0 - zeta * zeta).max(1e-12).sqrt();
    let e = (-zeta * omega * dt).exp();
    let (c, s) = ((wd * dt).cos(), (wd * dt).sin());
    let f = Matrix::from_rows(&[
        &[e * (c + zeta * omega * s / wd), e * s / wd],
        &[-e * omega * omega * s / wd, e * (c - zeta * omega * s / wd)],
    ]);
    let g = Matrix::from_rows(&[&[1.0, 0.0]]);
    let process = CovarianceSpec::ScaledIdentity(2, q);
    let obs_noise = CovarianceSpec::ScaledIdentity(1, r);

    let mut truth = Vec::with_capacity(k + 1);
    let mut state = vec![1.0, 0.0];
    truth.push(state.clone());
    let mut model = LinearModel::new();
    let observe = |rng: &mut R, state: &[f64]| Observation {
        g: g.clone(),
        o: vec![state[0] + r.sqrt() * random::standard_normal(rng)],
        noise: obs_noise.clone(),
    };
    model.push_step(LinearStep::initial(2).with_observation(observe(rng, &state)));
    for _ in 0..k {
        let mut next = f.mul_vec(&state);
        for x in next.iter_mut() {
            *x += q.sqrt() * random::standard_normal(rng);
        }
        state = next;
        truth.push(state.clone());
        model.push_step(
            LinearStep::evolving(Evolution {
                f: f.clone(),
                h: None,
                c: vec![0.0; 2],
                noise: process.clone(),
            })
            .with_observation(observe(rng, &state)),
        );
    }
    model.prior = Some(Prior {
        mean: vec![1.0, 0.0],
        cov: CovarianceSpec::ScaledIdentity(2, 1.0),
    });
    SimulatedProblem { model, truth }
}

/// The paper benchmark with *ill-conditioned* noise covariances: `K_i` and
/// `L_i` are random SPD matrices with 2-norm condition number `cond`.
///
/// Used by the stability experiment (§6): the QR-based smoothers are
/// backward stable when the input covariances are well conditioned, whereas
/// the normal-equations cyclic-reduction smoother squares the condition
/// number and loses accuracy much earlier.
pub fn ill_conditioned<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize, cond: f64) -> LinearModel {
    let f = random::orthonormal(rng, n);
    let g = random::orthonormal(rng, n);
    let mut model = LinearModel::new();
    for i in 0..=k {
        let mut step = if i == 0 {
            LinearStep::initial(n)
        } else {
            LinearStep::evolving(Evolution {
                f: f.clone(),
                h: None,
                c: vec![0.0; n],
                noise: CovarianceSpec::Dense(random::spd_with_condition(rng, n, cond)),
            })
        };
        step = step.with_observation(Observation {
            g: g.clone(),
            o: random::gaussian_vec(rng, n),
            noise: CovarianceSpec::Dense(random::spd_with_condition(rng, n, cond)),
        });
        model.push_step(step);
    }
    model
}

/// A model whose state dimension changes over time through rectangular
/// `H_i` blocks (dimension `n` → `n+1` → `n` → …), which only the QR-based
/// smoothers support.
///
/// The evolution `H_i u_i = F_i u_{i-1} + ε` with a rectangular `H_i`
/// constrains a *projection* of the new state; every state is fully
/// observed so the problem stays well posed.
pub fn dimension_change<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> LinearModel {
    let mut model = LinearModel::new();
    let mut prev_dim = n;
    let obs = |rng: &mut R, dim: usize| Observation {
        g: random::orthonormal(rng, dim),
        o: random::gaussian_vec(rng, dim),
        noise: CovarianceSpec::Identity(dim),
    };
    model.push_step(LinearStep::initial(n).with_observation(obs(rng, n)));
    for i in 1..=k {
        let dim = if i % 2 == 1 { n + 1 } else { n };
        // H: l × dim selecting the first l coordinates, with l = prev_dim rows.
        let h = Matrix::from_fn(prev_dim, dim, |r, c| if r == c { 1.0 } else { 0.0 });
        model.push_step(
            LinearStep::evolving(Evolution {
                f: random::orthonormal(rng, prev_dim),
                h: Some(h),
                c: vec![0.0; prev_dim],
                noise: CovarianceSpec::Identity(prev_dim),
            })
            .with_observation(obs(rng, dim)),
        );
        prev_dim = dim;
    }
    model
}

/// The paper benchmark but with observations only every `every`-th step
/// (missing observations, `m_i = 0` elsewhere).  Requires a prior or dense
/// enough observations to stay full rank; we keep the state-0 observation.
pub fn sparse_observations<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    every: usize,
) -> LinearModel {
    assert!(every >= 1);
    let f = random::orthonormal(rng, n);
    let g = random::orthonormal(rng, n);
    let mut model = LinearModel::new();
    for i in 0..=k {
        let mut step = if i == 0 {
            LinearStep::initial(n)
        } else {
            LinearStep::evolving(Evolution {
                f: f.clone(),
                h: None,
                c: vec![0.0; n],
                noise: CovarianceSpec::Identity(n),
            })
        };
        if i % every == 0 {
            step = step.with_observation(Observation {
                g: g.clone(),
                o: random::gaussian_vec(rng, n),
                noise: CovarianceSpec::Identity(n),
            });
        }
        model.push_step(step);
    }
    model
}

/// The paper benchmark with *short* observation blocks: every state is
/// observed through the first `m < n` rows of a random orthonormal matrix
/// (partial observations), plus a standard Gaussian prior so the problem
/// stays full rank.  Exercises the odd-even smoothers' step 1 on
/// observation blocks that cannot be triangularized (`m_i < n_i`).
pub fn short_observations<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    m: usize,
) -> LinearModel {
    assert!(m >= 1 && m < n, "short_observations needs 1 <= m < n");
    let f = random::orthonormal(rng, n);
    let g = random::orthonormal(rng, n).sub_matrix(0, 0, m, n);
    let mut model = LinearModel::new();
    for i in 0..=k {
        let mut step = if i == 0 {
            LinearStep::initial(n)
        } else {
            LinearStep::evolving(Evolution {
                f: f.clone(),
                h: None,
                c: vec![0.0; n],
                noise: CovarianceSpec::Identity(n),
            })
        };
        step = step.with_observation(Observation {
            g: g.clone(),
            o: random::gaussian_vec(rng, m),
            noise: CovarianceSpec::Identity(m),
        });
        model.push_step(step);
    }
    model.prior = Some(Prior {
        mean: vec![0.0; n],
        cov: CovarianceSpec::Identity(n),
    });
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1234)
    }

    #[test]
    fn paper_benchmark_validates() {
        let m = paper_benchmark(&mut rng(), 6, 20, false);
        m.validate().unwrap();
        assert_eq!(m.num_states(), 21);
        assert!(m.is_uniform());
        assert!(m.prior.is_none());
        let mp = paper_benchmark(&mut rng(), 6, 20, true);
        assert!(mp.prior.is_some());
        mp.validate().unwrap();
    }

    #[test]
    fn paper_benchmark_is_deterministic_per_seed() {
        let a = paper_benchmark(&mut rng(), 4, 5, false);
        let b = paper_benchmark(&mut rng(), 4, 5, false);
        let oa = &a.steps[3].observation.as_ref().unwrap().o;
        let ob = &b.steps[3].observation.as_ref().unwrap().o;
        assert_eq!(oa, ob);
    }

    #[test]
    fn tracking_validates_and_has_truth() {
        let p = tracking_2d(&mut rng(), 50, 0.1, 0.5, 0.25);
        p.model.validate().unwrap();
        assert_eq!(p.truth.len(), 51);
        assert_eq!(p.model.num_states(), 51);
        assert!(p.model.prior.is_some());
    }

    #[test]
    fn oscillator_validates_and_decays() {
        let p = oscillator(&mut rng(), 100, 0.05, 2.0, 0.1, 1e-6, 1e-4);
        p.model.validate().unwrap();
        // Observation dimension is 1 < state dimension 2.
        assert_eq!(p.model.steps[5].obs_dim(), 1);
        // With tiny process noise the oscillation amplitude decays.
        let early: f64 = p.truth[1][0].abs();
        let late: f64 = p.truth[100][0].abs().max(p.truth[99][0].abs());
        assert!(late < early + 1.0, "oscillator diverged");
    }

    #[test]
    fn ill_conditioned_validates() {
        let m = ill_conditioned(&mut rng(), 3, 10, 1e8);
        m.validate().unwrap();
    }

    #[test]
    fn dimension_change_has_varying_dims() {
        let m = dimension_change(&mut rng(), 3, 6);
        m.validate().unwrap();
        assert_eq!(m.state_dim(0), 3);
        assert_eq!(m.state_dim(1), 4);
        assert_eq!(m.state_dim(2), 3);
        assert!(!m.is_uniform());
    }

    #[test]
    fn short_observations_are_short() {
        let m = short_observations(&mut rng(), 4, 8, 2);
        m.validate().unwrap();
        assert_eq!(m.num_states(), 9);
        for s in &m.steps {
            assert_eq!(s.obs_dim(), 2);
        }
        assert!(m.prior.is_some());
    }

    #[test]
    fn sparse_observations_has_gaps() {
        let m = sparse_observations(&mut rng(), 2, 10, 3);
        m.validate().unwrap();
        assert!(m.steps[0].observation.is_some());
        assert!(m.steps[1].observation.is_none());
        assert!(m.steps[3].observation.is_some());
    }
}
