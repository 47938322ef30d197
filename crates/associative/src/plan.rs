//! Plan/execute split for the associative-scan smoother.
//!
//! [`ScanPlan`] is the scan counterpart of `kalman_odd_even::SmoothPlan`:
//! a shared symbolic [`ScanSchedule`] (which element pairs combine at which
//! sweep level — a function of the window length alone) plus plan-owned
//! numeric scratch, executing against borrowed [`WhitenedStep`] data so the
//! same whitened window the odd-even plan consumes drives the scan too.
//! Repeated executes of one schedule reuse that scratch: element and sweep
//! containers retain capacity, every matrix cycles through the
//! `kalman-dense` workspace, and batch-scale shapes additionally hold an
//! arena scope across each phase (the PR 4 budgets).
//!
//! Unlike the batch elements in [`crate::FilterElement::for_state`], the
//! planned path starts from *whitened* blocks.  With `VᵀV = K⁻¹` the
//! whitened evolution rows say `D u_i = B u_{i-1} + rhs + ε`, `ε ∼ N(0, I)`,
//! so for square invertible `D` (the `H = I` models the scan supports) the
//! covariance-form transition is recovered per step as
//!
//! ```text
//! F = D⁻¹B      c = D⁻¹·rhs      Q = D⁻¹D⁻ᵀ
//! ```
//!
//! and whitened observation rows contribute `G = C`, `o = rhs`, `L = I`.
//! State 0's stacked rows (prior and/or observations) enter in information
//! form: `J₀ = CᵀC`, `η₀ = Cᵀ·rhs`, and a Cholesky of `J₀` yields the
//! posterior `(m₀, P₀)` seeding the first element.  A window whose head
//! rows do not determine state 0 (no prior, rank-deficient observations)
//! fails with [`KalmanError::RankDeficient`]; the odd-even smoother
//! handles that semidefinite case.
//!
//! Both sweeps run the schedule's fixed Brent–Kung tree: each level's
//! disjoint pairs combine in parallel into pre-assigned slots and write
//! back serially, so `ExecPolicy::Seq` and `ExecPolicy::par()` perform the
//! identical floating-point operations — the scan is bitwise
//! deterministic across thread counts and grains.

use crate::elements::{FilterElement, SmoothElement};
use crate::scan::{uniform_dims, ScanSchedule};
use kalman_dense::{gemm, matmul, matmul_tn, Cholesky, LuFactor, Matrix, Trans};
use kalman_model::{KalmanError, LinearModel, Result, Smoothed, WhitenedEvo, WhitenedStep};
use kalman_par::{map_collect_into, ExecPolicy};
use std::sync::Arc;

/// Options for a [`ScanPlan`].
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Execution policy for element construction and the tree sweeps.
    pub policy: ExecPolicy,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            policy: ExecPolicy::par(),
        }
    }
}

/// Covariance-form transition recovered from whitened evolution rows:
/// `u_i = F u_{i-1} + c + w`, `w ∼ N(0, Q)`.
#[derive(Debug, Clone)]
struct CovForm {
    f: Matrix,
    c: Matrix,
    q: Matrix,
}

fn cov_form(i: usize, evo: &WhitenedEvo) -> Result<CovForm> {
    let n = evo.d.cols();
    if evo.d.rows() != n || evo.b.cols() != n {
        return Err(KalmanError::UnsupportedStructure(
            "the scan smoother requires square evolution blocks (uniform dimensions, H = I)".into(),
        ));
    }
    let lu = LuFactor::new(evo.d.clone()).map_err(|_| KalmanError::RankDeficient { state: i })?;
    let f = lu.solve(&evo.b);
    let c = lu.solve(&evo.rhs);
    let dinv = lu.inverse();
    let mut q = matmul(&dinv, &dinv.transpose());
    q.symmetrize();
    Ok(CovForm { f, c, q })
}

/// The first filtering element: state 0's posterior from its stacked
/// whitened rows (prior rows and/or observation rows), via the information
/// form `J₀ = CᵀC`, `η₀ = Cᵀ·rhs`.
fn head_element(step: &WhitenedStep) -> Result<FilterElement> {
    let n = step.state_dim;
    let obs = step.obs.as_ref().ok_or(KalmanError::PriorRequired)?;
    let mut j0 = matmul_tn(&obs.c, &obs.c);
    j0.symmetrize();
    let eta0 = matmul_tn(&obs.c, &obs.rhs);
    let chol = Cholesky::new(&j0).map_err(|_| KalmanError::RankDeficient { state: 0 })?;
    let mut p0 = chol.inverse();
    p0.symmetrize();
    let m0 = chol.solve(&eta0);
    Ok(FilterElement {
        a: Matrix::zeros(n, n),
        b: m0,
        c: p0,
        eta: Matrix::zeros(n, 1),
        j: Matrix::zeros(n, n),
    })
}

/// The filtering element for state `i ≥ 1` from its covariance-form
/// transition and whitened observation rows (`G = C`, `o = rhs`, `L = I`).
/// The same TAC-2021 conditioning as [`FilterElement::for_state`].
fn filter_element(
    i: usize,
    form: &CovForm,
    obs: Option<&kalman_model::WhitenedObs>,
) -> Result<FilterElement> {
    let n = form.f.rows();
    let Some(obs) = obs else {
        return Ok(FilterElement {
            a: form.f.clone(),
            b: form.c.clone(),
            c: form.q.clone(),
            eta: Matrix::zeros(n, 1),
            j: Matrix::zeros(n, n),
        });
    };
    let g = &obs.c;
    // S = G Q Gᵀ + I (whitened observation noise is the identity).
    let gq = matmul(g, &form.q);
    let mut s = Matrix::identity(g.rows());
    gemm(1.0, &gq, Trans::No, g, Trans::Yes, 1.0, &mut s);
    s.symmetrize();
    let s_chol = Cholesky::new(&s).map_err(|_| KalmanError::NotPositiveDefinite { step: i })?;
    // K = Q Gᵀ S⁻¹ = (S⁻¹ G Q)ᵀ.
    let k = s_chol.solve(&gq).transpose();
    let resid = &obs.rhs - &matmul(g, &form.c);
    // A = (I − K G) F
    let mut ikg = Matrix::identity(n);
    gemm(-1.0, &k, Trans::No, g, Trans::No, 1.0, &mut ikg);
    let a = matmul(&ikg, &form.f);
    // b = c + K (o − G c)
    let b = &form.c + &matmul(&k, &resid);
    // C = (I − K G) Q
    let mut c = matmul(&ikg, &form.q);
    c.symmetrize();
    // η = Fᵀ Gᵀ S⁻¹ (o − Gc);  J = Fᵀ Gᵀ S⁻¹ G F
    let sinv_resid = s_chol.solve(&resid);
    let gf = matmul(g, &form.f);
    let eta = matmul_tn(&gf, &sinv_resid);
    let sinv_gf = s_chol.solve(&gf);
    let mut j = matmul_tn(&gf, &sinv_gf);
    j.symmetrize();
    Ok(FilterElement { a, b, c, eta, j })
}

/// The smoothing element for a state with filtered `(m, P)` and the
/// covariance-form transition into the next state (`None` for the last).
fn smooth_element(
    i_next: usize,
    m: &Matrix,
    p: &Matrix,
    next: Option<&CovForm>,
) -> Result<SmoothElement> {
    let n = p.rows();
    let Some(form) = next else {
        return Ok(SmoothElement {
            e: Matrix::zeros(n, n),
            g: m.clone(),
            l: p.clone(),
        });
    };
    let f = &form.f;
    // P⁻ = F P Fᵀ + Q
    let fp = matmul(f, p);
    let mut pred = form.q.clone();
    gemm(1.0, &fp, Trans::No, f, Trans::Yes, 1.0, &mut pred);
    pred.symmetrize();
    let chol =
        Cholesky::new(&pred).map_err(|_| KalmanError::NotPositiveDefinite { step: i_next })?;
    // E = P Fᵀ (P⁻)⁻¹ = ((P⁻)⁻¹ F P)ᵀ
    let e = chol.solve(&fp).transpose();
    // g = m − E (F m + c)
    let fm = &matmul(f, m) + &form.c;
    let g = m - &matmul(&e, &fm);
    // L = P − E F P
    let mut l = p.clone();
    gemm(-1.0, &e, Trans::No, &fp, Trans::No, 1.0, &mut l);
    l.symmetrize();
    Ok(SmoothElement { e, g, l })
}

/// `true` when repeated executes of `schedule` would overflow the
/// thread-local workspace budgets into the allocator.  The scan's steady
/// state holds three matrix-valued containers per state (transition form,
/// filtering element, smoothing element — roughly eight `n²`-class buffers
/// in all), so the arena pays off earlier than the odd-even plan's `3·k`.
fn arena_pays_off(schedule: &ScanSchedule) -> bool {
    let k = schedule.len();
    let n = schedule.state_dim();
    8 * k > kalman_dense::budget_for_len((n * n).max(1)).max(1)
}

/// An executable associative-scan smoothing plan: a shared
/// [`ScanSchedule`] plus this consumer's element scratch and
/// execution-policy decisions.  The scan analogue of
/// `kalman_odd_even::SmoothPlan` — see the module docs for the numeric
/// pipeline, and DESIGN.md §"Why serving runs one engine" for why only
/// the batch comparison runs it.
///
/// ```
/// use kalman_associative::{ScanOptions, ScanPlan};
/// use kalman_model::generators;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let model = generators::paper_benchmark(&mut rng, 3, 40, true);
/// let mut plan = ScanPlan::for_model(&model, ScanOptions::default()).unwrap();
/// let first = plan.smooth_model(&model).unwrap();   // plan built above, executed here
/// let again = plan.smooth_model(&model).unwrap();   // pure re-execution: no re-planning
/// assert_eq!(first.max_mean_diff(&again), 0.0);
/// ```
#[derive(Debug)]
pub struct ScanPlan {
    schedule: Arc<ScanSchedule>,
    options: ScanOptions,
    /// Covariance-form transition per step (`None` for step 0).
    forms: Vec<Option<CovForm>>,
    felems: Vec<FilterElement>,
    selems: Vec<SmoothElement>,
    /// Parallel-stage output slots (pre-assigned; drained serially).
    #[allow(clippy::type_complexity)]
    build_tmp: Vec<Option<Result<(Option<CovForm>, FilterElement)>>>,
    smooth_tmp: Vec<Option<Result<SmoothElement>>>,
    pair_f: Vec<Option<FilterElement>>,
    pair_s: Vec<Option<SmoothElement>>,
    /// Whitening buffers for the model-level entry points.
    steps: Vec<WhitenedStep>,
    whiten_tmp: Vec<Option<Result<WhitenedStep>>>,
    /// `selems` holds the posterior of the most recent `execute`.
    executed: bool,
    /// Hold a workspace [`kalman_dense::arena_scope`] across the phases.
    arena: bool,
}

impl ScanPlan {
    /// A plan executing `schedule` under `options`.
    pub fn new(schedule: Arc<ScanSchedule>, options: ScanOptions) -> ScanPlan {
        let arena = arena_pays_off(&schedule);
        ScanPlan {
            schedule,
            options,
            forms: Vec::new(),
            felems: Vec::new(),
            selems: Vec::new(),
            build_tmp: Vec::new(),
            smooth_tmp: Vec::new(),
            pair_f: Vec::new(),
            pair_s: Vec::new(),
            steps: Vec::new(),
            whiten_tmp: Vec::new(),
            executed: false,
            arena,
        }
    }

    /// Builds a fresh (unshared) schedule for `dims` and wraps it in a plan.
    ///
    /// # Panics
    ///
    /// Panics on shapes outside the scan's structural domain (empty, or
    /// mixed state dimensions).
    pub fn for_dims(dims: &[usize], options: ScanOptions) -> ScanPlan {
        ScanPlan::new(Arc::new(ScanSchedule::build(dims)), options)
    }

    /// A plan for a model's shape (validates the model first).
    ///
    /// # Errors
    ///
    /// Model validation errors, or [`KalmanError::UnsupportedStructure`]
    /// for shapes the scan cannot plan (mixed state dimensions).
    pub fn for_model(model: &LinearModel, options: ScanOptions) -> Result<ScanPlan> {
        model.validate()?;
        let dims: Vec<usize> = model.steps.iter().map(|s| s.state_dim).collect();
        if !uniform_dims(&dims) {
            return Err(KalmanError::UnsupportedStructure(
                "the scan smoother requires uniform state dimensions".into(),
            ));
        }
        Ok(ScanPlan::for_dims(&dims, options))
    }

    /// The shared schedule backing this plan.
    pub fn schedule(&self) -> &Arc<ScanSchedule> {
        &self.schedule
    }

    /// Shorthand for `self.schedule().dims()`.
    pub fn dims(&self) -> &[usize] {
        self.schedule.dims()
    }

    /// Shorthand for `self.schedule().signature()`.
    pub fn signature(&self) -> u64 {
        self.schedule.signature()
    }

    /// The options the plan executes under.
    pub fn options(&self) -> &ScanOptions {
        &self.options
    }

    /// Re-plans for `dims` if the shape changed; returns `true` when a
    /// rebuild happened.  An unshared schedule is rebuilt in place; a
    /// shared one is replaced by a fresh `Arc` so sibling plans keep theirs.
    ///
    /// # Panics
    ///
    /// Panics on shapes outside the scan's structural domain.
    pub fn ensure_shape(&mut self, dims: &[usize]) -> bool {
        if self.schedule.dims() == dims {
            return false;
        }
        match Arc::get_mut(&mut self.schedule) {
            Some(s) => s.rebuild(dims),
            None => self.schedule = Arc::new(ScanSchedule::build(dims)),
        }
        kalman_obs::event(
            "scan.plan_rebuild",
            kalman_odd_even::signature_of_dims(dims.iter().copied()),
            dims.len() as u64,
        );
        self.executed = false;
        self.arena = arena_pays_off(&self.schedule);
        true
    }

    /// Overrides the plan-owned arena decision (see
    /// `kalman_odd_even::SmoothPlan::set_arena` — same contract).
    pub fn set_arena(&mut self, on: bool) {
        self.arena = on;
    }

    /// `true` when the plan holds the workspace arena during executes.
    pub fn arena(&self) -> bool {
        self.arena
    }

    fn arena_guard(&self) -> Option<kalman_dense::ArenaScope> {
        self.arena.then(kalman_dense::arena_scope)
    }

    fn matches_steps(&self, steps: &[WhitenedStep]) -> bool {
        let dims = self.schedule.dims();
        steps.len() == dims.len() && steps.iter().zip(dims).all(|(s, &d)| s.state_dim == d)
    }

    /// Numeric execution: builds the scan elements from `steps` and runs
    /// the forward and backward sweeps, leaving the smoothed posterior in
    /// plan-owned scratch for [`ScanPlan::solve_into`] /
    /// [`ScanPlan::selinv_into`].  On success `steps` is drained (capacity
    /// retained for the caller to refill); on **any** error `steps` is left
    /// intact.
    ///
    /// # Errors
    ///
    /// [`KalmanError::InvalidModel`] on a shape mismatch,
    /// [`KalmanError::PriorRequired`] when state 0 has no determining rows,
    /// [`KalmanError::RankDeficient`] when state 0's information matrix or
    /// an evolution block is singular, [`KalmanError::NotPositiveDefinite`]
    /// when an innovation or predictive covariance is not SPD.
    pub fn execute(&mut self, steps: &mut Vec<WhitenedStep>) -> Result<()> {
        self.executed = false;
        if !self.matches_steps(steps) {
            return Err(KalmanError::InvalidModel(format!(
                "plan shape mismatch: plan covers {} states but was given {}",
                self.schedule.len(),
                steps.len()
            )));
        }
        let _arena = self.arena_guard();
        let k1 = steps.len();
        let schedule = Arc::clone(&self.schedule);

        {
            let _span = kalman_obs::span!("scan.elements");
            let step_slice: &[WhitenedStep] = steps;
            map_collect_into(
                self.options.policy.for_len(k1),
                k1,
                &mut self.build_tmp,
                |i| {
                    let step = &step_slice[i];
                    if i == 0 {
                        Ok((None, head_element(step)?))
                    } else {
                        let evo = step.evo.as_ref().ok_or(KalmanError::PriorRequired)?;
                        let form = cov_form(i, evo)?;
                        let elem = filter_element(i, &form, step.obs.as_ref())?;
                        Ok((Some(form), elem))
                    }
                },
            );
            self.forms.clear();
            self.felems.clear();
            for slot in self.build_tmp.iter_mut() {
                let (form, elem) = slot.take().expect("filled above")?;
                self.forms.push(form);
                self.felems.push(elem);
            }
        }

        {
            let _span = kalman_obs::span!("scan.fwd");
            for level in schedule.levels() {
                let pairs = level.pairs();
                let felems = &self.felems;
                map_collect_into(
                    self.options.policy.for_len(pairs.len()),
                    pairs.len(),
                    &mut self.pair_f,
                    |j| {
                        let (src, dst) = pairs[j];
                        felems[src as usize].combine(&felems[dst as usize])
                    },
                );
                for (j, &(_, dst)) in pairs.iter().enumerate() {
                    self.felems[dst as usize] = self.pair_f[j].take().expect("filled above");
                }
            }
        }

        {
            let _span = kalman_obs::span!("scan.smooth");
            let felems = &self.felems;
            let forms = &self.forms;
            map_collect_into(
                self.options.policy.for_len(k1),
                k1,
                &mut self.smooth_tmp,
                |i| {
                    let next = forms.get(i + 1).and_then(|f| f.as_ref());
                    smooth_element(i + 1, &felems[i].b, &felems[i].c, next)
                },
            );
            self.selems.clear();
            for slot in self.smooth_tmp.iter_mut() {
                self.selems.push(slot.take().expect("filled above")?);
            }
        }

        {
            let _span = kalman_obs::span!("scan.bwd");
            let last = k1 - 1;
            // The same pair lists run the suffix sweep mirrored: indices
            // reflect (`i ↦ last − i`) and the mirrored dst slot is the
            // *earlier* operand of the combine.
            for level in schedule.levels() {
                let pairs = level.pairs();
                let selems = &self.selems;
                map_collect_into(
                    self.options.policy.for_len(pairs.len()),
                    pairs.len(),
                    &mut self.pair_s,
                    |j| {
                        let (src, dst) = pairs[j];
                        let (msrc, mdst) = (last - src as usize, last - dst as usize);
                        selems[mdst].combine(&selems[msrc])
                    },
                );
                for (j, &(_, dst)) in pairs.iter().enumerate() {
                    let mdst = last - dst as usize;
                    self.selems[mdst] = self.pair_s[j].take().expect("filled above");
                }
            }
        }

        steps.clear();
        self.executed = true;
        Ok(())
    }

    fn require_executed(&self) -> Result<()> {
        if self.executed {
            Ok(())
        } else {
            Err(KalmanError::InvalidModel(
                "plan has no posterior: call execute() first".into(),
            ))
        }
    }

    /// Copies the smoothed means of the most recent [`ScanPlan::execute`]
    /// into reused storage.
    ///
    /// # Errors
    ///
    /// No prior [`ScanPlan::execute`].
    pub fn solve_into(&mut self, means: &mut Vec<Vec<f64>>) -> Result<()> {
        self.require_executed()?;
        let _span = kalman_obs::span!("scan.solve");
        let k1 = self.selems.len();
        means.truncate(k1);
        while means.len() < k1 {
            means.push(Vec::new()); // lint: allow(alloc, "grows the reused output to window length once; repeat windows reuse the slots")
        }
        for (m, e) in means.iter_mut().zip(&self.selems) {
            m.clear();
            m.extend_from_slice(e.g.col(0));
        }
        Ok(())
    }

    /// Copies the smoothed covariances of the most recent
    /// [`ScanPlan::execute`] into reused storage.  Unlike the odd-even
    /// SelInv phase this is a plain copy — the scan computes covariances
    /// inherently.
    ///
    /// # Errors
    ///
    /// No prior [`ScanPlan::execute`].
    pub fn selinv_into(&mut self, covs: &mut Vec<Matrix>) -> Result<()> {
        self.require_executed()?;
        let _span = kalman_obs::span!("scan.selinv");
        let k1 = self.selems.len();
        covs.truncate(k1);
        while covs.len() < k1 {
            covs.push(Matrix::zeros(1, 1));
        }
        for (c, e) in covs.iter_mut().zip(&self.selems) {
            c.clone_from(&e.l);
        }
        Ok(())
    }

    /// Whitens `model` (in parallel, through plan-owned buffers) and runs
    /// execute → solve → covariance copy, writing into `out` (reused
    /// storage).  Covariances are always produced — they are inherent to
    /// the scan.
    ///
    /// # Errors
    ///
    /// Model validation/whitening errors, plus everything
    /// [`ScanPlan::execute`] can raise.
    pub fn smooth_model_into(&mut self, model: &LinearModel, out: &mut Smoothed) -> Result<()> {
        model.validate()?;
        let _arena = self.arena_guard();
        let k1 = model.num_states();
        {
            let _span = kalman_obs::span!("scan.whiten");
            map_collect_into(
                self.options.policy.for_len(k1),
                k1,
                &mut self.whiten_tmp,
                |i| WhitenedStep::from_model_step(model, i),
            );
            self.steps.clear();
            for slot in self.whiten_tmp.iter_mut() {
                self.steps.push(slot.take().expect("filled above")?);
            }
        }
        let mut steps = std::mem::take(&mut self.steps);
        let result = (|| {
            self.execute(&mut steps)?;
            self.solve_into(&mut out.means)?;
            self.selinv_into(out.covariances.get_or_insert_with(Vec::new))
        })();
        self.steps = steps;
        result
    }

    /// Allocating convenience form of [`ScanPlan::smooth_model_into`].
    ///
    /// # Errors
    ///
    /// As [`ScanPlan::smooth_model_into`].
    pub fn smooth_model(&mut self, model: &LinearModel) -> Result<Smoothed> {
        let mut out = Smoothed {
            means: Vec::new(),
            covariances: None,
        };
        self.smooth_model_into(model, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_model::{generators, solve_dense, whiten_model};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn plan_matches_dense_oracle_and_reuses_bitwise() {
        let model = generators::paper_benchmark(&mut rng(91), 3, 21, true);
        let dense = solve_dense(&model).unwrap();
        let mut plan = ScanPlan::for_model(&model, ScanOptions::default()).unwrap();
        let first = plan.smooth_model(&model).unwrap();
        assert!(first.max_mean_diff(&dense) < 1e-8);
        assert!(first.max_cov_diff(&dense).unwrap() < 1e-8);
        for _ in 0..3 {
            let again = plan.smooth_model(&model).unwrap();
            assert_eq!(first.max_mean_diff(&again), 0.0);
            assert_eq!(first.max_cov_diff(&again), Some(0.0));
        }
    }

    #[test]
    fn tree_is_bitwise_across_policies() {
        let model = generators::paper_benchmark(&mut rng(92), 4, 37, true);
        let mut results = Vec::new();
        for policy in [
            ExecPolicy::Seq,
            ExecPolicy::par_with_grain(1),
            ExecPolicy::par_with_grain(7),
        ] {
            let mut plan = ScanPlan::for_model(&model, ScanOptions { policy }).unwrap();
            results.push(plan.smooth_model(&model).unwrap());
        }
        for other in &results[1..] {
            assert_eq!(results[0].max_mean_diff(other), 0.0);
            assert_eq!(results[0].max_cov_diff(other), Some(0.0));
        }
    }

    #[test]
    fn handles_missing_observations() {
        let mut model = generators::sparse_observations(&mut rng(94), 3, 24, 4);
        model.set_prior(vec![0.0; 3], kalman_model::CovarianceSpec::Identity(3));
        let mut plan = ScanPlan::for_model(&model, ScanOptions::default()).unwrap();
        let scan = plan.smooth_model(&model).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(scan.max_mean_diff(&dense) < 1e-8);
        assert!(scan.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn full_rank_observations_substitute_for_a_prior() {
        // paper_benchmark observes every state with a square G, so state 0's
        // whitened rows determine it even without a prior — the information
        // seed generalizes the batch path's explicit-prior requirement.
        let model = generators::paper_benchmark(&mut rng(95), 3, 18, false);
        let mut plan = ScanPlan::for_model(&model, ScanOptions::default()).unwrap();
        let scan = plan.smooth_model(&model).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(scan.max_mean_diff(&dense) < 1e-8);
        assert!(scan.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn underdetermined_state0_errors_and_leaves_steps_intact() {
        let mut model = generators::paper_benchmark(&mut rng(96), 3, 9, false);
        model.steps[0].observation = None;
        let mut steps = whiten_model(&model).unwrap();
        let mut plan = ScanPlan::for_dims(&[3; 10], ScanOptions::default());
        assert!(matches!(
            plan.execute(&mut steps),
            Err(KalmanError::PriorRequired)
        ));
        // The window survives the failure.
        assert_eq!(steps.len(), 10);
        assert!(plan.solve_into(&mut Vec::new()).is_err());
    }

    #[test]
    fn execute_rejects_mismatched_steps() {
        let model = generators::paper_benchmark(&mut rng(97), 2, 8, true);
        let mut steps = whiten_model(&model).unwrap();
        let mut plan = ScanPlan::for_dims(&[2; 4], ScanOptions::default());
        assert!(matches!(
            plan.execute(&mut steps),
            Err(KalmanError::InvalidModel(_))
        ));
        assert_eq!(steps.len(), 9);
        plan.ensure_shape(&[2; 9]);
        plan.execute(&mut steps).unwrap();
        assert!(steps.is_empty());
        let mut means = Vec::new();
        plan.solve_into(&mut means).unwrap();
        assert_eq!(means.len(), 9);
    }

    #[test]
    fn single_state_window() {
        let model = generators::paper_benchmark(&mut rng(98), 2, 0, true);
        let mut plan = ScanPlan::for_model(&model, ScanOptions::default()).unwrap();
        let scan = plan.smooth_model(&model).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(scan.max_mean_diff(&dense) < 1e-10);
    }

    #[test]
    fn ensure_shape_rebuilds_only_on_change() {
        let mut plan = ScanPlan::for_dims(&[2; 8], ScanOptions::default());
        assert!(!plan.ensure_shape(&[2; 8]));
        assert!(plan.ensure_shape(&[2; 12]));
        assert_eq!(plan.dims(), &[2; 12]);
    }

    #[test]
    fn rejects_mixed_dimension_models() {
        let model = generators::dimension_change(&mut rng(99), 2, 6);
        assert!(matches!(
            ScanPlan::for_model(&model, ScanOptions::default()),
            Err(KalmanError::UnsupportedStructure(_))
        ));
    }
}
