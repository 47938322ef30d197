//! Plan/execute split for the odd-even smoother.
//!
//! The odd-even elimination's *structure* — which columns are eliminated at
//! which level, against which chain neighbours, with which block dimensions
//! — is determined entirely by the problem shape (step count and per-step
//! state dimensions), not by the numeric data.  Classic sparse direct
//! solvers exploit exactly this with a symbolic/numeric split, and a
//! caller smoothing same-shaped problems again and again (a nonlinear
//! solver's inner iterations, a benchmark loop) repeats one shape
//! indefinitely.  This module separates the two phases:
//!
//! * [`PlanSchedule`] — the immutable symbolic plan: the odd-even level
//!   schedule (per level: even columns with their dimensions and chain
//!   neighbours, surviving odd columns), the elimination-order level lists,
//!   and a shape signature.  Build once per shape.
//! * [`SmoothPlan`] — one consumer's executable plan: its schedule
//!   plus the plan-owned numeric state (factor/solve/SelInv scratch, the
//!   reusable `R` factor, whitening buffers) and the execution-policy
//!   decisions.  `execute`/`solve_into`/`selinv_into` run the numeric
//!   pipeline against borrowed step data; in steady state (same schedule
//!   call after call) they perform **zero heap allocations** — containers
//!   retain capacity here and every matrix cycles through the
//!   `kalman-dense` workspace.  For batch-scale shapes whose working set
//!   exceeds the workspace's per-class retention budgets, the plan
//!   additionally holds an arena scope ([`kalman_dense::arena_scope`])
//!   across each numeric phase, so even `k = 20 000` recursions keep their
//!   working set pooled (see [`SmoothPlan::set_arena`]).
//!
//! The one-shot entry points ([`crate::odd_even_smooth`],
//! [`crate::factor_odd_even`]) are thin wrappers that build a transient
//! plan and execute it once.

use crate::factor::{execute_factor, FactorScratch};
use crate::rfactor::{OddEvenR, SolveScratch};
use crate::smoother::OddEvenOptions;
use crate::SelinvScratch;
use kalman_dense::{KernelKind, Matrix};
use kalman_model::{KalmanError, LinearModel, Result, Smoothed, WhitenedStep};
use kalman_par::map_collect_into;

/// One even column scheduled for elimination: its original state index,
/// dimension, and the chain neighbours it couples to at this level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvenSlot {
    pub orig: usize,
    pub dim: usize,
    /// Chain neighbour `t−1` (absent for the first chain column).
    pub left_orig: Option<usize>,
    /// Dimension of the left neighbour (0 when there is none).
    pub left_dim: usize,
    /// Chain neighbour `t+1` (absent for the last chain column).
    pub right_orig: Option<usize>,
}

/// One odd column surviving into the next level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OddSlot {
    pub orig: usize,
    pub dim: usize,
}

/// The symbolic plan of one elimination level.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanLevel {
    pub evens: Vec<EvenSlot>,
    pub odds: Vec<OddSlot>,
}

/// A shape signature: an FNV-1a hash of the per-step state dimensions.
/// Equal shapes hash equal (unequal ones almost always differ; confirm
/// with a full dimension comparison where it matters).
pub fn signature_of_dims<I: IntoIterator<Item = usize>>(dims: I) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut len: u64 = 0;
    for d in dims {
        let mut v = d as u64;
        for _ in 0..8 {
            h ^= v & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            v >>= 8;
        }
        len += 1;
    }
    h ^= len;
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

/// The symbolic phase of the odd-even factorization: everything about the
/// elimination that depends only on the problem *shape*.
///
/// A schedule carries no numeric state; its one holder is the
/// [`SmoothPlan`] executing it.
#[derive(Debug, Clone, Default)]
pub struct PlanSchedule {
    dims: Vec<usize>,
    signature: u64,
    /// Plan-time kernel selection: the monomorphized small-`n` kernel family
    /// when every block dimension is one supported size, `Auto` otherwise.
    kernels: KernelKind,
    /// One entry per elimination level (chain length > 1).
    levels: Vec<PlanLevel>,
    /// `(orig, dim)` of the base-case root column.
    root: (usize, usize),
    /// The elimination-order level lists [`OddEvenR::levels`] will hold
    /// (including the final root level).
    elim_levels: Vec<Vec<usize>>,
    /// Scratch for `rebuild`'s chain simulation (kept so rebuilding a
    /// same-length schedule allocates nothing).
    chain: Vec<(usize, usize)>,
    next_chain: Vec<(usize, usize)>,
}

impl PlanSchedule {
    /// Builds the schedule for a problem with the given per-step state
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics on an empty shape (a model always has at least one state).
    pub fn build(dims: &[usize]) -> PlanSchedule {
        let mut s = PlanSchedule::default();
        s.rebuild(dims);
        s
    }

    /// Re-derives the schedule for a new shape in place, reusing every
    /// container's capacity (how a reused plan follows a problem whose
    /// shape changes between solves without churn).
    ///
    /// # Panics
    ///
    /// Panics on an empty shape.
    // lint: allow(alloc, "cold region: re-planning runs once per window-shape change and is amortized across every subsequent flush of that shape")
    pub fn rebuild(&mut self, dims: &[usize]) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        assert!(
            !self.dims.is_empty(),
            "a smoothing plan needs at least one state"
        );
        self.signature = signature_of_dims(self.dims.iter().copied());
        self.kernels = KernelKind::for_dims(self.dims.iter().copied());

        // Simulate the odd-even chain: each level eliminates the even
        // columns and keeps the odd ones, halving the chain.
        self.chain.clear();
        self.chain.extend(self.dims.iter().copied().enumerate());
        let mut used = 0usize;
        while self.chain.len() > 1 {
            if self.levels.len() == used {
                self.levels.push(PlanLevel::default());
            }
            let level = &mut self.levels[used];
            level.evens.clear();
            level.odds.clear();
            let kk = self.chain.len();
            for (t, &(orig, dim)) in self.chain.iter().enumerate() {
                if t % 2 == 0 {
                    let left = t.checked_sub(1).map(|p| self.chain[p]);
                    level.evens.push(EvenSlot {
                        orig,
                        dim,
                        left_orig: left.map(|(o, _)| o),
                        left_dim: left.map(|(_, d)| d).unwrap_or(0),
                        right_orig: (t + 1 < kk).then(|| self.chain[t + 1].0),
                    });
                } else {
                    level.odds.push(OddSlot { orig, dim });
                }
            }
            self.next_chain.clear();
            self.next_chain
                .extend(level.odds.iter().map(|o| (o.orig, o.dim)));
            std::mem::swap(&mut self.chain, &mut self.next_chain);
            used += 1;
        }
        self.levels.truncate(used);
        self.root = self.chain[0];

        // Elimination-order level lists: each level's evens, then the root.
        let n_lists = self.levels.len() + 1;
        self.elim_levels.truncate(n_lists);
        while self.elim_levels.len() < n_lists {
            self.elim_levels.push(Vec::new());
        }
        for (list, level) in self.elim_levels.iter_mut().zip(&self.levels) {
            list.clear();
            list.extend(level.evens.iter().map(|e| e.orig));
        }
        let root_list = self.elim_levels.last_mut().expect("root level exists");
        root_list.clear();
        root_list.push(self.root.0);
    }

    /// The per-step state dimensions this schedule plans for.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The shape signature ([`signature_of_dims`] of [`PlanSchedule::dims`]).
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// The plan-time kernel selection for this shape: a const-generic
    /// monomorphized kernel family ([`KernelKind::Mono4`]/`Mono8`/`Mono16`)
    /// when every block is that dimension, [`KernelKind::Auto`] (runtime
    /// dispatch) otherwise.  Executors resolve it once per numeric phase via
    /// [`KernelKind::active`], which demotes to `Auto` in reference mode.
    pub fn kernels(&self) -> KernelKind {
        self.kernels
    }

    /// Number of states (block columns) in the planned problem.
    pub fn num_states(&self) -> usize {
        self.dims.len()
    }

    /// Number of elimination levels, including the base-case root level.
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// `true` when `steps` has exactly the planned shape.
    pub fn matches_steps(&self, steps: &[WhitenedStep]) -> bool {
        steps.len() == self.dims.len()
            && steps.iter().zip(&self.dims).all(|(s, &d)| s.state_dim == d)
    }

    pub(crate) fn plan_levels(&self) -> &[PlanLevel] {
        &self.levels
    }

    pub(crate) fn root(&self) -> (usize, usize) {
        self.root
    }

    pub(crate) fn elim_levels(&self) -> &[Vec<usize>] {
        &self.elim_levels
    }
}

/// An executable smoothing plan: a [`PlanSchedule`] plus this
/// consumer's numeric state (scratch arenas, the reusable `R` factor,
/// whitening buffers) and execution-policy decisions.
///
/// Typical lifecycle:
///
/// ```
/// use kalman_odd_even::{OddEvenOptions, SmoothPlan};
/// use kalman_model::generators;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
/// let model = generators::paper_benchmark(&mut rng, 3, 40, true);
/// let mut plan = SmoothPlan::for_model(&model, OddEvenOptions::default()).unwrap();
/// let first = plan.smooth_model(&model).unwrap();   // plan built above, executed here
/// let again = plan.smooth_model(&model).unwrap();   // pure re-execution: no re-planning
/// assert_eq!(first.max_mean_diff(&again), 0.0);
/// ```
///
/// Executing through a reused plan is **bitwise identical** to a fresh
/// one-shot call: the schedule only pre-computes structure the numeric
/// phase would otherwise re-derive, and all scratch is overwritten before
/// use.
#[derive(Debug)]
pub struct SmoothPlan {
    schedule: PlanSchedule,
    options: OddEvenOptions,
    factor: FactorScratch,
    r: OddEvenR,
    solve: SolveScratch,
    selinv: SelinvScratch,
    /// Whitening buffers for the model-level entry points.
    steps: Vec<WhitenedStep>,
    whiten_tmp: Vec<Option<Result<WhitenedStep>>>,
    /// `r` holds the factorization of the most recent `execute`.
    factored: bool,
    /// Hold a workspace [`kalman_dense::arena_scope`] across the numeric
    /// phases (see [`SmoothPlan::set_arena`]).
    arena: bool,
}

/// `true` when repeated executes of `schedule` would overflow the
/// thread-local workspace budgets into the allocator — the plan's steady
/// state holds roughly one diagonal block, up to two off-diagonal blocks,
/// and one right-hand-side segment per state in its `R` factor alone, so
/// once ~3·k buffers of the diagonal's size class exceed that class's
/// budget, only lifting the budgets (the plan-owned arena) keeps
/// re-executes allocation-free.
fn arena_pays_off(schedule: &PlanSchedule) -> bool {
    let k = schedule.num_states();
    let n_max = schedule.dims().iter().copied().max().unwrap_or(0);
    3 * k > kalman_dense::budget_for_len((n_max * n_max).max(1)).max(1)
}

impl SmoothPlan {
    /// A plan executing `schedule` under `options`.
    pub fn new(schedule: PlanSchedule, options: OddEvenOptions) -> SmoothPlan {
        let arena = arena_pays_off(&schedule);
        SmoothPlan {
            schedule,
            options,
            factor: FactorScratch::default(),
            r: OddEvenR::default(),
            solve: SolveScratch::default(),
            selinv: SelinvScratch::default(),
            steps: Vec::new(),
            whiten_tmp: Vec::new(),
            factored: false,
            arena,
        }
    }

    /// Builds the schedule for `dims` and wraps it in a plan.
    pub fn for_dims(dims: &[usize], options: OddEvenOptions) -> SmoothPlan {
        SmoothPlan::new(PlanSchedule::build(dims), options)
    }

    /// A plan for a model's shape (validates the model first).
    ///
    /// # Errors
    ///
    /// Model validation errors.
    pub fn for_model(model: &LinearModel, options: OddEvenOptions) -> Result<SmoothPlan> {
        model.validate()?;
        let dims: Vec<usize> = model.steps.iter().map(|s| s.state_dim).collect();
        Ok(SmoothPlan::for_dims(&dims, options))
    }

    /// The schedule backing this plan.
    pub fn schedule(&self) -> &PlanSchedule {
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
    pub fn options(&self) -> &OddEvenOptions {
        &self.options
    }

    /// Re-plans for `dims` if the shape changed; returns `true` when a
    /// rebuild happened.  The schedule is rebuilt in place (no allocation
    /// churn).
    pub fn ensure_shape(&mut self, dims: &[usize]) -> bool {
        if self.schedule.dims() == dims {
            return false;
        }
        self.schedule.rebuild(dims);
        kalman_obs::event(
            "oe.plan_rebuild",
            signature_of_dims(dims.iter().copied()),
            dims.len() as u64,
        );
        self.factored = false;
        self.arena = arena_pays_off(&self.schedule);
        true
    }

    /// Overrides the plan-owned arena decision.  By default the plan holds
    /// a workspace [`kalman_dense::arena_scope`] across its numeric phases
    /// exactly when its steady-state working set exceeds the thread-local
    /// workspace budgets (batch-scale shapes, `k ≳ 10³` at small `n`) —
    /// that retention is what makes *repeated* executes allocation-free.
    /// Callers that will execute a batch-scale plan only once (the one-shot
    /// [`crate::odd_even_smooth`] wrapper) turn it off: retention they never
    /// harvest costs memory-locality on later, unrelated work.
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

    /// Numeric factorization: runs the odd-even elimination for the plan's
    /// schedule over `steps` (drained; capacity retained for the caller to
    /// refill).  The resulting factor is held by the plan ([`SmoothPlan::factor`])
    /// for the solve/SelInv phases.
    ///
    /// # Errors
    ///
    /// [`KalmanError::InvalidModel`] when `steps` does not have the planned
    /// shape (callers re-plan via [`SmoothPlan::ensure_shape`]).
    pub fn execute(&mut self, steps: &mut Vec<WhitenedStep>) -> Result<()> {
        if !self.schedule.matches_steps(steps) {
            // lint: allow(alloc, "error path: allocates only when the caller handed an unplanned shape")
            return Err(KalmanError::InvalidModel(format!(
                "plan shape mismatch: plan covers {} states but was given {}",
                self.schedule.num_states(),
                steps.len()
            )));
        }
        let _arena = self.arena_guard();
        let _span = kalman_obs::span!("oe.factor");
        self.factored = false;
        execute_factor(
            &self.schedule,
            steps,
            self.options.policy,
            &mut self.factor,
            &mut self.r,
        )?;
        self.factored = true;
        Ok(())
    }

    /// The `R` factor produced by the most recent [`SmoothPlan::execute`].
    pub fn factor(&self) -> Option<&OddEvenR> {
        self.factored.then_some(&self.r)
    }

    fn require_factor(&self) -> Result<&OddEvenR> {
        if self.factored {
            Ok(&self.r)
        } else {
            Err(KalmanError::InvalidModel(
                "plan has no factorization: call execute() first".into(),
            ))
        }
    }

    /// Back substitution against the held factor, into reused storage.
    ///
    /// # Errors
    ///
    /// No prior [`SmoothPlan::execute`], or
    /// [`KalmanError::RankDeficient`] naming the first singular state.
    pub fn solve_into(&mut self, means: &mut Vec<Vec<f64>>) -> Result<()> {
        self.require_factor()?;
        let _arena = self.arena_guard();
        let _span = kalman_obs::span!("oe.solve");
        self.r
            .solve_into(self.options.policy, means, &mut self.solve)
    }

    /// SelInv covariance phase against the held factor, into reused storage.
    ///
    /// # Errors
    ///
    /// No prior [`SmoothPlan::execute`], or
    /// [`KalmanError::RankDeficient`] naming the first singular state.
    pub fn selinv_into(&mut self, covs: &mut Vec<Matrix>) -> Result<()> {
        self.require_factor()?;
        let _arena = self.arena_guard();
        let _span = kalman_obs::span!("oe.selinv");
        // The schedule's plan-time kernel selection binds SelInv's GEMM
        // entry once for the whole phase.
        crate::selinv::selinv_diag_into_with(
            self.schedule.kernels(),
            &self.r,
            self.options.policy,
            covs,
            &mut self.selinv,
        )
    }

    /// Full pipeline over pre-whitened steps: execute → solve →
    /// (optionally, per [`OddEvenOptions::covariances`]) SelInv, writing the
    /// estimates into `out` (reused storage; zero allocations in steady
    /// state).
    ///
    /// # Errors
    ///
    /// As [`SmoothPlan::execute`] / [`SmoothPlan::solve_into`] /
    /// [`SmoothPlan::selinv_into`].
    pub fn smooth_steps_into(
        &mut self,
        steps: &mut Vec<WhitenedStep>,
        out: &mut Smoothed,
    ) -> Result<()> {
        self.execute(steps)?;
        self.solve_into(&mut out.means)?;
        if self.options.covariances {
            let covs = out.covariances.get_or_insert_with(Vec::new);
            self.selinv_into(covs)?;
        } else {
            out.covariances = None;
        }
        Ok(())
    }

    /// Whitens `model` (in parallel, through plan-owned buffers) and runs
    /// [`SmoothPlan::smooth_steps_into`].  The model must have the planned
    /// shape; its numeric content is free to change between calls — this is
    /// the "plan once, execute many" entry point for repeated batch solves.
    ///
    /// # Errors
    ///
    /// Model validation/whitening errors, plus everything
    /// [`SmoothPlan::smooth_steps_into`] can raise.
    pub fn smooth_model_into(&mut self, model: &LinearModel, out: &mut Smoothed) -> Result<()> {
        model.validate()?;
        let _arena = self.arena_guard();
        let k1 = model.num_states();
        {
            let _span = kalman_obs::span!("oe.whiten");
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
        let result = self.smooth_steps_into(&mut steps, out);
        self.steps = steps;
        result
    }

    /// Allocating convenience form of [`SmoothPlan::smooth_model_into`].
    ///
    /// # Errors
    ///
    /// As [`SmoothPlan::smooth_model_into`].
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
    use kalman_par::ExecPolicy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn schedule_matches_chain_halving() {
        let s = PlanSchedule::build(&[2; 16]);
        let sizes: Vec<usize> = s.elim_levels().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![8, 4, 2, 1, 1]);
        assert_eq!(s.elim_levels()[0], vec![0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(s.elim_levels()[1], vec![1, 5, 9, 13]);
        assert_eq!(s.elim_levels()[4], vec![15]);
        assert_eq!(s.root(), (15, 2));
        assert_eq!(s.num_levels(), 5);
    }

    #[test]
    fn schedule_neighbours_are_chain_neighbours() {
        let dims = [3usize, 4, 3, 4, 3, 4, 3];
        let s = PlanSchedule::build(&dims);
        let l0 = &s.plan_levels()[0];
        assert_eq!(l0.evens.len(), 4);
        assert_eq!(l0.odds.len(), 3);
        let e1 = l0.evens[1]; // state 2
        assert_eq!(e1.orig, 2);
        assert_eq!(e1.dim, 3);
        assert_eq!(e1.left_orig, Some(1));
        assert_eq!(e1.left_dim, 4);
        assert_eq!(e1.right_orig, Some(3));
        // Level 1 chain is [1, 3, 5]: its evens are states 1 and 5, and
        // state 5's left neighbour in that chain is state 3.
        let l1 = &s.plan_levels()[1];
        assert_eq!(l1.evens.len(), 2);
        let e = l1.evens[1];
        assert_eq!(e.orig, 5);
        assert_eq!(e.dim, 4);
        assert_eq!(e.left_orig, Some(3));
        assert_eq!(e.left_dim, 4);
        assert_eq!(e.right_orig, None);
    }

    #[test]
    fn single_state_schedule_is_root_only() {
        let s = PlanSchedule::build(&[5]);
        assert!(s.plan_levels().is_empty());
        assert_eq!(s.root(), (0, 5));
        assert_eq!(s.elim_levels(), &[vec![0]]);
    }

    #[test]
    fn rebuild_reaches_the_same_schedule_as_fresh() {
        let mut s = PlanSchedule::build(&[2; 31]);
        s.rebuild(&[3, 4, 3, 4, 3]);
        let fresh = PlanSchedule::build(&[3, 4, 3, 4, 3]);
        assert_eq!(s.dims(), fresh.dims());
        assert_eq!(s.signature(), fresh.signature());
        assert_eq!(s.elim_levels(), fresh.elim_levels());
        assert_eq!(s.root(), fresh.root());
    }

    #[test]
    fn signatures_distinguish_shapes() {
        let a = signature_of_dims([2usize, 2, 2]);
        let b = signature_of_dims([2usize, 2]);
        let c = signature_of_dims([2usize, 3, 2]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, signature_of_dims([2usize, 2, 2]));
    }

    #[test]
    fn plan_smooth_matches_dense_oracle_and_reuses() {
        let model = generators::paper_benchmark(&mut rng(81), 3, 21, true);
        let dense = solve_dense(&model).unwrap();
        let mut plan = SmoothPlan::for_model(&model, OddEvenOptions::default()).unwrap();
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
    fn ensure_shape_rebuilds_only_on_change() {
        let mut plan = SmoothPlan::for_dims(&[2, 2, 2], OddEvenOptions::default());
        assert!(!plan.ensure_shape(&[2, 2, 2]));
        assert!(plan.ensure_shape(&[2, 2, 2, 2]));
        assert_eq!(plan.dims(), &[2, 2, 2, 2]);
    }

    #[test]
    fn execute_rejects_mismatched_steps() {
        let model = generators::paper_benchmark(&mut rng(82), 2, 8, false);
        let mut steps = whiten_model(&model).unwrap();
        let mut plan = SmoothPlan::for_dims(&[2; 4], OddEvenOptions::default());
        assert!(matches!(
            plan.execute(&mut steps),
            Err(KalmanError::InvalidModel(_))
        ));
        assert!(plan.factor().is_none());
        assert!(plan.solve_into(&mut Vec::new()).is_err());
        // Re-planning for the right shape fixes it.
        plan.ensure_shape(&[2; 9]);
        plan.execute(&mut steps).unwrap();
        assert!(plan.factor().is_some());
    }

    #[test]
    fn plan_reuse_is_bitwise_across_policies() {
        for policy in [ExecPolicy::Seq, ExecPolicy::par_with_grain(2)] {
            let model = generators::dimension_change(&mut rng(83), 3, 17);
            let opts = OddEvenOptions::with_policy(policy);
            let one_shot = crate::odd_even_smooth(&model, opts).unwrap();
            let mut plan = SmoothPlan::for_model(&model, opts).unwrap();
            for _ in 0..2 {
                let planned = plan.smooth_model(&model).unwrap();
                assert_eq!(one_shot.max_mean_diff(&planned), 0.0);
                assert_eq!(one_shot.max_cov_diff(&planned), Some(0.0));
            }
        }
    }
}
