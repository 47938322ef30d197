//! Plan/execute split for the odd-even smoother.
//!
//! The odd-even elimination's *structure* — which column is eliminated
//! against which chain neighbours, and what has to be finished before it —
//! is determined entirely by the problem shape (step count and per-step
//! state dimensions), not by the numeric data.  Classic sparse direct
//! solvers exploit exactly this with a symbolic/numeric split, and a
//! caller smoothing same-shaped problems again and again (a nonlinear
//! solver's inner iterations, a benchmark loop) repeats one shape
//! indefinitely.  This module separates the two phases:
//!
//! * [`PlanSchedule`] — the immutable symbolic plan: the *pair tree* of the
//!   odd-even recursion (a chain column of one level is a function of its
//!   aligned pair of columns one level down, so the whole factorization is
//!   a binary-tree reduction) and the elimination-order level lists.
//! * [`SmoothPlan`] — one consumer's executable plan for one shape: its
//!   schedule plus the reusable `R` factor.  `execute`/`solve_into`/
//!   `selinv_into` and the fused `smooth_model_into` walk the tree against
//!   borrowed step data; executed again and again they perform **zero heap
//!   allocations** — containers retain capacity here and every matrix
//!   cycles through the `kalman-dense` workspace.  For batch-scale shapes
//!   whose working set exceeds the workspace's per-class retention budgets,
//!   the plan additionally holds an arena scope
//!   ([`kalman_dense::arena_scope`]) across each walk, so even
//!   `k = 20 000` recursions keep their working set pooled.
//!
//! A plan covers one shape: handed another, it refuses with
//! [`KalmanError::InvalidModel`] and the caller builds a plan for the new
//! shape.  The one-shot entry points ([`crate::odd_even_smooth`],
//! [`crate::factor_odd_even`]) build a transient plan and execute it once.

use crate::factor::{factor_tree, Leaves};
use crate::rfactor::OddEvenR;
use crate::selinv::top_down;
use crate::smoother::OddEvenOptions;
use kalman_dense::Matrix;
use kalman_model::{KalmanError, LinearModel, Result, Smoothed, WhitenedStep};

/// The children of an inner [`TreeNode`], as indices into
/// [`PlanSchedule::nodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Children {
    /// The even column of the pair: eliminated by this node.
    pub left: usize,
    /// The odd column of the pair: survives as this node's column.
    pub right: usize,
    /// The last column of an odd-length chain, which has no partner: the
    /// last node one level up eliminates it too, and its left-only
    /// residual joins that node's compression.
    pub lone: Option<usize>,
}

/// One node of the pair tree: one chain column of one elimination level,
/// and with it the subtree of everything that must be factored before that
/// column exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreeNode {
    /// Original state index of the chain column this node produces.
    pub col: usize,
    /// Chain level of that column (0 = a leaf, one whitened step); the
    /// columns this node eliminates are eliminated at `level − 1`.
    pub level: usize,
    /// The subtree covers exactly the states `lo..lo + leaves`; its chain
    /// neighbour to the left, if any, is state `lo − 1`.
    pub lo: usize,
    pub leaves: usize,
    /// `None` for a leaf.
    pub children: Option<Children>,
}

/// The symbolic phase of the odd-even factorization: everything about the
/// elimination that depends only on the problem *shape*.
///
/// A schedule carries no numeric state and no kernel choice — the dense
/// entry points the walks call pick their bodies from each block's shape —
/// and its one holder is the [`SmoothPlan`] executing it.
#[derive(Debug, Clone)]
pub struct PlanSchedule {
    dims: Vec<usize>,
    /// The pair tree in post-order (children before their parent, a
    /// subtree contiguous); the last node is the root.
    nodes: Vec<TreeNode>,
    /// The elimination-order level lists [`OddEvenR::levels`] will hold
    /// (including the final root level).
    elim_levels: Vec<Vec<usize>>,
}

impl PlanSchedule {
    /// Builds the schedule for a problem with the given per-step state
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics on an empty shape (a model always has at least one state).
    pub fn build(dims: &[usize]) -> PlanSchedule {
        assert!(
            !dims.is_empty(),
            "a smoothing plan needs at least one state"
        );
        // The chain halves per level (`k1 >> level` columns, the odd ones
        // of the level below), so the root is the one column of level
        // ⌊log₂ k1⌋.
        let k1 = dims.len();
        let root_level = k1.ilog2() as usize;
        let mut nodes = Vec::new();
        push_subtree(&mut nodes, k1, root_level, 0);

        // Elimination-order level lists.  Post-order visits the nodes of
        // one level left to right, so each list comes out in chain order.
        let mut elim_levels = vec![Vec::new(); root_level + 1];
        for node in &nodes {
            if let Some(ch) = node.children {
                let list = &mut elim_levels[node.level - 1];
                list.push(nodes[ch.left].col);
                list.extend(ch.lone.map(|t| nodes[t].col));
            }
        }
        let root = nodes.last().expect("a chain has a root").col;
        elim_levels[root_level].push(root);
        PlanSchedule {
            dims: dims.to_vec(),
            nodes,
            elim_levels,
        }
    }

    /// The per-step state dimensions this schedule plans for.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of states (block columns) in the planned problem.
    pub(crate) fn num_states(&self) -> usize {
        self.dims.len()
    }

    fn has_dims(&self, dims: impl Iterator<Item = usize>) -> bool {
        self.dims.iter().copied().eq(dims)
    }

    /// The pair tree, post-order.
    pub(crate) fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// The root: the one column that is never eliminated.
    pub(crate) fn root(&self) -> &TreeNode {
        self.nodes.last().expect("a built schedule has a root")
    }

    pub(crate) fn elim_levels(&self) -> &[Vec<usize>] {
        &self.elim_levels
    }
}

/// Appends the subtree of chain column `pos` of `level` (for a chain of
/// `k1` states) in post-order; returns the index of its root.
fn push_subtree(nodes: &mut Vec<TreeNode>, k1: usize, level: usize, pos: usize) -> usize {
    let lo = pos << level;
    let children = (level > 0).then(|| {
        // Level `level − 1` holds `k1 >> (level − 1)` columns; `2·pos + 2`
        // is the partnerless last one exactly when that count is odd and
        // this is the last pair.
        let below = k1 >> (level - 1);
        Children {
            left: push_subtree(nodes, k1, level - 1, 2 * pos),
            right: push_subtree(nodes, k1, level - 1, 2 * pos + 1),
            lone: (2 * pos + 3 == below).then(|| push_subtree(nodes, k1, level - 1, 2 * pos + 2)),
        }
    });
    let hi = children.map_or(lo + 1, |ch| {
        let last = &nodes[ch.lone.unwrap_or(ch.right)];
        last.lo + last.leaves
    });
    nodes.push(TreeNode {
        col: ((pos + 1) << level) - 1,
        level,
        lo,
        leaves: hi - lo,
        children,
    });
    nodes.len() - 1
}

/// An executable smoothing plan for one shape: a [`PlanSchedule`] plus
/// this consumer's reusable `R` factor.
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
/// phase would otherwise re-derive, and every `R` row is overwritten
/// before it is read.  A model or step list of another shape is refused
/// with [`KalmanError::InvalidModel`]; smooth it through a plan of its own.
#[derive(Debug)]
pub struct SmoothPlan {
    schedule: PlanSchedule,
    options: OddEvenOptions,
    r: OddEvenR,
    /// `r` holds the factorization of the most recent successful execute;
    /// cleared on entry to every execute, so a refused one leaves nothing
    /// to read.
    factored: bool,
    /// Hold a workspace [`kalman_dense::arena_scope`] across the walks:
    /// what keeps *repeated* executes of a batch-scale shape
    /// allocation-free (see [`arena_pays_off`]).
    arena: bool,
}

/// A plan that ran under the arena returns its factor to the workspace
/// under the same scope: the `R` rows are the one part of its working set
/// that is not already pooled, and parked there they are what the next
/// plan of this shape (a caller that re-plans per problem) factors into,
/// instead of a second copy of the factor from the allocator.
impl Drop for SmoothPlan {
    fn drop(&mut self) {
        let _arena = self.arena_guard();
        self.r.rows.clear();
    }
}

/// `true` when repeated executes of `schedule` would overflow the
/// thread-local workspace budgets into the allocator — the plan's steady
/// state holds roughly one diagonal block, up to two off-diagonal blocks,
/// and one right-hand-side segment per state in its `R` factor alone, so
/// once ~3·k buffers of the diagonal's size class exceed what the
/// workspace retains of that class (`budget_for_len`: its doubling's
/// element budget over the class size), only lifting the budgets (the
/// plan-owned arena) keeps re-executes allocation-free.
fn arena_pays_off(schedule: &PlanSchedule) -> bool {
    let k = schedule.num_states();
    let n_max = schedule.dims().iter().copied().max().unwrap_or(0);
    3 * k > kalman_dense::budget_for_len((n_max * n_max).max(1)).max(1)
}

impl SmoothPlan {
    /// A plan for a model's shape (validates the model first).  It holds
    /// the workspace arena across its walks exactly when its steady-state
    /// working set exceeds the thread-local workspace budgets
    /// (batch-scale shapes, `k ≳ 10³` at small `n`).
    ///
    /// # Errors
    ///
    /// Model validation errors.
    pub fn for_model(model: &LinearModel, options: OddEvenOptions) -> Result<SmoothPlan> {
        let mut plan = SmoothPlan::for_one_shot(model, options)?;
        plan.arena = arena_pays_off(&plan.schedule);
        Ok(plan)
    }

    /// [`SmoothPlan::for_model`] for a caller that executes the plan once
    /// ([`crate::odd_even_smooth`]): never the arena, since retention it
    /// would not harvest costs later, unrelated work memory locality.
    pub(crate) fn for_one_shot(model: &LinearModel, options: OddEvenOptions) -> Result<SmoothPlan> {
        model.validate()?;
        let dims: Vec<usize> = model.steps.iter().map(|s| s.state_dim).collect();
        Ok(SmoothPlan {
            schedule: PlanSchedule::build(&dims),
            options,
            r: OddEvenR::default(),
            factored: false,
            arena: false,
        })
    }

    /// The schedule backing this plan.
    pub fn schedule(&self) -> &PlanSchedule {
        &self.schedule
    }

    fn arena_guard(&self) -> Option<kalman_dense::ArenaScope> {
        self.arena.then(kalman_dense::arena_scope)
    }

    /// The bottom-up walk over `leaves` into the held factor.
    fn factor_from(&mut self, leaves: Leaves<'_>) -> Result<()> {
        let _span = kalman_obs::span!("oe.factor");
        factor_tree(&self.schedule, leaves, self.options.policy, &mut self.r)?;
        self.factored = true;
        Ok(())
    }

    /// Numeric factorization: walks the plan's pair tree over `steps`
    /// (drained; capacity retained for the caller to refill).  The
    /// resulting factor is held by the plan for the solve/SelInv phases.
    ///
    /// # Errors
    ///
    /// [`KalmanError::InvalidModel`] when `steps` does not have the planned
    /// shape (build a plan for theirs).  After any error the plan holds no
    /// factor.
    pub fn execute(&mut self, steps: &mut Vec<WhitenedStep>) -> Result<()> {
        self.factored = false;
        if !self.schedule.has_dims(steps.iter().map(|s| s.state_dim)) {
            return Err(shape_mismatch(&self.schedule, steps.len()));
        }
        let _arena = self.arena_guard();
        let result = self.factor_from(Leaves::Whitened(steps));
        steps.clear();
        result
    }

    /// The top-down walk against the held factor.
    fn top_down(
        &self,
        means: Option<&mut Vec<Vec<f64>>>,
        covs: Option<&mut Vec<Matrix>>,
    ) -> Result<()> {
        if !self.factored {
            return Err(KalmanError::InvalidModel(
                "plan has no factorization: call execute() first".into(),
            ));
        }
        let _arena = self.arena_guard();
        top_down(&self.schedule, &self.r, self.options.policy, means, covs)
    }

    /// Back substitution against the held factor, into reused storage.
    ///
    /// # Errors
    ///
    /// No prior [`SmoothPlan::execute`], or
    /// [`KalmanError::RankDeficient`] naming the first singular state.
    pub fn solve_into(&mut self, means: &mut Vec<Vec<f64>>) -> Result<()> {
        let _span = kalman_obs::span!("oe.solve");
        self.top_down(Some(means), None)
    }

    /// SelInv covariance phase against the held factor, into reused storage.
    ///
    /// # Errors
    ///
    /// No prior [`SmoothPlan::execute`], or
    /// [`KalmanError::RankDeficient`] naming the first singular state.
    pub fn selinv_into(&mut self, covs: &mut Vec<Matrix>) -> Result<()> {
        let _span = kalman_obs::span!("oe.selinv");
        self.top_down(None, Some(covs))
    }

    /// The one top-down pass a smooth ends with: means and (per
    /// [`OddEvenOptions::covariances`]) covariances together, each `R` row
    /// read once.
    fn estimates_into(&self, out: &mut Smoothed) -> Result<()> {
        let covs = if self.options.covariances {
            Some(out.covariances.get_or_insert_with(Vec::new))
        } else {
            out.covariances = None;
            None
        };
        let _span = kalman_obs::span!("oe.topdown");
        self.top_down(Some(&mut out.means), covs)
    }

    /// Smooths `model` into `out` (reused storage; zero allocations in
    /// steady state): the bottom-up walk, with every leaf whitening its own
    /// step on the way up (so a step's blocks are still in cache when its
    /// pair is eliminated), then one top-down pass for the means and
    /// (optionally, per [`OddEvenOptions::covariances`]) the covariances.
    /// The model must have the planned shape; its numeric content is free
    /// to change between calls — this is the "plan once, execute many"
    /// entry point for repeated batch solves.
    ///
    /// # Errors
    ///
    /// Model validation/whitening errors, plus everything
    /// [`SmoothPlan::execute`] / [`SmoothPlan::solve_into`] /
    /// [`SmoothPlan::selinv_into`] can raise.  After any error the plan
    /// holds no factor.
    pub fn smooth_model_into(&mut self, model: &LinearModel, out: &mut Smoothed) -> Result<()> {
        self.factored = false;
        model.validate()?;
        if !self
            .schedule
            .has_dims(model.steps.iter().map(|s| s.state_dim))
        {
            return Err(shape_mismatch(&self.schedule, model.num_states()));
        }
        let _arena = self.arena_guard();
        self.factor_from(Leaves::Model(model))?;
        self.estimates_into(out)
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

// lint: allow(alloc, "error path: allocates only when the caller handed an unplanned shape")
fn shape_mismatch(schedule: &PlanSchedule, given: usize) -> KalmanError {
    KalmanError::InvalidModel(format!(
        "plan shape mismatch: plan covers {} states but was given {}",
        schedule.num_states(),
        given
    ))
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

    /// The children of node `i`, as nodes.
    fn kids(s: &PlanSchedule, i: usize) -> (TreeNode, TreeNode, Option<TreeNode>) {
        let ch = s.nodes()[i].children.expect("inner node");
        let at = |c: usize| s.nodes()[c];
        (at(ch.left), at(ch.right), ch.lone.map(at))
    }

    /// The arena decision at the shapes the test suite and the benchmark
    /// run: n = 4 tips over at k = 683 (3·k past 2048 buffers of 16), the
    /// n = 48 batch always holds the arena, and an n = 8 window never does.
    #[test]
    fn arena_pays_off_at_the_suite_and_harness_shapes() {
        let pays = |n: usize, k: usize| arena_pays_off(&PlanSchedule::build(&vec![n; k]));
        assert!(!pays(4, 682));
        assert!(pays(4, 683));
        assert!(pays(48, 60));
        assert!(pays(48, 2000));
        assert!(!pays(8, 40));
    }

    #[test]
    fn schedule_matches_chain_halving() {
        let s = PlanSchedule::build(&[2; 16]);
        let sizes: Vec<usize> = s.elim_levels().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![8, 4, 2, 1, 1]);
        assert_eq!(s.elim_levels()[0], vec![0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(s.elim_levels()[1], vec![1, 5, 9, 13]);
        assert_eq!(s.elim_levels()[4], vec![15]);
        // A power of two is a perfect binary tree: 16 leaves, 15 pairs, no
        // lone child, and the root is the last column, never eliminated.
        assert_eq!(s.nodes().len(), 31);
        assert!(s
            .nodes()
            .iter()
            .all(|n| n.children.and_then(|c| c.lone).is_none()));
        let root = *s.root();
        assert_eq!((root.col, root.level, root.lo, root.leaves), (15, 4, 0, 16));
        let (left, right, _) = kids(&s, s.nodes().len() - 1);
        assert_eq!((left.col, left.lo, left.leaves), (7, 0, 8));
        assert_eq!((right.col, right.lo, right.leaves), (15, 8, 8));
    }

    /// A node eliminates its left child's column against that subtree's
    /// left boundary (state `lo − 1`) and its own column — the chain
    /// neighbours the level-by-level picture gives.
    #[test]
    fn schedule_neighbours_are_chain_neighbours() {
        let dims = [3usize, 4, 3, 4, 3, 4, 3];
        let s = PlanSchedule::build(&dims);
        // The level-1 chain is [1, 3, 5] with the partnerless state 6 at
        // level 0; the root pairs 1 with 3 and takes 5 as its lone child.
        let root_at = s.nodes().len() - 1;
        let root = *s.root();
        assert_eq!((root.col, root.level, root.lo, root.leaves), (3, 2, 0, 7));
        let (left, right, lone) = kids(&s, root_at);
        assert_eq!((left.col, left.lo, left.leaves), (1, 0, 2));
        assert_eq!((right.col, right.lo, right.leaves), (3, 2, 2));
        let lone = lone.expect("three level-1 columns");
        assert_eq!((lone.col, lone.level, lone.lo, lone.leaves), (5, 1, 4, 3));
        // State 2 is eliminated by the node of column 3, whose subtree
        // starts at state 2: neighbours 1 (= lo − 1) and 3.
        let at = s
            .nodes()
            .iter()
            .position(|n| n.col == 3 && n.level == 1)
            .unwrap();
        let (even, odd, none) = kids(&s, at);
        assert_eq!((even.col, s.nodes()[at].lo), (2, 2));
        assert_eq!((odd.col, none), (3, None));
        // State 6 has no partner at level 0: the node of column 5 (the last
        // of level 1) eliminates it after its pair (4, 5).
        let at = s
            .nodes()
            .iter()
            .position(|n| n.col == 5 && n.level == 1)
            .unwrap();
        let (even, odd, tail) = kids(&s, at);
        assert_eq!((even.col, odd.col, tail.map(|t| t.col)), (4, 5, Some(6)));
        assert_eq!(s.elim_levels(), &[vec![0, 2, 4, 6], vec![1, 5], vec![3]]);
    }

    /// Post-order, contiguous subtrees, every state a leaf exactly once and
    /// eliminated exactly once (or the root) — at every chain length,
    /// which covers lone children at every depth.
    #[test]
    fn tree_is_a_post_order_partition_at_every_length() {
        for k1 in 1..=70usize {
            let s = PlanSchedule::build(&vec![2; k1]);
            let nodes = s.nodes();
            let mut eliminated = vec![0usize; k1];
            for (i, node) in nodes.iter().enumerate() {
                let Some(ch) = node.children else {
                    assert_eq!((node.level, node.col, node.leaves), (0, node.lo, 1));
                    continue;
                };
                let kids: Vec<usize> = [Some(ch.left), Some(ch.right), ch.lone]
                    .into_iter()
                    .flatten()
                    .collect();
                assert_eq!(*kids.last().unwrap(), i - 1, "k1={k1}: post-order");
                let mut lo = node.lo;
                for &c in &kids {
                    assert!(c < i);
                    assert_eq!((nodes[c].lo, nodes[c].level), (lo, node.level - 1));
                    lo += nodes[c].leaves;
                }
                assert_eq!(
                    lo,
                    node.lo + node.leaves,
                    "k1={k1}: children tile the range"
                );
                assert_eq!(
                    node.col, nodes[ch.right].col,
                    "k1={k1}: the odd column survives"
                );
                eliminated[nodes[ch.left].col] += 1;
                if let Some(t) = ch.lone {
                    eliminated[nodes[t].col] += 1;
                }
            }
            let root = s.root();
            assert_eq!((root.lo, root.leaves), (0, k1));
            eliminated[root.col] += 1;
            assert_eq!(eliminated, vec![1; k1], "k1={k1}");
            assert_eq!(nodes.iter().filter(|n| n.children.is_none()).count(), k1);
            let listed: usize = s.elim_levels().iter().map(Vec::len).sum();
            assert_eq!(listed, k1);
        }
    }

    #[test]
    fn single_state_schedule_is_root_only() {
        let s = PlanSchedule::build(&[5]);
        assert_eq!(s.nodes().len(), 1);
        let root = *s.root();
        assert_eq!((root.col, root.level, root.children), (0, 0, None));
        assert_eq!(s.elim_levels(), &[vec![0]]);
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

    /// A plan covers one shape: steps of another are refused untouched,
    /// and a plan of their own shape takes them.
    #[test]
    fn execute_rejects_mismatched_steps() {
        let model = generators::paper_benchmark(&mut rng(82), 2, 8, false);
        let shorter = generators::paper_benchmark(&mut rng(84), 2, 3, false);
        let mut steps = whiten_model(&model).unwrap();
        let mut plan = SmoothPlan::for_model(&shorter, OddEvenOptions::default()).unwrap();
        assert!(matches!(
            plan.execute(&mut steps),
            Err(KalmanError::InvalidModel(_))
        ));
        assert_eq!(steps.len(), 9);
        assert!(plan.solve_into(&mut Vec::new()).is_err());
        let mut plan = SmoothPlan::for_model(&model, OddEvenOptions::default()).unwrap();
        plan.execute(&mut steps).unwrap();
        assert!(steps.is_empty());
        plan.solve_into(&mut Vec::new()).unwrap();
    }

    /// A refused execute leaves nothing to read: after a good smooth, a
    /// mismatched `execute`, a mismatched `smooth_model_into` and an
    /// invalid model of the planned shape each get `Err`, and so do the
    /// `solve_into` / `selinv_into` after them — not the previous model's
    /// estimates.
    #[test]
    fn a_refused_execute_leaves_no_factor_behind() {
        let model = generators::paper_benchmark(&mut rng(85), 2, 8, true);
        let longer = generators::paper_benchmark(&mut rng(86), 2, 11, true);
        let mut invalid = model.clone();
        invalid.steps[3].evolution = None;
        let mut plan = SmoothPlan::for_model(&model, OddEvenOptions::default()).unwrap();
        let mut out = Smoothed {
            means: Vec::new(),
            covariances: None,
        };
        for case in 0..3 {
            plan.smooth_model_into(&model, &mut out).unwrap();
            plan.solve_into(&mut Vec::new()).unwrap();
            let refused = match case {
                0 => plan.execute(&mut whiten_model(&longer).unwrap()),
                1 => plan.smooth_model_into(&longer, &mut out),
                _ => plan.smooth_model_into(&invalid, &mut out),
            };
            assert!(matches!(refused, Err(KalmanError::InvalidModel(_))));
            assert!(plan.solve_into(&mut Vec::new()).is_err(), "case {case}");
            assert!(plan.selinv_into(&mut Vec::new()).is_err(), "case {case}");
        }
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
