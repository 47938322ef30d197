//! The recursive odd-even elimination (§3 of the paper), walked depth
//! first.
//!
//! Each level of the recursion maintains a *chain* of block columns with the
//! invariant structure of `U·A`: every column `t` carries observation-like
//! rows `C_t` (support in column `t` only) and, for `t > 0`, evolution-like
//! rows `(E_t | D_t)` coupling columns `t−1` and `t`.  One level eliminates
//! all even columns:
//!
//! 1. QR-factor `[C_t; E_{t+1}]` against column `t`; applying `Qᵀ` to
//!    `[0; D_{t+1}]` creates the fill `X_t` and the remainder `D̃_{t+1}`.
//! 2. QR-factor `[D_t; R̂_t]`, finalizing the permanent row
//!    `(B̃_t, R_t, Y_t)` of `R` and leaving residual rows `(Z_t, X̃_t)` that
//!    couple the odd neighbours `t−1, t+1` — the next level's evolution rows.
//! 3. Compress each odd column's `[D̃; C]` stack back to at most `n` rows by
//!    one more QR (restoring the row-count invariant).
//!
//! The odd column `2s + 1` of one level, as column `s` of the next, is a
//! function of its pair `(2s, 2s + 1)` alone (plus the partnerless last
//! column `2s + 2` of an odd-length chain), so the factorization is a
//! reduction over the schedule's pair tree ([`crate::PlanSchedule`]) and
//! any order that finishes a node's children before the node computes the
//! same bits.  [`factor_tree`] walks it depth first: a leaf whitens (or
//! takes) its step and triangularizes its observation block, a node runs
//! steps 1–3 on what its children just returned — while all of it is still
//! in cache — and emits the eliminated columns' `R` rows.  Under
//! `ExecPolicy::Par { grain }` a node above `grain` leaves forks its
//! children with `join`; each arm writes only the `R` rows of its own
//! states.
//!
//! Each QR carries its transform onto the companion blocks in the same
//! call (`QrFactor::new_applying`, `qr_tri_stack_applying`), and each
//! picks its body from the blocks' shapes, so a block takes the same body
//! in a dimension-changing chain as in a uniform one.  Every matrix cycles
//! through the `kalman-dense` workspace, so a steady-state caller (a
//! `SmoothPlan` re-executed on same-shaped problems) performs zero heap
//! allocations after warmup.

use crate::plan::PlanSchedule;
use crate::rfactor::{OddEvenR, RRow};
use kalman_dense::{Matrix, QrFactor};
use kalman_model::{KalmanError, LinearModel, Result, WhitenedStep};
use kalman_par::{join, map_collect, ExecPolicy};

/// Evolution-like rows coupling a chain column to its predecessor.
#[derive(Debug)]
struct EvoRows {
    /// Block in the *previous* chain column (sign already absorbed: at level
    /// 0 this is `−B_i`).
    left: Matrix,
    /// Block in this chain column (`D_i` at level 0).
    right: Matrix,
    /// Right-hand-side segment for these rows.
    rhs: Matrix,
}

/// One chain column, as the tree node that produced it hands it up (the
/// node knows which state it is).
#[derive(Debug)]
struct ChainCol {
    /// Observation-like rows `(C, rhs)` with support only in this column.
    obs: Option<(Matrix, Matrix)>,
    /// `obs` is an `n × n` upper-triangular block (a leaf's
    /// pre-triangularization or a compression); enables the
    /// triangular-pentagonal fast path.
    obs_tri: bool,
    /// Evolution-like rows coupling to the previous chain column.
    evo: Option<EvoRows>,
}

/// The products of eliminating one even column.
#[derive(Debug)]
struct EvenOut {
    diag: Matrix,
    off_left: Option<(usize, Matrix)>,
    off_right: Option<(usize, Matrix)>,
    rhs: Matrix,
    /// `D̃` rows left in column `t+1` after step 1 (feed the odd column's
    /// compression).
    dtilde: Option<(Matrix, Matrix)>,
    /// Residual rows coupling `(t−1, t+1)` — the next level's evolution rows.
    resid: Option<EvoRows>,
    /// Residual rows with support only in `t−1` (when `t` is the last column
    /// of the chain); appended to that odd column's observation stack.
    resid_left_only: Option<(Matrix, Matrix)>,
}

/// Stacks up to three `(rows, rhs)` pairs vertically, zero-padding to at
/// least `min_rows` rows (inline-array variant of `vstack` + `pad_rows`
/// fused into one allocation, so the hot path never re-copies a stack just
/// to append zero equations).
fn stack_parts(
    parts: [Option<(&Matrix, &Matrix)>; 3],
    ncols: usize,
    min_rows: usize,
) -> (Matrix, Matrix) {
    let rows: usize = parts.iter().flatten().map(|(m, _)| m.rows()).sum();
    let rows = rows.max(min_rows);
    let mut stack = Matrix::zeros(rows, ncols);
    let mut rhs = Matrix::zeros(rows, 1);
    let mut r0 = 0;
    for (m, r) in parts.iter().flatten() {
        stack.set_block(r0, 0, m);
        rhs.set_block(r0, 0, r);
        r0 += m.rows();
    }
    (stack, rhs)
}

/// Eliminates one even chain column of dimension `n`: `col` with the
/// evolution rows `next_evo` of its right neighbour (absent for the lone
/// last column of an odd-length chain).  `left` is the left chain
/// neighbour's `(state, dimension)`, `right` the right neighbour's state.
fn eliminate_even(
    n: usize,
    col: ChainCol,
    next_evo: Option<EvoRows>,
    left: Option<(usize, usize)>,
    right: Option<usize>,
) -> EvenOut {
    let ChainCol { obs, obs_tri, evo } = col;

    // ---- Step 1: eliminate column t from [C_t; E_{t+1}]; carry the
    // transform onto [0; D_{t+1}] and the right-hand sides.  Outputs: the
    // triangular R̂ (n×n), its rhs ρ (n×1), the fill X (n×w) and the
    // leftover D̃ rows.
    let (rhat, rho, x_fill, dtilde) = if obs_tri {
        // The obs block is already a `n × n` triangle (level-0
        // pre-triangularization or a previous level's compression), so the
        // stack [C_tri; E] has the triangular-pentagonal shape: no
        // stacking, no padding, reflectors of length 1+l, inputs by move.
        let (mut r, mut rho) = obs.expect("obs_tri implies obs");
        debug_assert_eq!(r.rows(), n);
        match next_evo {
            None => (r, rho, None, None),
            Some(ne) => {
                let l2 = ne.left.rows();
                let mut d = ne.left;
                let mut x_top = Matrix::zeros(n, ne.right.cols());
                let mut x_bot = ne.right;
                let mut rhs_bot = ne.rhs;
                kalman_dense::qr_tri_stack_applying(
                    &mut r,
                    &mut d,
                    &mut [(&mut x_top, &mut x_bot), (&mut rho, &mut rhs_bot)],
                );
                let dtilde = (l2 > 0).then_some((x_bot, rhs_bot));
                (r, rho, Some(x_top), dtilde)
            }
        }
    } else {
        // General shape (short or absent observation blocks): dense QR of
        // the zero-padded stack, its `Qᵀ` applied to the companions.
        let obs_rows = obs.as_ref().map(|(c, _)| c.rows()).unwrap_or(0);
        let (stacked, mut rhs1) = stack_parts(
            [
                obs.as_ref().map(|(c, r)| (c, r)),
                next_evo.as_ref().map(|ne| (&ne.left, &ne.rhs)),
                None,
            ],
            n,
            n,
        );
        let step1_rows = stacked.rows();

        // Companion block in column t+1 (zero where the obs rows are, D below).
        let mut companion = next_evo.as_ref().map(|ne| {
            let mut comp = Matrix::zeros(step1_rows, ne.right.cols());
            comp.set_block(obs_rows, 0, &ne.right);
            comp
        });

        let qr1 = match companion.as_mut() {
            Some(comp) => QrFactor::new_applying(stacked, &mut [&mut rhs1, comp]),
            None => QrFactor::new_applying(stacked, &mut [&mut rhs1]),
        };
        let rhat = qr1.r();
        let rho = rhs1.sub_matrix(0, 0, n, 1);
        let x_fill = companion.as_ref().map(|c| c.sub_matrix(0, 0, n, c.cols()));
        let dtilde = companion.as_ref().and_then(|c| {
            let rows = c.rows() - n;
            if rows == 0 {
                None
            } else {
                Some((
                    c.sub_matrix(n, 0, rows, c.cols()),
                    rhs1.sub_matrix(n, 0, rows, 1),
                ))
            }
        });
        (rhat, rho, x_fill, dtilde)
    };

    // ---- Step 2: absorb this column's evolution rows (if any).  The stack
    // [D_t; R̂_t] always has the triangular-pentagonal shape, and the
    // companions live in their natural blocks — the transformed tops *are*
    // the permanent row's blocks and the bottoms the residual rows, so no
    // stacking or extraction copies remain.
    match evo {
        None => {
            // First chain column: R̂ is final.
            let off_right = match (x_fill, right) {
                (Some(x), Some(ro)) => Some((ro, x)),
                _ => None,
            };
            EvenOut {
                diag: rhat,
                off_left: None,
                off_right,
                rhs: rho,
                dtilde,
                resid: None,
                resid_left_only: None,
            }
        }
        Some(evo) => {
            let l = evo.right.rows();
            let (left_orig, left_dim) = left.expect("evolution rows imply a left neighbour");
            let mut diag = rhat;
            let mut d = evo.right;
            let mut cl_top = Matrix::zeros(n, left_dim);
            let mut cl_bot = evo.left;
            let mut rhs_top = rho;
            let mut rhs_bot = evo.rhs;
            match x_fill {
                Some(mut x_top) => {
                    let mut cr_bot = Matrix::zeros(l, x_top.cols());
                    kalman_dense::qr_tri_stack_applying(
                        &mut diag,
                        &mut d,
                        &mut [
                            (&mut cl_top, &mut cl_bot),
                            (&mut x_top, &mut cr_bot),
                            (&mut rhs_top, &mut rhs_bot),
                        ],
                    );
                    // Kept even with no rows (an evolution without
                    // equations): the survivor stays coupled, by zero
                    // blocks, to its chain neighbour, so every `S` block the
                    // top-down pass asks for exists.
                    let resid = Some(EvoRows {
                        left: cl_bot,
                        right: cr_bot,
                        rhs: rhs_bot,
                    });
                    EvenOut {
                        diag,
                        off_left: Some((left_orig, cl_top)),
                        off_right: right.map(|ro| (ro, x_top)),
                        rhs: rhs_top,
                        dtilde,
                        resid,
                        resid_left_only: None,
                    }
                }
                None => {
                    kalman_dense::qr_tri_stack_applying(
                        &mut diag,
                        &mut d,
                        &mut [(&mut cl_top, &mut cl_bot), (&mut rhs_top, &mut rhs_bot)],
                    );
                    let resid_left_only = (l > 0).then_some((cl_bot, rhs_bot));
                    EvenOut {
                        diag,
                        off_left: Some((left_orig, cl_top)),
                        off_right: None,
                        rhs: rhs_top,
                        dtilde,
                        resid: None,
                        resid_left_only,
                    }
                }
            }
        }
    }
}

/// Moves an [`EvenOut`]'s permanent row into the reused slot `row`,
/// retaining the slot's `off` capacity.
fn emit_row(row: &mut RRow, out: &mut EvenOut, level: usize) {
    row.diag = std::mem::replace(&mut out.diag, Matrix::zeros(0, 0));
    row.rhs = std::mem::replace(&mut out.rhs, Matrix::zeros(0, 0));
    row.level = level;
    row.off.clear();
    if let Some(pair) = out.off_left.take() {
        row.off.push(pair); // lint: allow(alloc, "off holds at most 2 pairs and retains its slot capacity; amortized to zero")
    }
    if let Some(pair) = out.off_right.take() {
        row.off.push(pair); // lint: allow(alloc, "off holds at most 2 pairs and retains its slot capacity; amortized to zero")
    }
}

/// Step 3: compresses an odd column's observation-like row stacks —
/// `[D̃, own block, left-only residual of a lone last column]` — back to at
/// most `dim` rows.  `obs_tri`: the own block is a `dim × dim` triangle.
/// Returns the block and whether it is triangular.
fn compress(
    dim: usize,
    mut parts: [Option<(Matrix, Matrix)>; 3],
    obs_tri: bool,
) -> (Option<(Matrix, Matrix)>, bool) {
    if parts.iter().all(Option::is_none) {
        return (None, false);
    }
    if obs_tri {
        // The obs block is already a `dim × dim` triangle, so the
        // compression is one triangular-pentagonal elimination of the
        // dense rows (D̃ and any left-only residual) into it — and the
        // single-dense-part common case moves its block straight in.
        let (mut r, mut rhs_top) = parts[1].take().expect("obs_tri implies obs");
        debug_assert_eq!(r.rows(), dim);
        let dstack = match (parts[0].take(), parts[2].take()) {
            (Some(p), None) | (None, Some(p)) => Some(p),
            (Some(a), Some(b)) => Some(stack_parts(
                [Some((&a.0, &a.1)), Some((&b.0, &b.1)), None],
                dim,
                0,
            )),
            (None, None) => None,
        };
        if let Some((mut dstack, mut drhs)) = dstack {
            kalman_dense::qr_tri_stack_applying(
                &mut r,
                &mut dstack,
                &mut [(&mut rhs_top, &mut drhs)],
            );
        }
        return (Some((r, rhs_top)), true);
    }
    let (stack, mut rhs) = {
        // The parts go back to the pool before the compression takes its
        // scratch.
        let parts = parts;
        stack_parts(
            parts.each_ref().map(|p| p.as_ref().map(|(m, r)| (m, r))),
            dim,
            0,
        )
    };
    if stack.rows() > dim {
        let r = kalman_dense::compress_rows_owned(stack, &mut rhs);
        let kept = r.rows();
        (Some((r, rhs.sub_matrix(0, 0, kept, 1))), true)
    } else {
        (Some((stack, rhs)), false)
    }
}

/// A leaf: the level-0 chain column of one whitened step (`B` negated in
/// place — no copies of the problem data), its observation block
/// pre-triangularized.  A QR of `C` alone costs a fraction of the stacked
/// QR it replaces, and afterwards *every* elimination step — not just
/// those behind a compression — runs the triangular-pentagonal fast path
/// with short reflectors and no stack/extract copies.  A short block
/// (`m < n`) stays as it is, and step 1 stacks it, zero-padded, on the
/// evolution rows for one general QR.
fn leaf_col(ws: WhitenedStep) -> ChainCol {
    let dim = ws.state_dim;
    let mut col = ChainCol {
        obs: None,
        obs_tri: false,
        evo: ws.evo.map(|e| {
            let mut left = e.b;
            left.scale(-1.0);
            EvoRows {
                left,
                right: e.d,
                rhs: e.rhs,
            }
        }),
    };
    if let Some(obs) = ws.obs {
        let (c, mut rhs) = (obs.c, obs.rhs);
        if c.rows() >= dim && dim > 0 {
            let qr = QrFactor::new_applying(c, &mut [&mut rhs]);
            col.obs = Some((qr.r(), rhs.sub_matrix(0, 0, dim, 1)));
            col.obs_tri = true;
        } else {
            col.obs = Some((c, rhs));
        }
    }
    col
}

/// Where the leaves' whitened steps come from.
pub(crate) enum Leaves<'a> {
    /// Pre-whitened steps, taken out of their slots (one slot per state of
    /// the subtree being walked).
    Whitened(&'a mut [WhitenedStep]),
    /// Each leaf whitens its own step of the model.
    Model(&'a LinearModel),
}

impl<'a> Leaves<'a> {
    /// The leaves of the first `mid` states of this subtree, and the rest.
    fn split_at(self, mid: usize) -> (Leaves<'a>, Leaves<'a>) {
        match self {
            Leaves::Whitened(steps) => {
                let (a, b) = steps.split_at_mut(mid);
                (Leaves::Whitened(a), Leaves::Whitened(b))
            }
            Leaves::Model(model) => (Leaves::Model(model), Leaves::Model(model)),
        }
    }

    /// The whitened step of state `i`, the one leaf this subtree is.
    fn step(self, i: usize) -> Result<WhitenedStep> {
        match self {
            Leaves::Whitened(steps) => Ok(WhitenedStep {
                state_dim: steps[0].state_dim,
                obs: steps[0].obs.take(),
                evo: steps[0].evo.take(),
            }),
            Leaves::Model(model) => WhitenedStep::from_model_step(model, i),
        }
    }
}

/// One bottom-up walk of a schedule's pair tree.
struct Walk<'a> {
    schedule: &'a PlanSchedule,
    policy: ExecPolicy,
}

impl Walk<'_> {
    /// Factors the subtree of node `idx` — `leaves` and `rows` are the
    /// slices of its states — and returns the chain column it produces,
    /// having written the `R` row of every state eliminated on the way.
    fn column(&self, idx: usize, leaves: Leaves<'_>, rows: &mut [RRow]) -> Result<ChainCol> {
        let nodes = self.schedule.nodes();
        let node = nodes[idx];
        let Some(ch) = node.children else {
            return Ok(leaf_col(leaves.step(node.col)?));
        };
        let (l, r) = (nodes[ch.left], nodes[ch.right]);
        let (left, mut right, lone) = {
            let (leaves_l, rest) = leaves.split_at(l.leaves);
            let (leaves_r, leaves_t) = rest.split_at(r.leaves);
            let (rows_l, rest) = rows.split_at_mut(l.leaves);
            let (rows_r, rows_t) = rest.split_at_mut(r.leaves);
            // Subtrees that fit in one grain stay off the scheduler.
            let policy = self.policy.for_len(node.leaves);
            let (left, (right, lone)) = join(
                policy,
                || self.column(ch.left, leaves_l, rows_l),
                || {
                    join(
                        policy,
                        || self.column(ch.right, leaves_r, rows_r),
                        || {
                            ch.lone
                                .map(|t| self.column(t, leaves_t, rows_t))
                                .transpose()
                        },
                    )
                },
            );
            // The lowest state's error, whichever arm finished first.
            (left?, right?, lone?)
        };

        let dims = self.schedule.dims();
        let left_nbr = node.lo.checked_sub(1).map(|b| (b, dims[b]));
        let mut out = eliminate_even(
            dims[l.col],
            left,
            right.evo.take(),
            left_nbr,
            Some(node.col),
        );
        let mut parts = [out.dtilde.take(), right.obs.take(), None];
        let obs_tri = right.obs_tri && parts[1].is_some();
        emit_row(&mut rows[l.col - node.lo], &mut out, node.level - 1);
        if let (Some(t), Some(col)) = (ch.lone, lone) {
            // The chain's partnerless last column: its only neighbour is
            // this node's survivor, which absorbs its residual.
            let t = nodes[t].col;
            let own = Some((node.col, dims[node.col]));
            let mut out = eliminate_even(dims[t], col, None, own, None);
            parts[2] = out.resid_left_only.take();
            emit_row(&mut rows[t - node.lo], &mut out, node.level - 1);
        }
        let (obs, obs_tri) = compress(dims[node.col], parts, obs_tri);
        Ok(ChainCol {
            obs,
            obs_tri,
            evo: out.resid.take(),
        })
    }
}

/// Runs the odd-even QR factorization on borrowed whitened steps.
///
/// This is the one-shot form: it copies the steps (in parallel), plans,
/// factors once and drops the plan.  `policy` controls the forking of the
/// walk.  Callers that factor the same shape repeatedly hold a
/// [`crate::SmoothPlan`], which reuses the schedule and the output storage.
pub fn factor_odd_even(steps: &[WhitenedStep], policy: ExecPolicy) -> Result<OddEvenR> {
    let mut owned: Vec<WhitenedStep> = map_collect(policy, steps.len(), |i| steps[i].clone());
    let dims: Vec<usize> = steps.iter().map(|s| s.state_dim).collect();
    let schedule = PlanSchedule::build(&dims);
    let mut out = OddEvenR::default();
    factor_tree(&schedule, Leaves::Whitened(&mut owned), policy, &mut out)?;
    Ok(out)
}

/// The numeric phase of the odd-even factorization: one depth-first walk
/// of `schedule`'s pair tree over `leaves` (which must match the
/// schedule's shape — callers have checked), reusing
/// `out`'s storage.  On error `out` holds no usable factor.
pub(crate) fn factor_tree(
    schedule: &PlanSchedule,
    leaves: Leaves<'_>,
    policy: ExecPolicy,
    out: &mut OddEvenR,
) -> Result<()> {
    // The tree is closed under elimination only for a chain: every step
    // but the first coupled to its predecessor (a model guarantees it;
    // hand-whitened steps are checked).
    if let Leaves::Whitened(steps) = &leaves {
        if let Some(i) = (0..steps.len()).find(|&i| steps[i].evo.is_some() != (i > 0)) {
            // lint: allow(alloc, "error path: allocates only for hand-built steps that are not a chain")
            return Err(KalmanError::InvalidModel(format!(
                "whitened step {i}: evolution rows must be present from step 1 on and absent at step 0"
            )));
        }
    }
    // Size the output: reuse existing row slots, add/remove as needed, and
    // copy the elimination-order level lists straight from the plan.
    let k1 = schedule.num_states();
    out.rows.truncate(k1);
    out.rows.resize_with(k1, || RRow {
        diag: Matrix::zeros(0, 0),
        off: Vec::new(),
        rhs: Matrix::zeros(0, 0),
        level: 0,
    });
    let elim = schedule.elim_levels();
    out.levels.truncate(elim.len());
    out.levels.resize_with(elim.len(), Vec::new);
    for (dst, src) in out.levels.iter_mut().zip(elim) {
        dst.clear();
        dst.extend_from_slice(src);
    }

    let walk = Walk { schedule, policy };
    let root = schedule.root();
    let top = walk.column(schedule.nodes().len() - 1, leaves, &mut out.rows)?;
    debug_assert!(
        top.evo.is_none(),
        "the first chain column carries no evolution rows"
    );
    // Base case: a single column with observation rows only.
    let dim = schedule.dims()[root.col];
    let (stack, mut rhs) = stack_parts(
        [top.obs.as_ref().map(|(m, r)| (m, r)), None, None],
        dim,
        dim,
    );
    let qr = QrFactor::new_applying(stack, &mut [&mut rhs]);
    let row = &mut out.rows[root.col];
    row.diag = qr.r();
    row.off.clear();
    row.rhs = rhs.sub_matrix(0, 0, dim, 1);
    row.level = root.level;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_dense::{matmul_tn, Matrix};
    use kalman_model::{generators, whiten_model};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The factorization applies orthogonal transforms to rows of U·A (plus
    /// zero-row padding and row permutations), so it must preserve the Gram
    /// matrix: (RPᵀ)ᵀ(RPᵀ) == (UA)ᵀ(UA), and likewise Rᵀ·rhs == (UA)ᵀ·Ub.
    #[test]
    fn gram_matrix_is_preserved() {
        for (k, seed) in [
            (1usize, 1u64),
            (2, 2),
            (3, 3),
            (4, 4),
            (7, 5),
            (12, 6),
            (17, 7),
        ] {
            let model = generators::paper_benchmark(&mut rng(seed), 3, k, false);
            let steps = whiten_model(&model).unwrap();
            let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
            let sys = kalman_model::assemble_dense(&model).unwrap();

            let dims: Vec<usize> = model.steps.iter().map(|s| s.state_dim).collect();
            let rd = r.to_dense_original_order(&dims);
            let gram_r = matmul_tn(&rd, &rd);
            let gram_a = matmul_tn(&sys.a, &sys.a);
            assert!(
                gram_r.approx_eq(&gram_a, 1e-9 * (1.0 + gram_a.max_abs())),
                "gram mismatch at k={k}: {}",
                gram_r.max_abs_diff(&gram_a)
            );

            // Rᵀ rhs == (UA)ᵀ Ub.
            let order = r.elimination_order();
            let rhs_parts: Vec<&Matrix> = order.iter().map(|&j| &r.rows[j].rhs).collect();
            let rhs = Matrix::vstack(&rhs_parts);
            let lhs = matmul_tn(&rd, &rhs);
            let expect = matmul_tn(&sys.a, &sys.b);
            assert!(
                lhs.approx_eq(&expect, 1e-9 * (1.0 + expect.max_abs())),
                "rhs mismatch at k={k}"
            );
        }
    }

    #[test]
    fn parallel_and_sequential_factorizations_agree() {
        let model = generators::paper_benchmark(&mut rng(10), 4, 33, true);
        let steps = whiten_model(&model).unwrap();
        let rs = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        let rp = factor_odd_even(&steps, ExecPolicy::par_with_grain(2)).unwrap();
        assert_eq!(rs.levels, rp.levels);
        for (a, b) in rs.rows.iter().zip(&rp.rows) {
            assert!(a.diag.approx_eq(&b.diag, 1e-13));
            assert!(a.rhs.approx_eq(&b.rhs, 1e-13));
            assert_eq!(a.off.len(), b.off.len());
            for ((ta, ma), (tb, mb)) in a.off.iter().zip(&b.off) {
                assert_eq!(ta, tb);
                assert!(ma.approx_eq(mb, 1e-13));
            }
        }
    }

    /// Re-running the factorization into the same output (the plan-reuse
    /// pattern) must give results identical to a fresh run, including when
    /// the problem shrinks between calls.
    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_state() {
        let mut out = OddEvenR::default();
        for (k, seed) in [(21usize, 61u64), (21, 62), (9, 63), (30, 64)] {
            let model = generators::paper_benchmark(&mut rng(seed), 3, k, true);
            let steps = whiten_model(&model).unwrap();
            let fresh = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
            let mut owned = steps.clone();
            let dims: Vec<usize> = steps.iter().map(|s| s.state_dim).collect();
            let schedule = PlanSchedule::build(&dims);
            factor_tree(
                &schedule,
                Leaves::Whitened(&mut owned),
                ExecPolicy::Seq,
                &mut out,
            )
            .unwrap();
            assert!(owned.iter().all(|s| s.obs.is_none() && s.evo.is_none()));
            assert_eq!(out.levels, fresh.levels);
            assert_eq!(out.rows.len(), fresh.rows.len());
            for (a, b) in out.rows.iter().zip(&fresh.rows) {
                assert!(a.diag.approx_eq(&b.diag, 0.0));
                assert!(a.rhs.approx_eq(&b.rhs, 0.0));
                assert_eq!(a.level, b.level);
                assert_eq!(a.off.len(), b.off.len());
                for ((ta, ma), (tb, mb)) in a.off.iter().zip(&b.off) {
                    assert_eq!(ta, tb);
                    assert!(ma.approx_eq(mb, 0.0));
                }
            }
        }
    }

    /// Hand-whitened steps that are not a chain are refused: a missing
    /// evolution would leave a residual the pair tree has no place for, a
    /// stray one on step 0 has no left neighbour.
    #[test]
    fn steps_that_are_not_a_chain_are_refused() {
        let model = generators::paper_benchmark(&mut rng(65), 2, 6, true);
        let steps = whiten_model(&model).unwrap();
        let mut missing = steps.clone();
        missing[4].evo = None;
        let mut stray = steps.clone();
        stray[0].evo = steps[1].evo.clone();
        for bad in [missing, stray] {
            assert!(matches!(
                factor_odd_even(&bad, ExecPolicy::Seq),
                Err(KalmanError::InvalidModel(_))
            ));
        }
    }

    #[test]
    fn level_structure_halves() {
        let model = generators::paper_benchmark(&mut rng(11), 2, 15, false); // 16 states
        let steps = whiten_model(&model).unwrap();
        let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        // 16 → evens 8, chain 8 → 4 → 2 → 1 → base 1.
        let sizes: Vec<usize> = r.levels.iter().map(|l| l.len()).collect();
        assert_eq!(sizes, vec![8, 4, 2, 1, 1]);
        assert_eq!(r.levels[0], vec![0, 2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(r.levels[1], vec![1, 5, 9, 13]);
        assert_eq!(r.levels[4], vec![15]);
    }

    #[test]
    fn off_targets_are_deeper_levels() {
        let model = generators::paper_benchmark(&mut rng(12), 2, 20, false);
        let steps = whiten_model(&model).unwrap();
        let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        let mut level_of = vec![0usize; r.num_states()];
        for (l, states) in r.levels.iter().enumerate() {
            for &s in states {
                level_of[s] = l;
            }
        }
        for (j, row) in r.rows.iter().enumerate() {
            assert!(
                row.off.len() <= 2,
                "row {j} has {} off blocks",
                row.off.len()
            );
            for (target, _) in &row.off {
                assert!(
                    level_of[*target] > row.level,
                    "row {j} (level {}) references {} (level {})",
                    row.level,
                    target,
                    level_of[*target]
                );
            }
        }
    }

    /// Short (`m < n`) observation blocks take step 1's general path: a QR
    /// of the zero-padded stack, an orthogonal transformation, so the Gram
    /// matrix is preserved.
    #[test]
    fn short_observations_trap_path_preserves_gram() {
        for (n, m, k, seed) in [
            (4usize, 2usize, 9usize, 40u64),
            (6, 3, 14, 41),
            (3, 1, 5, 42),
        ] {
            let model = generators::short_observations(&mut rng(seed), n, k, m);
            let steps = whiten_model(&model).unwrap();
            let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
            let sys = kalman_model::assemble_dense(&model).unwrap();
            let dims: Vec<usize> = model.steps.iter().map(|s| s.state_dim).collect();
            let rd = r.to_dense_original_order(&dims);
            let gram_r = matmul_tn(&rd, &rd);
            let gram_a = matmul_tn(&sys.a, &sys.a);
            assert!(
                gram_r.approx_eq(&gram_a, 1e-9 * (1.0 + gram_a.max_abs())),
                "gram mismatch n={n} m={m} k={k}: {}",
                gram_r.max_abs_diff(&gram_a)
            );
        }
    }

    /// Short observation blocks end to end against the independent dense
    /// oracle, on the default kernels and (under `KALMAN_REF_KERNELS=1`, a
    /// leg of the CI matrix) on the reference ones.
    #[test]
    fn short_observations_match_dense_oracle() {
        let model = generators::short_observations(&mut rng(43), 5, 16, 2);
        let dense = kalman_model::solve_dense(&model).unwrap();
        let opts = crate::OddEvenOptions {
            covariances: true,
            ..Default::default()
        };
        let smoothed = crate::odd_even_smooth(&model, opts).unwrap();
        assert!(
            smoothed.max_mean_diff(&dense) < 1e-8,
            "trap-path means diverged from dense oracle: {}",
            smoothed.max_mean_diff(&dense)
        );
        assert!(smoothed.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn sparse_observations_and_prior_work() {
        let mut model = generators::sparse_observations(&mut rng(14), 2, 10, 3);
        model.set_prior(vec![0.0; 2], kalman_model::CovarianceSpec::Identity(2));
        let steps = whiten_model(&model).unwrap();
        let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        let sys = kalman_model::assemble_dense(&model).unwrap();
        let dims: Vec<usize> = model.steps.iter().map(|s| s.state_dim).collect();
        let rd = r.to_dense_original_order(&dims);
        assert!(matmul_tn(&rd, &rd).approx_eq(&matmul_tn(&sys.a, &sys.a), 1e-9));
    }

    #[test]
    fn dimension_changes_preserve_gram() {
        let model = generators::dimension_change(&mut rng(15), 2, 11);
        let steps = whiten_model(&model).unwrap();
        let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        let sys = kalman_model::assemble_dense(&model).unwrap();
        let dims: Vec<usize> = model.steps.iter().map(|s| s.state_dim).collect();
        let rd = r.to_dense_original_order(&dims);
        let gram_r = matmul_tn(&rd, &rd);
        let gram_a = matmul_tn(&sys.a, &sys.a);
        assert!(gram_r.approx_eq(&gram_a, 1e-8 * (1.0 + gram_a.max_abs())));
    }
}
