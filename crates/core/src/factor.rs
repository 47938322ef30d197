//! The recursive odd-even elimination (§3 of the paper).
//!
//! Each level of the recursion maintains a *chain* of block columns with the
//! invariant structure of `U·A`: every column `t` carries observation-like
//! rows `C_t` (support in column `t` only) and, for `t > 0`, evolution-like
//! rows `(E_t | D_t)` coupling columns `t−1` and `t`.  One level eliminates
//! all even columns concurrently:
//!
//! 1. QR-factor `[C_t; E_{t+1}]` against column `t`; applying `Qᵀ` to
//!    `[0; D_{t+1}]` creates the fill `X_t` and the remainder `D̃_{t+1}`.
//! 2. QR-factor `[D_t; R̂_t]`, finalizing the permanent row
//!    `(B̃_t, R_t, Y_t)` of `R` and leaving residual rows `(Z_t, X̃_t)` that
//!    couple the odd neighbours `t−1, t+1` — the next level's evolution rows.
//! 3. Compress each odd column's `[D̃; C]` stack back to at most `n` rows by
//!    one more QR (restoring the row-count invariant).
//!
//! All three batches are embarrassingly parallel across columns; the chain
//! halves each level, so the critical path is `Θ(log k)` batches.
//!
//! The QRs fuse factorization with the companion transforms
//! (`QrFactor::new_applying`), and every container the elimination needs
//! lives in a reusable [`FactorScratch`]; together with the workspace-pooled
//! matrices of `kalman-dense` this makes a steady-state caller (a
//! `SmoothPlan` re-executed on same-shaped problems) perform zero heap
//! allocations after warmup.

use crate::plan::{PlanLevel, PlanSchedule};
use crate::rfactor::{OddEvenR, RRow};
use kalman_dense::{KernelKind, Matrix, QrFactor};
use kalman_model::{Result, WhitenedStep};
use kalman_par::{for_each_mut, map_collect, ExecPolicy};

/// Evolution-like rows coupling a chain column to its predecessor.
#[derive(Debug, Clone)]
struct EvoRows {
    /// Block in the *previous* chain column (sign already absorbed: at level
    /// 0 this is `−B_i`).
    left: Matrix,
    /// Block in this chain column (`D_i` at level 0).
    right: Matrix,
    /// Right-hand-side segment for these rows.
    rhs: Matrix,
}

/// One column of the current level's chain.
#[derive(Debug)]
struct LevelCol {
    /// Original state index.
    orig: usize,
    /// State dimension `n`.
    dim: usize,
    /// Observation-like rows `(C, rhs)` with support only in this column.
    obs: Option<(Matrix, Matrix)>,
    /// `obs` is the `n × n` upper-triangular block produced by the previous
    /// level's compression (enables the triangular-pentagonal fast path).
    obs_tri: bool,
    /// `obs` is a *short* (`m < n`) block the level-0 pre-pass reduced to
    /// upper-trapezoidal form (enables the trapezoidal-pentagonal step-1
    /// fast path).  Mutually exclusive with `obs_tri`.
    obs_trap: bool,
    /// Evolution-like rows coupling to the previous chain column.
    evo: Option<EvoRows>,
}

/// Everything one even-column elimination needs, borrowed out of the chain.
#[derive(Debug)]
struct EvenTask {
    orig: usize,
    dim: usize,
    obs: Option<(Matrix, Matrix)>,
    /// See [`LevelCol::obs_tri`].
    obs_tri: bool,
    /// See [`LevelCol::obs_trap`].
    obs_trap: bool,
    /// This column's evolution rows (couple to chain neighbour `t−1`).
    evo: Option<EvoRows>,
    /// The next column's evolution rows (couple `t` and `t+1`).
    next_evo: Option<EvoRows>,
    left_orig: Option<usize>,
    left_dim: Option<usize>,
    right_orig: Option<usize>,
    /// Filled by the parallel batch (`for_each_mut` writes each task's
    /// result next to its inputs, so the inputs are consumed by move —
    /// the batch clones nothing).
    out: Option<EvenOut>,
}

/// The products of eliminating one even column.  The permanent row is kept
/// as loose fields (not an [`RRow`]) so the sequential merge can move them
/// into the reused `OddEvenR` slots without creating per-row containers.
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

/// One odd column staged for the compression batch: the surviving column
/// plus up to three observation-like row stacks (inline — no heap).
#[derive(Debug)]
struct OddInput {
    orig: usize,
    dim: usize,
    evo: Option<EvoRows>,
    /// `parts[1]` (the surviving obs block) is a `dim × dim` triangle.
    obs_tri: bool,
    parts: [Option<(Matrix, Matrix)>; 3],
    /// Filled by the parallel compression batch (consumes `parts`).
    result: Option<(Matrix, Matrix, bool)>,
}

/// Reusable containers for the numeric factorization a
/// [`crate::SmoothPlan`] runs: every `Vec` the elimination builds per
/// call/level lives here and keeps its capacity, so repeated factorizations
/// of same-shaped problems allocate nothing.  The scratch carries no results
/// between calls.
#[derive(Debug, Default)]
pub(crate) struct FactorScratch {
    cols: Vec<LevelCol>,
    next_cols: Vec<LevelCol>,
    tasks: Vec<EvenTask>,
    odd_inputs: Vec<OddInput>,
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

fn eliminate_even(task: &mut EvenTask, kind: KernelKind) -> EvenOut {
    let n = task.dim;
    let obs = task.obs.take();
    let next_evo = task.next_evo.take();
    let evo = task.evo.take();

    // ---- Step 1: eliminate column t from [C_t; E_{t+1}]; carry the
    // transform onto [0; D_{t+1}] and the right-hand sides.  Outputs: the
    // triangular R̂ (n×n), its rhs ρ (n×1), the fill X (n×w) and the
    // leftover D̃ rows.
    let (rhat, rho, x_fill, dtilde) = if task.obs_tri {
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
                kalman_dense::qr_tri_stack_applying_with(
                    kind,
                    &mut r,
                    &mut d,
                    &mut [(&mut x_top, &mut x_bot), (&mut rho, &mut rhs_bot)],
                );
                let dtilde = (l2 > 0).then_some((x_bot, rhs_bot));
                (r, rho, Some(x_top), dtilde)
            }
        }
    } else if task.obs_trap {
        // Short observation block already reduced to an `m × n` upper
        // trapezoid (m < n) by the level-0 pre-pass: eliminate the
        // trapezoidal-pentagonal stack [C_trap; E] without padding C back
        // up to `n` rows, then scatter the staircase rows into the padded
        // `n × n` outputs the rest of the pipeline expects.
        let (mut t, mut rho_top) = obs.expect("obs_trap implies obs");
        let m = t.rows();
        debug_assert!(m < n, "obs_trap implies a short block");
        match next_evo {
            None => {
                let mut rhat = Matrix::zeros(n, n);
                rhat.set_block(0, 0, &t);
                let mut rho = Matrix::zeros(n, 1);
                rho.set_block(0, 0, &rho_top);
                (rhat, rho, None, None)
            }
            Some(ne) => {
                let l2 = ne.left.rows();
                let w = ne.right.cols();
                let mut d = ne.left;
                let mut x_top = Matrix::zeros(m, w);
                let mut x_bot = ne.right;
                let mut rhs_bot = ne.rhs;
                kalman_dense::qr_trap_stack_applying(
                    &mut t,
                    &mut d,
                    &mut [(&mut x_top, &mut x_bot), (&mut rho_top, &mut rhs_bot)],
                );
                // Staircase rows `m + i` of the result live in `D` row `i`
                // (columns ≥ m + i; below that are spent reflector tails).
                let steps = l2.min(n - m);
                let mut rhat = Matrix::zeros(n, n);
                let mut rho = Matrix::zeros(n, 1);
                let mut x = Matrix::zeros(n, w);
                rhat.set_block(0, 0, &t);
                rho.set_block(0, 0, &rho_top);
                x.set_block(0, 0, &x_top);
                for i in 0..steps {
                    for j in (m + i)..n {
                        rhat[(m + i, j)] = d[(i, j)];
                    }
                    rho[(m + i, 0)] = rhs_bot[(i, 0)];
                    for c in 0..w {
                        x[(m + i, c)] = x_bot[(i, c)];
                    }
                }
                let dtilde = (l2 > steps).then(|| {
                    (
                        x_bot.sub_matrix(steps, 0, l2 - steps, w),
                        rhs_bot.sub_matrix(steps, 0, l2 - steps, 1),
                    )
                });
                (rhat, rho, Some(x), dtilde)
            }
        }
    } else {
        // General shape (short observation blocks): dense QR of the
        // zero-padded stack, fused with the companion transforms.
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
            let off_right = match (x_fill, task.right_orig) {
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
            let left_dim = task.left_dim.expect("evo implies a left neighbour");
            let left_orig = task.left_orig.expect("evo implies a left neighbour");
            let mut diag = rhat;
            let mut d = evo.right;
            let mut cl_top = Matrix::zeros(n, left_dim);
            let mut cl_bot = evo.left;
            let mut rhs_top = rho;
            let mut rhs_bot = evo.rhs;
            match x_fill {
                Some(mut x_top) => {
                    let mut cr_bot = Matrix::zeros(l, x_top.cols());
                    kalman_dense::qr_tri_stack_applying_with(
                        kind,
                        &mut diag,
                        &mut d,
                        &mut [
                            (&mut cl_top, &mut cl_bot),
                            (&mut x_top, &mut cr_bot),
                            (&mut rhs_top, &mut rhs_bot),
                        ],
                    );
                    let resid = (l > 0).then_some(EvoRows {
                        left: cl_bot,
                        right: cr_bot,
                        rhs: rhs_bot,
                    });
                    EvenOut {
                        diag,
                        off_left: Some((left_orig, cl_top)),
                        off_right: task.right_orig.map(|ro| (ro, x_top)),
                        rhs: rhs_top,
                        dtilde,
                        resid,
                        resid_left_only: None,
                    }
                }
                None => {
                    kalman_dense::qr_tri_stack_applying_with(
                        kind,
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

/// Eliminates all even columns of `scratch.cols` following the symbolic
/// `plan` for this level, emitting their permanent rows into `out` and
/// leaving the next level's (odd-column) chain in `scratch.cols`.
fn eliminate_level(
    plan: &PlanLevel,
    scratch: &mut FactorScratch,
    level: usize,
    policy: ExecPolicy,
    kind: KernelKind,
    out: &mut OddEvenR,
) {
    let FactorScratch {
        cols,
        next_cols,
        tasks,
        odd_inputs,
    } = scratch;
    let kk = cols.len();
    debug_assert!(kk >= 2, "base case handled by caller");
    debug_assert_eq!(kk, plan.evens.len() + plan.odds.len(), "plan mismatch");
    let n_even = plan.evens.len();
    let n_odd = plan.odds.len();

    // Extract each even task's inputs (pointer moves, no matrix copies);
    // the chain positions, dimensions and neighbour links come from the
    // symbolic plan instead of being re-derived from the chain.
    tasks.clear();
    for (s, slot) in plan.evens.iter().enumerate() {
        let t = 2 * s;
        debug_assert_eq!(cols[t].orig, slot.orig, "plan/chain divergence");
        debug_assert_eq!(cols[t].dim, slot.dim, "plan/chain divergence");
        let obs = cols[t].obs.take();
        let obs_tri = cols[t].obs_tri && obs.is_some();
        let obs_trap = cols[t].obs_trap && obs.is_some();
        let evo = cols[t].evo.take();
        let next_evo = if t + 1 < kk {
            cols[t + 1].evo.take()
        } else {
            None
        };
        // lint: allow(alloc, "push into cleared scratch that retains capacity across levels; amortized, steady-state alloc-free")
        tasks.push(EvenTask {
            orig: slot.orig,
            dim: slot.dim,
            obs,
            obs_tri,
            obs_trap,
            evo,
            next_evo,
            left_orig: slot.left_orig,
            left_dim: slot.left_orig.map(|_| slot.left_dim),
            right_orig: slot.right_orig,
            out: None,
        });
    }

    // Batch 1+2: eliminate the even columns in parallel, each task
    // consuming its inputs by move and parking its result in place.
    for_each_mut(policy, tasks, |_, task| {
        let result = eliminate_even(task, kind);
        task.out = Some(result);
    });

    // Collect permanent rows and stage the next level's inputs.
    odd_inputs.clear();
    for s in 0..n_odd {
        let odd = &mut cols[2 * s + 1];
        debug_assert_eq!(odd.orig, plan.odds[s].orig, "plan/chain divergence");
        let mut parts: [Option<(Matrix, Matrix)>; 3] = [None, None, None];
        let (dtilde, evo) = {
            let out_s = tasks[s].out.as_mut().expect("filled above");
            (out_s.dtilde.take(), out_s.resid.take())
        };
        parts[0] = dtilde;
        parts[1] = odd.obs.take();
        let odd_obs_tri = odd.obs_tri && parts[1].is_some();
        // Left-only residual from the *next* even column (the chain's last).
        if s + 1 < n_even {
            parts[2] = tasks[s + 1]
                .out
                .as_mut()
                .expect("filled above")
                .resid_left_only
                .take();
        }
        // lint: allow(alloc, "push into cleared scratch that retains capacity across levels; amortized, steady-state alloc-free")
        odd_inputs.push(OddInput {
            orig: odd.orig,
            dim: odd.dim,
            evo,
            obs_tri: odd_obs_tri,
            parts,
            result: None,
        });
    }
    for task in tasks.iter_mut() {
        let out_s = task.out.as_mut().expect("filled above");
        emit_row(&mut out.rows[task.orig], out_s, level);
        task.out = None;
    }

    // Batch 3: compress each odd column's observation stack in parallel,
    // consuming the staged parts by move.
    for_each_mut(policy, odd_inputs, |_, input| {
        if input.parts.iter().all(Option::is_none) {
            input.result = None;
            return;
        }
        if input.obs_tri {
            // The obs block is already a `dim × dim` triangle, so the
            // compression is one triangular-pentagonal elimination of the
            // dense rows (D̃ and any left-only residual) into it — and the
            // single-dense-part common case moves its block straight in.
            let (mut r, mut rhs_top) = input.parts[1].take().expect("obs_tri implies obs");
            debug_assert_eq!(r.rows(), input.dim);
            let dense0 = input.parts[0].take();
            let dense2 = input.parts[2].take();
            let dstack = match (dense0, dense2) {
                (Some(p), None) | (None, Some(p)) => Some(p),
                (Some(a), Some(b)) => Some(stack_parts(
                    [Some((&a.0, &a.1)), Some((&b.0, &b.1)), None],
                    input.dim,
                    0,
                )),
                (None, None) => None,
            };
            if let Some((mut dstack, mut drhs)) = dstack {
                kalman_dense::qr_tri_stack_applying_with(
                    kind,
                    &mut r,
                    &mut dstack,
                    &mut [(&mut rhs_top, &mut drhs)],
                );
            }
            input.result = Some((r, rhs_top, true));
            return;
        }
        let refs = [
            input.parts[0].as_ref().map(|(m, r)| (m, r)),
            input.parts[1].as_ref().map(|(m, r)| (m, r)),
            input.parts[2].as_ref().map(|(m, r)| (m, r)),
        ];
        let (stack, mut rhs) = stack_parts(refs, input.dim, 0);
        input.parts = [None, None, None];
        input.result = if stack.rows() > input.dim {
            let r = kalman_dense::compress_rows_owned(stack, &mut rhs);
            let kept = r.rows();
            Some((r, rhs.sub_matrix(0, 0, kept, 1), true))
        } else {
            Some((stack, rhs, false))
        };
    });

    next_cols.clear();
    for mut input in odd_inputs.drain(..) {
        let (obs, obs_tri) = match input.result.take() {
            Some((c, rhs, tri)) => (Some((c, rhs)), tri),
            None => (None, false),
        };
        // lint: allow(alloc, "push into cleared scratch that retains capacity across levels; amortized, steady-state alloc-free")
        next_cols.push(LevelCol {
            orig: input.orig,
            dim: input.dim,
            obs,
            obs_tri,
            obs_trap: false,
            evo: input.evo,
        });
    }
    std::mem::swap(cols, next_cols);
}

/// Runs the odd-even QR factorization on borrowed whitened steps.
///
/// The level-0 chain is a copy of the whitened blocks (made in parallel);
/// callers that can give up ownership should prefer
/// [`factor_odd_even_owned`], which builds the chain with moves only.
///
/// `policy` controls the parallel batches.
pub fn factor_odd_even(steps: &[WhitenedStep], policy: ExecPolicy) -> Result<OddEvenR> {
    let owned: Vec<WhitenedStep> = map_collect(policy, steps.len(), |i| steps[i].clone());
    factor_odd_even_owned(owned, policy)
}

/// Runs the odd-even QR factorization, consuming the whitened steps (the
/// level-0 chain is built with pointer moves and an in-place negation of the
/// `B` blocks — no copies of the problem data).
///
/// This is the one-shot form: it plans, factors once and drops the plan.
/// Callers that factor the same shape repeatedly hold a
/// [`crate::SmoothPlan`], which reuses the schedule, the scratch and the
/// output storage.
pub fn factor_odd_even_owned(mut steps: Vec<WhitenedStep>, policy: ExecPolicy) -> Result<OddEvenR> {
    let dims: Vec<usize> = steps.iter().map(|s| s.state_dim).collect();
    let schedule = PlanSchedule::build(&dims);
    let mut out = OddEvenR::default();
    execute_factor(
        &schedule,
        &mut steps,
        policy,
        &mut FactorScratch::default(),
        &mut out,
    )?;
    Ok(out)
}

/// The numeric phase of the odd-even factorization: runs the elimination
/// recursion dictated by `schedule` over `steps` (which must match the
/// schedule's shape — callers have already re-planned if needed), reusing
/// `scratch`'s containers and `out`'s storage.
pub(crate) fn execute_factor(
    schedule: &PlanSchedule,
    steps: &mut Vec<WhitenedStep>,
    policy: ExecPolicy,
    scratch: &mut FactorScratch,
    out: &mut OddEvenR,
) -> Result<()> {
    let k1 = steps.len();
    debug_assert!(schedule.matches_steps(steps), "unplanned shape");
    // Size the output: reuse existing row slots, add/remove as needed, and
    // copy the elimination-order level lists straight from the plan.
    out.rows.truncate(k1);
    while out.rows.len() < k1 {
        // lint: allow(alloc, "grows the reused output to window length once; repeat windows of the same length reuse the row slots")
        out.rows.push(RRow {
            diag: Matrix::zeros(0, 0),
            off: Vec::new(),
            rhs: Matrix::zeros(0, 0),
            level: 0,
        });
    }
    let elim = schedule.elim_levels();
    out.levels.truncate(elim.len());
    while out.levels.len() < elim.len() {
        out.levels.push(Vec::new()); // lint: allow(alloc, "grows the reused output once per new window depth; steady-state windows hit the truncate path")
    }
    for (dst, src) in out.levels.iter_mut().zip(elim) {
        dst.clear();
        dst.extend_from_slice(src);
    }

    // Level-0 chain straight from the whitened model.
    scratch.cols.clear();
    for (i, ws) in steps.drain(..).enumerate() {
        // lint: allow(alloc, "push into cleared scratch that retains capacity across windows; amortized, steady-state alloc-free")
        scratch.cols.push(LevelCol {
            orig: i,
            dim: ws.state_dim,
            obs: ws.obs.map(|o| (o.c, o.rhs)),
            obs_tri: false,
            obs_trap: false,
            evo: ws.evo.map(|e| {
                let mut left = e.b;
                left.scale(-1.0);
                EvoRows {
                    left,
                    right: e.d,
                    rhs: e.rhs,
                }
            }),
        });
    }

    // Plan-time kernel selection, resolved once per execute (demoted to
    // `Auto` under `KALMAN_REF_KERNELS`): every tri-stack below binds the
    // monomorphized body without per-call dispatch.
    let kind = schedule.kernels().active();
    let reference = kalman_dense::reference_kernels();

    // Pre-triangularize every tall-enough observation block (one parallel
    // batch): a QR of `C` alone costs a fraction of the stacked QR it
    // replaces, and afterwards *every* elimination step — not just levels
    // that went through a compression — runs the triangular-pentagonal
    // fast path with short reflectors and no stack/extract copies.  Short
    // blocks (`m < n`) get the trapezoidal reduction instead, so step 1
    // runs the structured [`kalman_dense::qr_trap_stack_applying`] rather
    // than a zero-padded full-height QR (skipped in reference mode, which
    // keeps the padded general path as the oracle).
    for_each_mut(policy.for_len(k1), &mut scratch.cols, |_, col| {
        if let Some((mut c, mut rhs)) = col.obs.take() {
            if c.rows() >= col.dim && col.dim > 0 {
                let qr = QrFactor::new_applying(c, &mut [&mut rhs]);
                let r = qr.r();
                let rhs_top = rhs.sub_matrix(0, 0, col.dim, 1);
                col.obs = Some((r, rhs_top));
                col.obs_tri = true;
            } else if !reference && c.rows() > 0 && c.rows() < col.dim {
                kalman_dense::trapezoidalize_applying(&mut c, &mut [&mut rhs]);
                col.obs = Some((c, rhs));
                col.obs_trap = true;
            } else {
                col.obs = Some((c, rhs));
            }
        }
    });

    for (level, plan) in schedule.plan_levels().iter().enumerate() {
        let _span = kalman_obs::span!("oe.factor.level");
        // The plan's per-level execution decision: levels that fit in one
        // grain run sequentially (no scheduler overhead; bitwise equal).
        let level_policy = policy.for_len(plan.evens.len());
        eliminate_level(plan, scratch, level, level_policy, kind, out);
    }
    // Base case: a single column with observation rows only.
    let root = scratch.cols.pop().expect("non-empty model");
    debug_assert_eq!((root.orig, root.dim), schedule.root(), "plan divergence");
    debug_assert!(
        root.evo.is_none(),
        "first chain column cannot carry evolution rows"
    );
    let (stack, mut rhs) = stack_parts(
        [root.obs.as_ref().map(|(m, r)| (m, r)), None, None],
        root.dim,
        root.dim,
    );
    let qr = QrFactor::new_applying(stack, &mut [&mut rhs]);
    let row = &mut out.rows[root.orig];
    row.diag = qr.r();
    row.off.clear();
    row.rhs = rhs.sub_matrix(0, 0, root.dim, 1);
    row.level = schedule.plan_levels().len();

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

    /// Re-running the factorization through the same scratch and output
    /// (the plan-reuse pattern) must give results identical to a fresh run,
    /// including when the problem shrinks between calls.
    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_state() {
        let mut scratch = FactorScratch::default();
        let mut out = OddEvenR::default();
        for (k, seed) in [(21usize, 61u64), (21, 62), (9, 63), (30, 64)] {
            let model = generators::paper_benchmark(&mut rng(seed), 3, k, true);
            let steps = whiten_model(&model).unwrap();
            let fresh = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
            let mut owned = steps.clone();
            let dims: Vec<usize> = steps.iter().map(|s| s.state_dim).collect();
            let schedule = PlanSchedule::build(&dims);
            execute_factor(
                &schedule,
                &mut owned,
                ExecPolicy::Seq,
                &mut scratch,
                &mut out,
            )
            .unwrap();
            assert!(owned.is_empty());
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

    /// Short (`m < n`) observation blocks take the trapezoidal step-1 path;
    /// it is an orthogonal transformation like the padded general path, so
    /// the Gram matrix is preserved — and the result must agree with the
    /// reference (padded, scalar) path at solve level.
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

    /// The structured trapezoidal path end-to-end against the independent
    /// dense oracle (under `KALMAN_REF_KERNELS=1` the same test pins the
    /// padded reference path instead — the CI matrix runs both).
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
