//! The window's block-bidiagonal `R` factor, kept between flushes.
//!
//! A fixed-lag flush is an incremental Paige–Saunders sweep: the forward
//! step ([`InfoHead::step_into`]) runs once per step, when the step stops
//! being the newest, and leaves the step's block row of `R` in a [`Ring`]
//! slot; every flush then back-substitutes through the ring for the means
//! and runs the bidiagonal SelInv recursion (the paper's Algorithm 1) for
//! the covariances.  The two factors of that recursion that depend on a
//! block row alone are computed with the row and kept in its slot, so a
//! flush inverts nothing it inverted before.  Forgetting a step retires its
//! slot to a spare list, and the next forward step writes into a spare
//! slot's matrices: in steady state a flush checks nothing out of the
//! workspace pool per step.

use kalman_dense::{effective_rank_tol, fixed, tri, KernelKind, Matrix, QrFactor, Trans};
use kalman_model::{
    EliminatedRows, InfoHead, KalmanError, LinearStep, Result, WhitenedEvo, WhitenedObs,
};
use std::collections::VecDeque;

/// One eliminated step of the window.
///
/// With covariances a slot holds `5n² + 2n` doubles (the prior's `C`, the
/// row's `R_jj` and `R_{j,j+1}`, the two SelInv terms, and the two
/// right-hand sides), `3n² + 2n` without.
#[derive(Debug, Clone)]
struct Slot {
    /// The prior the step was eliminated against: everything older than
    /// the step, without the step's own observations — what the stream's
    /// head is for the window's base.
    prior: InfoHead,
    /// The step's block row of `R`; `None` when the data cannot determine
    /// the step (see [`InfoHead::eliminate`]).
    rows: Option<EliminatedRows>,
    /// The row's SelInv terms: meaningful exactly when `rows` is `Some` and
    /// the ring computes covariances.
    terms: SelinvTerms,
}

impl Default for Slot {
    fn default() -> Slot {
        Slot {
            prior: InfoHead::empty(0),
            rows: None,
            terms: SelinvTerms::default(),
        }
    }
}

/// What the bidiagonal SelInv recursion
/// `S_jj = R_jj⁻¹R_jj⁻ᵀ + X_j S_{j+1,j+1} X_jᵀ` needs of block row `j`.
/// Both are functions of the row alone, and the row never changes once its
/// step is eliminated, so they are computed then — once in the step's life,
/// where recomputing them in every flush that covers the step did it
/// `(lag + flush_every) / flush_every` times — and live in the slot: a ring
/// rebuilt from a snapshot, or re-eliminated after a rollback, recomputes
/// them bitwise with the rows.
#[derive(Debug, Clone, Default)]
struct SelinvTerms {
    /// `X_j = R_jj⁻¹ R_{j,j+1}`.
    x: Matrix,
    /// `A_j = R_jj⁻¹ R_jj⁻ᵀ`.
    a: Matrix,
}

/// The persistent part of a stream's window factorization: one [`Slot`]
/// per eliminated buffered step, oldest first, plus the running prior on
/// the first step not eliminated yet.
///
/// Each slot is a pure function of its prior, the step's observations and
/// the next step's evolution, so a ring rebuilt from a snapshot (the
/// base's prior plus the buffered raw steps) is bitwise the original.
#[derive(Debug, Clone)]
pub(crate) struct Ring {
    slots: VecDeque<Slot>,
    /// Prior on buffered step `slots.len()`.
    running: InfoHead,
    /// The running prior with the newest step's observations absorbed, as
    /// of the last [`Ring::smooth`].
    newest: InfoHead,
    /// Whether smooths estimate covariances (a constant of the stream):
    /// decides at elimination whether a slot gets its [`SelinvTerms`].
    covariances: bool,
    /// Forgotten and rolled-back slots, whose matrices the next forward
    /// steps overwrite.
    spare: Vec<Slot>,
    /// The whitened blocks of the step being eliminated, rewritten in place
    /// step after step.
    obs: WhitenedObs,
    evo: WhitenedEvo,
    /// Longest run of slots the storage has been sized for.
    high_water: usize,
    /// Times `high_water` grew.
    resizes: u64,
}

/// Estimates of one window smooth.  Storage persists at its high-water
/// mark so windows whose length oscillates re-smooth without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct Estimates {
    /// `means[j]` estimates buffered step `j < len`.
    pub(crate) means: Vec<Vec<f64>>,
    /// `covs[j]` is `cov(û_j)` for `j < len` (covariance rings only).
    pub(crate) covs: Vec<Matrix>,
    /// Steps the last smooth covered.
    pub(crate) len: usize,
    /// The back substitution's working column.
    column: Matrix,
    /// The SelInv recursion's working block `X_j S_{j+1,j+1}`.
    block: Matrix,
}

fn rank_deficient(state: u64) -> KalmanError {
    KalmanError::RankDeficient {
        state: state as usize,
    }
}

impl Ring {
    /// An empty ring in front of a window whose base has prior `head`;
    /// `covariances` says whether its smooths estimate them.
    pub(crate) fn new(head: InfoHead, covariances: bool) -> Ring {
        Ring {
            slots: VecDeque::new(),
            newest: InfoHead::empty(head.state_dim()),
            running: head,
            covariances,
            spare: Vec::new(),
            obs: WhitenedObs::default(),
            evo: WhitenedEvo::default(),
            high_water: 0,
            resizes: 0,
        }
    }

    /// The prior on the window's base step.
    pub(crate) fn head(&self) -> &InfoHead {
        self.slots.front().map_or(&self.running, |s| &s.prior)
    }

    /// Number of eliminated steps.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Times the slot storage was (re)sized.
    pub(crate) fn resizes(&self) -> u64 {
        self.resizes
    }

    /// The head on the newest step, its observations included, as of the
    /// last [`Ring::smooth`].
    pub(crate) fn newest(&self) -> &InfoHead {
        &self.newest
    }

    /// Smooths the window `buffer` (whose base has global index
    /// `base_index`): eliminates every step that is no longer the newest
    /// and not eliminated yet, then solves for all buffered steps into
    /// `out`.
    ///
    /// On error the ring may have eliminated more steps than before, which
    /// changes no estimate: the elimination is an orthogonal change of
    /// basis of the same least-squares problem.
    pub(crate) fn smooth(
        &mut self,
        buffer: &[LinearStep],
        base_index: u64,
        out: &mut Estimates,
    ) -> Result<()> {
        self.eliminate_pending(buffer, base_index)?;
        let last = self.slots.len();
        let index = (base_index + last as u64) as usize;
        match whitened(&mut self.obs, &buffer[last], index)? {
            Some(obs) => self.running.absorb_into(obs, &mut self.newest),
            None => self.newest.clone_from(&self.running),
        }
        self.solve_into(base_index, out)
    }

    /// The forward sweep over `buffer[slots.len()..buffer.len() - 1]`: each
    /// step is whitened, eliminated and (for covariances) inverted exactly
    /// once in its life, into a spare slot's storage when there is one.
    fn eliminate_pending(&mut self, buffer: &[LinearStep], base_index: u64) -> Result<()> {
        let target = buffer.len() - 1;
        if target > self.high_water {
            self.slots.reserve_exact(target - self.slots.len());
            self.spare
                .reserve_exact(target.saturating_sub(self.spare.len()));
            self.high_water = target;
            self.resizes += 1;
        }
        for j in self.slots.len()..target {
            let index = (base_index + j as u64) as usize;
            let next = &buffer[j + 1];
            let evolution = next.evolution.as_ref().ok_or_else(|| {
                // lint: allow(alloc, "error path: a non-base step without an evolution violates a maintained invariant")
                KalmanError::InvalidModel(format!(
                    "step {} is missing its evolution equation",
                    index + 1
                ))
            })?;
            self.evo.assign(evolution, next.state_dim, index + 1)?;
            let obs = whitened(&mut self.obs, &buffer[j], index)?;
            let mut slot = self.spare.pop().unwrap_or_default();
            let terms = &mut slot.terms;
            // The next prior lands in the spare slot's head, then trades
            // places with the running one, which is this slot's prior.
            self.running.step_into(
                obs,
                &self.evo,
                &mut slot.rows,
                self.covariances.then_some((&mut terms.x, &mut terms.a)),
                &mut slot.prior,
            );
            std::mem::swap(&mut self.running, &mut slot.prior);
            count(&ELIMINATIONS, "stream.eliminations");
            if self.covariances && slot.rows.is_some() {
                count(&SLOT_INVERSIONS, "stream.slot_inversions");
            }
            self.slots.push_back(slot);
        }
        Ok(())
    }

    /// Back substitution from the newest head through the ring, then (in a
    /// covariance ring) the bidiagonal SelInv recursion.  Both downward
    /// loops take the fixed-size bodies of [`kalman_dense::fixed`] slot by
    /// slot where the slot's blocks have their shape, and the general
    /// kernels otherwise.
    fn solve_into(&self, base_index: u64, out: &mut Estimates) -> Result<()> {
        let last = self.slots.len();
        out.len = last + 1;
        if out.means.len() < out.len {
            out.means.resize_with(out.len, Vec::new);
        }
        // The newest step has no successor: solve on its head, which is
        // already a square upper triangle whenever the step is observed.
        let (c, d) = self.newest.rows_ref();
        let state = base_index + last as u64;
        if c.rows() < c.cols() {
            return Err(rank_deficient(state));
        }
        let y = &mut out.column;
        y.clone_from(d);
        let triangle = if c.is_square() && c.is_upper_triangular() {
            let tol = effective_rank_tol(c, c.rows());
            if (0..c.rows()).any(|j| c[(j, j)].abs() <= tol) {
                return Err(rank_deficient(state));
            }
            tri::solve_upper_in_place(c, y).map_err(|_| rank_deficient(state))?;
            None
        } else {
            let qr = QrFactor::new_applying(c.clone(), &mut [&mut *y]); // lint: allow(alloc, "pooled matrix of one state's size")
            qr.solve_r_in_place(y).map_err(|_| rank_deficient(state))?;
            Some(qr.r())
        };
        set_mean(&mut out.means[last], y);
        for j in (0..last).rev() {
            let state = base_index + j as u64;
            let rows = self.slots[j].rows.as_ref().ok_or(rank_deficient(state))?;
            let (solved, next) = out.means[j..].split_at_mut(1);
            if fixed::back_substitute(&rows.diag, &rows.off, &rows.rhs, &next[0], &mut solved[0]) {
                continue;
            }
            y.clone_from(&rows.rhs);
            rows.off.sub_mul_vec_into(&next[0], y.col_mut(0));
            tri::solve_upper_in_place(&rows.diag, y).map_err(|_| rank_deficient(state))?;
            set_mean(&mut solved[0], y);
        }
        if !self.covariances {
            return Ok(());
        }
        if out.covs.len() < out.len {
            out.covs.resize_with(out.len, Matrix::default);
        }
        // S_kk = R_kk⁻¹ R_kk⁻ᵀ, then for j = k−1 … 0, from the slot's terms
        // X_j = R_jj⁻¹ R_{j,j+1} and A_j = R_jj⁻¹ R_jj⁻ᵀ:
        // S_jj = A_j + X_j S_{j+1,j+1} X_jᵀ.  Every slot below has a row (the
        // loop above checked), so its terms are there.
        out.covs[last] = tri::inv_gram_upper(triangle.as_ref().unwrap_or(c))
            .map_err(|_| rank_deficient(state))?;
        let gemm = KernelKind::for_dim(c.cols()).gemm();
        let xs = &mut out.block;
        for j in (0..last).rev() {
            let terms = &self.slots[j].terms;
            let (s, next) = out.covs[j..].split_at_mut(1);
            if fixed::selinv_step(&terms.x, &terms.a, &next[0], &mut s[0]) {
                continue;
            }
            xs.clone_from(&terms.x); // shapes the block; β = 0 overwrites it
            gemm(1.0, &terms.x, Trans::No, &next[0], Trans::No, 0.0, xs);
            s[0].clone_from(&terms.a);
            gemm(1.0, xs, Trans::No, &terms.x, Trans::Yes, 1.0, &mut s[0]);
            s[0].symmetrize();
        }
        Ok(())
    }

    /// Forgets the oldest `count` eliminated steps: the prior stored with
    /// the next one (or the running prior) becomes the window's head.
    pub(crate) fn forget(&mut self, count: usize) {
        self.spare.extend(self.slots.drain(..count)); // lint: allow(alloc, "moves slots into capacity `eliminate_pending` reserved with the ring's high-water mark")
    }

    /// Rolls eliminations back until at most `steps` remain, restoring
    /// each popped slot's stored prior as the running prior.
    pub(crate) fn rollback_to(&mut self, steps: usize) {
        while self.slots.len() > steps {
            if let Some(mut slot) = self.slots.pop_back() {
                std::mem::swap(&mut self.running, &mut slot.prior);
                self.spare.push(slot);
            }
        }
    }
}

/// `step`'s observation, whitened into `scratch`.
fn whitened<'a>(
    scratch: &'a mut WhitenedObs,
    step: &LinearStep,
    index: usize,
) -> Result<Option<&'a WhitenedObs>> {
    match &step.observation {
        Some(obs) => {
            scratch.assign(obs, index)?;
            Ok(Some(scratch))
        }
        None => Ok(None),
    }
}

fn set_mean(dst: &mut Vec<f64>, y: &Matrix) {
    dst.clear();
    dst.extend_from_slice(y.col(0));
}

type CounterCell = std::sync::OnceLock<&'static kalman_obs::Counter>;
/// `stream.eliminations`: one per forward step.
static ELIMINATIONS: CounterCell = CounterCell::new();
/// `stream.slot_inversions`: one per computed [`SelinvTerms`].
static SLOT_INVERSIONS: CounterCell = CounterCell::new();

/// Bumps the process-wide counter `name` (registered on first use) while
/// the instrumentation is live.
fn count(cell: &CounterCell, name: &str) {
    if kalman_obs::enabled() {
        cell.get_or_init(|| kalman_obs::counter(name)).inc();
    }
}
