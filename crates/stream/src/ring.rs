//! The window's block-bidiagonal `R` factor, kept between flushes.
//!
//! A fixed-lag flush is an incremental Paige–Saunders sweep: the forward
//! step ([`InfoHead::step_into`]) runs once per step, after the step stops
//! being the newest, and leaves in a [`Ring`] slot what the downward sweep
//! reads of the step's block row of `R`; every flush then walks down
//! through the ring once, from the newest head to the window's base.
//! [`Ring::eliminate_pending`] is the one routine that runs forward steps.
//! A flush calls it first, for whatever is still pending; a stream's owner
//! may call it earlier, between flushes
//! (`StreamingSmoother::eliminate_pending`, which a serving drain runs on
//! every stream it evolved), so the flush finds the work done.
//! Without covariances a slot keeps the row itself and the walk is a back
//! substitution.  With them it keeps the row's [`SweepTerms`] — computed
//! with the row, from one `R_jj⁻¹` — and the walk forms each step's mean
//! and its block of the bidiagonal SelInv recursion (the paper's
//! Algorithm 1) in the same iteration, so a flush inverts nothing it
//! inverted before and reads each slot once.
//!
//! The sweep's steps — the forward step, the solve on the newest head
//! ([`InfoHead::solve_newest`]) and the per-slot mean and SelInv steps —
//! are `kalman-model`'s, shared with the batch baseline
//! `kalman_seq::paige_saunders_smooth`.  What is the ring's own is the
//! window bookkeeping around them: forgetting, rollback, which
//! covariances a smooth keeps, and the two blocks the rest ping-pong
//! through.  Forgetting a step retires its slot to a spare list, and the
//! next forward step writes into a spare slot's matrices: in steady state
//! a flush checks nothing out of the workspace pool per step.

use kalman_dense::{fixed, tri, Matrix};
use kalman_model::{
    EliminatedRows, InfoHead, KalmanError, LinearStep, Result, SweepTerms, WhitenedEvo, WhitenedObs,
};
use std::collections::VecDeque;

/// One eliminated step of the window: `3n² + 2n` doubles in either kind of
/// ring — the prior (`n² + n`) and what the downward sweep reads of the
/// step's block row of `R` (`2n² + n`): the row itself without covariances,
/// its [`SweepTerms`] with them.
#[derive(Debug, Clone)]
struct Slot {
    /// The prior the step was eliminated against: everything older than
    /// the step, without the step's own observations — what the stream's
    /// head is for the window's base.
    prior: InfoHead,
    /// Whether the data determine the step (see [`InfoHead::eliminate`]);
    /// a solve that reaches a step they do not reports it rank deficient.
    /// `rows` and `terms` are meaningful only when it is `true`.
    determined: bool,
    /// Rings without covariances: the step's block row `R_jj`,
    /// `R_{j,j+1}`, `rhs`.  Empty in a covariance ring, whose forward steps
    /// leave the row in the ring's scratch.
    rows: EliminatedRows,
    /// Covariance rings: the row's sweep terms.  Empty otherwise.
    terms: SweepTerms,
}

impl Default for Slot {
    fn default() -> Slot {
        Slot {
            prior: InfoHead::empty(0),
            determined: false,
            rows: EliminatedRows::default(),
            terms: SweepTerms::default(),
        }
    }
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
    /// decides what a slot keeps.
    covariances: bool,
    /// Forgotten and rolled-back slots, whose matrices the next forward
    /// steps overwrite.
    spare: Vec<Slot>,
    /// The whitened blocks of the step being eliminated, rewritten in place
    /// step after step.
    obs: WhitenedObs,
    evo: WhitenedEvo,
    /// A covariance ring's forward step leaves the block row here, where
    /// the next step overwrites it: its slot keeps the row's terms.
    rows: EliminatedRows,
    /// The two blocks `S_jj` ping-pongs through for the steps whose
    /// covariances a smooth does not keep.
    pair: [Matrix; 2],
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
    /// `covs[j]` is `cov(û_j)` for the `j < len` the smooth was asked to
    /// keep (covariance rings only).
    pub(crate) covs: Vec<Matrix>,
    /// Steps the last smooth covered.
    pub(crate) len: usize,
    /// The downward sweep's working column.
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
            rows: EliminatedRows::default(),
            pair: Default::default(),
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
    /// `out` — every mean, and (in a covariance ring) the covariances of
    /// the first `keep` steps.
    ///
    /// On error the ring may have eliminated more steps than before, which
    /// changes no estimate: the elimination is an orthogonal change of
    /// basis of the same least-squares problem.
    pub(crate) fn smooth(
        &mut self,
        buffer: &[LinearStep],
        base_index: u64,
        keep: usize,
        out: &mut Estimates,
    ) -> Result<()> {
        self.eliminate_pending(buffer, base_index)?;
        let last = self.slots.len();
        let index = (base_index + last as u64) as usize;
        match self.obs.assign_step(&buffer[last], index)? {
            Some(obs) => self.running.absorb_into(obs, &mut self.newest),
            None => self.newest.clone_from(&self.running),
        }
        self.solve_into(base_index, keep, out)
    }

    /// Sizes the slot storage for `slots` eliminated steps, unless it is
    /// sized for as many already; each growth counts in
    /// [`Ring::resizes`].
    pub(crate) fn reserve(&mut self, slots: usize) {
        if slots > self.high_water {
            self.slots.reserve_exact(slots - self.slots.len());
            self.spare
                .reserve_exact(slots.saturating_sub(self.spare.len()));
            self.high_water = slots;
            self.resizes += 1;
        }
    }

    /// The forward sweep over `buffer[slots.len()..buffer.len() - 1]`: each
    /// step is whitened, eliminated and (for covariances) inverted exactly
    /// once in its life, into a spare slot's storage when there is one.
    /// A step that fails stays pending, with every step after it.
    pub(crate) fn eliminate_pending(
        &mut self,
        buffer: &[LinearStep],
        base_index: u64,
    ) -> Result<()> {
        let target = buffer.len() - 1;
        self.reserve(target); // lint: allow(alloc, "grows the slot storage only past its high-water mark: once on a steady cadence")
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
            let obs = self.obs.assign_step(&buffer[j], index)?;
            let mut slot = self.spare.pop().unwrap_or_default();
            let (rows, terms) = if self.covariances {
                (&mut self.rows, Some(slot.terms.parts()))
            } else {
                (&mut slot.rows, None)
            };
            // The next prior lands in the spare slot's head, then trades
            // places with the running one, which is this slot's prior.
            slot.determined = self
                .running
                .step_into(obs, &self.evo, rows, terms, &mut slot.prior);
            std::mem::swap(&mut self.running, &mut slot.prior);
            count(&ELIMINATIONS, "stream.eliminations");
            if self.covariances && slot.determined {
                count(&SLOT_INVERSIONS, "stream.slot_inversions");
            }
            self.slots.push_back(slot);
        }
        Ok(())
    }

    /// The downward sweep from the newest head through the ring, one
    /// iteration per slot: back substitution in a ring without covariances;
    /// in a covariance ring each step's mean `m_j = b_j − X_j m_{j+1}` and
    /// its SelInv block `S_jj = A_j + X_j S_{j+1,j+1} X_jᵀ` together.  Only
    /// the blocks of steps `j < keep` land in `out.covs`; the rest
    /// ping-pong through the ring's two scratch blocks.  Each iteration
    /// takes the fixed-size bodies of [`kalman_dense::fixed`] where the
    /// slot's blocks have their shape, and the general kernels otherwise.
    fn solve_into(&mut self, base_index: u64, keep: usize, out: &mut Estimates) -> Result<()> {
        let last = self.slots.len();
        out.len = last + 1;
        if out.means.len() < out.len {
            out.means.resize_with(out.len, Vec::new);
        }
        let kept = if self.covariances {
            keep.min(out.len)
        } else {
            0
        };
        if out.covs.len() < kept {
            out.covs.resize_with(kept, Matrix::default);
        }
        let [work, next] = &mut self.pair;
        let newest = match self.covariances {
            true if last < kept => Some(&mut out.covs[last]),
            true => Some(&mut *next),
            false => None,
        };
        let state = (base_index + last as u64) as usize;
        self.newest
            .solve_newest(state, &mut out.means[last], &mut out.column, newest)?;
        if !self.covariances {
            let y = &mut out.column;
            for j in (0..last).rev() {
                let state = base_index + j as u64;
                let slot = &self.slots[j];
                if !slot.determined {
                    return Err(rank_deficient(state));
                }
                let rows = &slot.rows;
                let (solved, next) = out.means[j..].split_at_mut(1);
                if fixed::back_substitute(
                    &rows.diag,
                    &rows.off,
                    &rows.rhs,
                    &next[0],
                    &mut solved[0],
                ) {
                    continue;
                }
                y.clone_from(&rows.rhs);
                rows.off.sub_mul_vec_into(&next[0], y.col_mut(0));
                tri::solve_upper_in_place(&rows.diag, y).map_err(|_| rank_deficient(state))?;
                set_mean(&mut solved[0], y);
            }
            return Ok(());
        }
        for j in (0..last).rev() {
            let slot = &self.slots[j];
            if !slot.determined {
                return Err(rank_deficient(base_index + j as u64));
            }
            let terms = &slot.terms;
            let (solved, later) = out.means[j..].split_at_mut(1);
            terms.mean_into(&later[0], &mut solved[0]);
            let xs = &mut out.block;
            if j >= kept {
                terms.selinv_into(next, work, xs);
                std::mem::swap(work, next);
            } else if j + 1 == kept {
                terms.selinv_into(next, &mut out.covs[j], xs);
            } else {
                let (s, later) = out.covs[j..].split_at_mut(1);
                terms.selinv_into(&later[0], &mut s[0], xs);
            }
        }
        Ok(())
    }

    /// Forgets the oldest `count` eliminated steps: the prior stored with
    /// the next one (or the running prior) becomes the window's head.
    pub(crate) fn forget(&mut self, count: usize) {
        self.spare.extend(self.slots.drain(..count)); // lint: allow(alloc, "moves slots into capacity `eliminate_pending` reserved with the ring's high-water mark")
    }

    /// Doubles held by each live and spare slot, for the footprint check.
    #[cfg(test)]
    pub(crate) fn slot_doubles(&self) -> Vec<usize> {
        let len = |m: &Matrix| m.as_slice().len();
        self.slots
            .iter()
            .chain(&self.spare)
            .map(|slot| {
                let (c, d) = slot.prior.rows_ref();
                let (r, t) = (&slot.rows, &slot.terms);
                [c, d, &r.diag, &r.off, &r.rhs, &t.x, &t.a, &t.b]
                    .into_iter()
                    .map(len)
                    .sum()
            })
            .collect()
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

fn set_mean(dst: &mut Vec<f64>, y: &Matrix) {
    dst.clear();
    dst.extend_from_slice(y.col(0));
}

type CounterCell = std::sync::OnceLock<&'static kalman_obs::Counter>;
/// `stream.eliminations`: one per forward step.
static ELIMINATIONS: CounterCell = CounterCell::new();
/// `stream.slot_inversions`: one per computed [`SweepTerms`].
static SLOT_INVERSIONS: CounterCell = CounterCell::new();

/// Bumps the process-wide counter `name` (registered on first use) while
/// the instrumentation is live.
fn count(cell: &CounterCell, name: &str) {
    if kalman_obs::enabled() {
        cell.get_or_init(|| kalman_obs::counter(name)).inc();
    }
}
