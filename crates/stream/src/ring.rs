//! The window's block-bidiagonal `R` factor, kept between flushes.
//!
//! A fixed-lag flush is an incremental Paige–Saunders sweep: the forward
//! elimination ([`InfoHead::eliminate`]) runs once per step, when the step
//! stops being the newest, and leaves the step's block row of `R` in a
//! [`Ring`] slot; every flush then back-substitutes through the ring for
//! the means and runs the bidiagonal SelInv recursion (the paper's
//! Algorithm 1) for the covariances.  Forgetting a step drops its slot.

use kalman_dense::{gemm, matmul, tri, Matrix, QrFactor, Trans};
use kalman_model::{EliminatedRows, InfoHead, KalmanError, LinearStep, Result, WhitenedEvo};
use std::collections::VecDeque;

/// One eliminated step of the window.
#[derive(Debug, Clone)]
struct Slot {
    /// The prior the step was eliminated against: everything older than
    /// the step, without the step's own observations — what the stream's
    /// head is for the window's base.
    prior: InfoHead,
    /// The step's block row of `R`; `None` when the data cannot determine
    /// the step (see [`InfoHead::eliminate`]).
    rows: Option<EliminatedRows>,
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
    /// `covs[j]` is `cov(û_j)` for `j < len` (when requested).
    pub(crate) covs: Vec<Matrix>,
    /// Steps the last smooth covered.
    pub(crate) len: usize,
}

fn rank_deficient(state: u64) -> KalmanError {
    KalmanError::RankDeficient {
        state: state as usize,
    }
}

impl Ring {
    /// An empty ring in front of a window whose base has prior `head`.
    pub(crate) fn new(head: InfoHead) -> Ring {
        Ring {
            slots: VecDeque::new(),
            running: head,
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

    /// Smooths the window `buffer` (whose base has global index
    /// `base_index`): eliminates every step that is no longer the newest
    /// and not eliminated yet, then solves for all buffered steps into
    /// `out`.  Returns the head on the newest step, its observations
    /// included.
    ///
    /// On error the ring may have eliminated more steps than before, which
    /// changes no estimate: the elimination is an orthogonal change of
    /// basis of the same least-squares problem.
    pub(crate) fn smooth(
        &mut self,
        buffer: &[LinearStep],
        base_index: u64,
        covariances: bool,
        out: &mut Estimates,
    ) -> Result<InfoHead> {
        self.eliminate_pending(buffer, base_index)?;
        let last = self.slots.len();
        let newest = self.posterior(&buffer[last], (base_index + last as u64) as usize)?;
        self.solve_into(&newest, base_index, covariances, out)?;
        Ok(newest)
    }

    /// The running prior with `step`'s own observations absorbed.
    fn posterior(&self, step: &LinearStep, index: usize) -> Result<InfoHead> {
        let mut head = self.running.clone(); // lint: allow(alloc, "two pooled matrices of one state's size")
        if let Some(obs) = &step.observation {
            head.absorb_observation(obs, index)?;
        }
        Ok(head)
    }

    /// The forward sweep over `buffer[slots.len()..buffer.len() - 1]`: each
    /// step is whitened and eliminated exactly once in its life.
    fn eliminate_pending(&mut self, buffer: &[LinearStep], base_index: u64) -> Result<()> {
        let target = buffer.len() - 1;
        if target > self.high_water {
            self.slots.reserve_exact(target - self.slots.len());
            self.high_water = target;
            self.resizes += 1;
        }
        for j in self.slots.len()..target {
            let index = (base_index + j as u64) as usize;
            let posterior = self.posterior(&buffer[j], index)?;
            let next = &buffer[j + 1];
            let evolution = next.evolution.as_ref().ok_or_else(|| {
                // lint: allow(alloc, "error path: a non-base step without an evolution violates a maintained invariant")
                KalmanError::InvalidModel(format!(
                    "step {} is missing its evolution equation",
                    index + 1
                ))
            })?;
            let evo = WhitenedEvo::from_evolution(evolution, next.state_dim, index + 1)?;
            let (rows, running) = posterior.eliminate(&evo);
            let prior = std::mem::replace(&mut self.running, running);
            self.slots.push_back(Slot { prior, rows });
            count_elimination();
        }
        Ok(())
    }

    /// Back substitution from `newest` through the ring, then (with
    /// `covariances`) the bidiagonal SelInv recursion.
    fn solve_into(
        &self,
        newest: &InfoHead,
        base_index: u64,
        covariances: bool,
        out: &mut Estimates,
    ) -> Result<()> {
        let last = self.slots.len();
        out.len = last + 1;
        if out.means.len() < out.len {
            out.means.resize_with(out.len, Vec::new);
        }
        // The newest step has no successor: triangularize its head.
        let (c, d) = newest.rows_ref();
        let state = base_index + last as u64;
        if c.rows() < c.cols() {
            return Err(rank_deficient(state));
        }
        let mut y = d.clone(); // lint: allow(alloc, "pooled column of one state's size")
        let qr = QrFactor::new_applying(c.clone(), &mut [&mut y]); // lint: allow(alloc, "pooled matrix of one state's size")
        qr.solve_r_in_place(&mut y)
            .map_err(|_| rank_deficient(state))?;
        set_mean(&mut out.means[last], &y);
        for j in (0..last).rev() {
            let state = base_index + j as u64;
            let rows = self.slots[j].rows.as_ref().ok_or(rank_deficient(state))?;
            let mut y = rows.rhs.clone(); // lint: allow(alloc, "pooled column of one state's size")
            rows.off.sub_mul_vec_into(&out.means[j + 1], y.col_mut(0));
            tri::solve_upper_in_place(&rows.diag, &mut y).map_err(|_| rank_deficient(state))?;
            set_mean(&mut out.means[j], &y);
        }
        if !covariances {
            return Ok(());
        }
        if out.covs.len() < out.len {
            out.covs.resize_with(out.len, || Matrix::zeros(0, 0));
        }
        // S_kk = R_kk⁻¹ R_kk⁻ᵀ, then for j = k−1 … 0 with
        // X = R_jj⁻¹ R_{j,j+1}:  S_jj = R_jj⁻¹ R_jj⁻ᵀ + X S_{j+1,j+1} Xᵀ.
        out.covs[last] = tri::inv_gram_upper(&qr.r()).map_err(|_| rank_deficient(state))?;
        for j in (0..last).rev() {
            let state = base_index + j as u64;
            let rows = self.slots[j].rows.as_ref().ok_or(rank_deficient(state))?;
            let mut x = rows.off.clone(); // lint: allow(alloc, "pooled matrix of one state's size")
            tri::solve_upper_in_place(&rows.diag, &mut x).map_err(|_| rank_deficient(state))?;
            let xs = matmul(&x, &out.covs[j + 1]);
            let mut s = tri::inv_gram_upper(&rows.diag).map_err(|_| rank_deficient(state))?;
            gemm(1.0, &xs, Trans::No, &x, Trans::Yes, 1.0, &mut s);
            s.symmetrize();
            out.covs[j] = s;
        }
        Ok(())
    }

    /// Forgets the oldest `count` eliminated steps: the prior stored with
    /// the next one (or the running prior) becomes the window's head.
    pub(crate) fn forget(&mut self, count: usize) {
        self.slots.drain(..count);
    }

    /// Rolls eliminations back until at most `steps` remain, restoring
    /// each popped slot's stored prior as the running prior.
    pub(crate) fn rollback_to(&mut self, steps: usize) {
        while self.slots.len() > steps {
            if let Some(slot) = self.slots.pop_back() {
                self.running = slot.prior;
            }
        }
    }
}

fn set_mean(dst: &mut Vec<f64>, y: &Matrix) {
    dst.clear();
    dst.extend_from_slice(y.col(0));
}

/// `stream.eliminations`: one per forward step.
fn count_elimination() {
    static COUNTER: std::sync::OnceLock<&'static kalman_obs::Counter> = std::sync::OnceLock::new();
    if kalman_obs::enabled() {
        COUNTER
            .get_or_init(|| kalman_obs::counter("stream.eliminations"))
            .inc();
    }
}
