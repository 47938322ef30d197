//! Incremental model building for streaming smoothers.
//!
//! A streaming smoother never sees a complete [`LinearModel`]; it receives
//! steps one at a time, keeps a bounded *window* of recent steps, and
//! condenses everything older into an [`InfoHead`] — a single whitened block
//! row `C u_b ≈ d` on the window's first state, obtained as the leading
//! block of the `R` factor of the forgotten prefix.  This module provides:
//!
//! * [`InfoHead`]: the condensed prior and the orthogonal-transformation
//!   updates that maintain it — [`InfoHead::absorb`] for observation rows
//!   and [`InfoHead::eliminate`], one forward step of the sequential
//!   Paige–Saunders sweep (a square-root information filter step), which
//!   marginalizes a state out through its evolution and hands back both the
//!   head on the next state and the [`EliminatedRows`] the state leaves in
//!   the block-bidiagonal `R` factor ([`InfoHead::advance`] is the same step
//!   for callers that only want the head), and [`InfoHead::step_into`], the
//!   two chained — with the row's [`crate::SweepTerms`], if wanted — into
//!   storage the caller keeps: the forward half of the sweep both a
//!   streaming flush and the batch Paige–Saunders smoother run (the
//!   downward half, [`InfoHead::solve_newest`] and the per-row steps, sits
//!   beside it in this crate);
//! * [`StreamEvent`] and [`events_of`]: a replayable event form of a model,
//!   used to feed batch problems through streaming ingestion in tests and
//!   benchmarks.

use crate::{LinearModel, Observation, Prior, Result, WhitenedEvo, WhitenedObs};
use kalman_dense::{
    compress_rows_owned, effective_rank_tol, fixed, qr_tri_stack_applying, tri, ColPivQr, Matrix,
    QrFactor,
};

/// A whitened information block row `C u ≈ d` (noise implicitly `I`) on a
/// single state: the "R-factor head" summarizing everything a stream has
/// forgotten.
///
/// `C` has at most `state_dim` rows ([`InfoHead::absorb`] re-triangularizes
/// with a QR compression), so a head costs `O(n²)` memory regardless of how
/// much history it summarizes.  A head may have *fewer* rows than columns —
/// a stream with no prior starts from the 0-row head and stays
/// under-determined until enough observations arrive.
#[derive(Debug)]
pub struct InfoHead {
    /// Whitened coefficient rows (`r × n`, `r ≤ n`).
    c: Matrix,
    /// Whitened right-hand side (`r × 1`).
    d: Matrix,
}

impl Clone for InfoHead {
    fn clone(&self) -> Self {
        InfoHead {
            c: self.c.clone(),
            d: self.d.clone(),
        }
    }

    /// Copies into `self`'s storage instead of replacing it.
    fn clone_from(&mut self, source: &Self) {
        self.c.clone_from(&source.c);
        self.d.clone_from(&source.d);
    }
}

/// The block row a state leaves in the block-bidiagonal `R` factor when
/// [`InfoHead::eliminate`] marginalizes it out:
/// `R_jj u_j + R_{j,j+1} u_{j+1} = rhs_j` recovers `u_j` from its
/// successor by back substitution.
#[derive(Debug, Clone, Default)]
pub struct EliminatedRows {
    /// `R_jj`: square upper triangular with no negligible diagonal entry.
    pub diag: Matrix,
    /// `R_{j,j+1}` (`n_j × n_{j+1}`).
    pub off: Matrix,
    /// The transformed right-hand-side segment (`n_j × 1`).
    pub rhs: Matrix,
}

impl InfoHead {
    /// The empty head (no information) on a state of dimension `n`.
    pub fn empty(state_dim: usize) -> Self {
        InfoHead {
            c: Matrix::zeros(0, state_dim),
            d: Matrix::zeros(0, 1),
        }
    }

    /// A head equivalent to a Gaussian prior (its whitened row block).
    ///
    /// # Errors
    ///
    /// [`crate::KalmanError::NotPositiveDefinite`] if the prior covariance is not
    /// SPD.
    pub fn from_prior(prior: &Prior) -> Result<Self> {
        let mut c = Matrix::identity(prior.mean.len());
        let mut d = Matrix::col_from_slice(&prior.mean);
        prior.cov.whiten_in_place(&mut [&mut c, &mut d], 0)?;
        Ok(InfoHead { c, d })
    }

    /// A head from raw whitened rows `C u ≈ d`, taken as given: the
    /// stream layer checks a head's shape and entries where it enters a
    /// stream (`kalman_stream::WindowSnapshot::validate`), so a malformed
    /// head is refused with a typed error there rather than a panic here.
    pub fn from_rows(c: Matrix, d: Matrix) -> Self {
        InfoHead { c, d }
    }

    /// Dimension of the state the head constrains.
    pub fn state_dim(&self) -> usize {
        self.c.cols()
    }

    /// Number of information rows (`≤ state_dim`).
    pub fn rows(&self) -> usize {
        self.c.rows()
    }

    /// `true` when the head carries no information.
    pub fn is_empty(&self) -> bool {
        self.c.rows() == 0
    }

    /// The head's whitened rows, `(C, d)`.
    pub fn rows_ref(&self) -> (&Matrix, &Matrix) {
        (&self.c, &self.d)
    }

    /// Consumes the head into its whitened rows, `(C, d)`.
    pub fn into_rows(self) -> (Matrix, Matrix) {
        (self.c, self.d)
    }

    /// Stacks additional whitened rows `c·u ≈ d` under the head and
    /// re-triangularizes so at most `state_dim` rows remain.  The discarded
    /// rows are pure least-squares residual (zero coefficients), so the
    /// normal equations `CᵀC`, `Cᵀd` — hence every downstream estimate —
    /// are preserved exactly.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn absorb(&mut self, c: &Matrix, d: &Matrix) {
        assert_eq!(c.cols(), self.state_dim(), "absorb dimension mismatch");
        assert_eq!(c.rows(), d.rows(), "absorb row mismatch");
        if c.rows() == 0 {
            return;
        }
        *self = self.with_rows(c, d);
    }

    /// The head on `self`'s rows with `c·u ≈ d` stacked under them.
    fn with_rows(&self, c: &Matrix, d: &Matrix) -> InfoHead {
        InfoHead::condensed(Matrix::vstack(&[&self.c, c]), Matrix::vstack(&[&self.d, d]))
    }

    /// The head on rows `c·u ≈ d`, QR-compressed when there are more rows
    /// than columns.
    fn condensed(c: Matrix, mut d: Matrix) -> InfoHead {
        let n = c.cols();
        if c.rows() <= n {
            return InfoHead { c, d };
        }
        let c = compress_rows_owned(c, &mut d);
        InfoHead {
            c,
            d: d.sub_matrix(0, 0, n, 1),
        }
    }

    /// Absorbs a (raw) observation of the head's state.
    ///
    /// # Errors
    ///
    /// [`crate::KalmanError::NotPositiveDefinite`] if the observation noise is not
    /// SPD (`step` names the step for the error message).
    pub fn absorb_observation(&mut self, obs: &Observation, step: usize) -> Result<()> {
        *self = self.with_observation(obs, step)?;
        Ok(())
    }

    /// [`InfoHead::absorb_observation`] into a new head: `self` stays the
    /// prior, the result is the posterior, and no copy of the prior is made
    /// on the way (the streaming sweep keeps both).
    ///
    /// # Errors
    ///
    /// As [`InfoHead::absorb_observation`].
    ///
    /// # Panics
    ///
    /// Panics if the observation is not of the head's state.
    pub fn with_observation(&self, obs: &Observation, step: usize) -> Result<InfoHead> {
        let whitened = WhitenedObs::from_observation(obs, step)?;
        Ok(self.with_rows(&whitened.c, &whitened.rhs))
    }

    /// [`InfoHead::with_observation`] on already whitened rows, into a head
    /// the caller keeps: `out` becomes the posterior and its storage is
    /// reused.  Takes the fixed-size body of [`kalman_dense::fixed`] when
    /// the blocks have its shape — a full square head absorbing `n` rows at
    /// `n ∈ {4, 8}` — and the stacked QR compression otherwise; which one is
    /// a function of the shapes alone.
    ///
    /// # Panics
    ///
    /// Panics if the observation is not of the head's state.
    pub fn absorb_into(&self, obs: &WhitenedObs, out: &mut InfoHead) {
        assert_eq!(obs.c.cols(), self.state_dim(), "absorb dimension mismatch");
        let head = (&self.c, &self.d);
        if !fixed::absorb_step(head, (&obs.c, &obs.rhs), (&mut out.c, &mut out.d)) {
            *out = self.with_rows(&obs.c, &obs.rhs);
        }
    }

    /// One whole forward step of the streaming sweep, into storage the
    /// caller keeps: absorb `obs` (when the state is observed), eliminate
    /// through `evo`, and — when `terms` is given (see
    /// [`crate::SweepTerms::parts`]) — form what the downward sweep reads of
    /// the block row, so that the row itself need not be kept: `X = R_jj⁻¹ R_{j,j+1}`,
    /// `A = R_jj⁻¹ R_jj⁻ᵀ` and `b = R_jj⁻¹ rhs`, from which
    /// `m_j = b − X m_{j+1}` and `S_jj = A + X S_{j+1,j+1} Xᵀ`.  Returns
    /// whether the data determine the state: on `true`, `rows` is what
    /// [`InfoHead::eliminate`] on the posterior returns first and `terms`
    /// are meaningful; on `false` neither is.  `next` is what it returns
    /// second, either way.  Matrices already in `rows`, `terms` and `next`
    /// donate their storage.
    ///
    /// Which arithmetic runs is a function of the inputs alone, as in
    /// [`InfoHead::eliminate`].  A full square head that absorbs `n`
    /// observation rows and evolves through `n` rows, `n ∈ {4, 8}` — the
    /// steady state of a stream observed through a square `G` — takes
    /// [`kalman_dense::fixed::forward_step`]: the same Householder
    /// eliminations as the general bodies, with `R_jj` inverted once for
    /// all three terms, on stack-resident columns and in one call.  That body
    /// applies the rank test of [`InfoHead::eliminate`] to the same `R_jj`
    /// and declines a factor that fails it; every such step, and every other
    /// shape, runs [`InfoHead::with_observation`]'s compression,
    /// [`InfoHead::eliminate`] and the triangular solves, from the same
    /// untouched inputs.
    ///
    /// # Panics
    ///
    /// Panics if the observation is not of the head's state.
    pub fn step_into(
        &self,
        obs: Option<&WhitenedObs>,
        evo: &WhitenedEvo,
        rows: &mut EliminatedRows,
        mut terms: Option<(&mut Matrix, &mut Matrix, &mut Matrix)>,
        next: &mut InfoHead,
    ) -> bool {
        if let Some(obs) = obs {
            assert_eq!(obs.c.cols(), self.state_dim(), "absorb dimension mismatch");
            if fixed::forward_step(
                (&self.c, &self.d),
                (&obs.c, &obs.rhs),
                (&evo.b, &evo.d, &evo.rhs),
                (&mut rows.diag, &mut rows.off, &mut rows.rhs),
                (&mut next.c, &mut next.d),
                terms
                    .as_mut()
                    .map(|(x, a, b)| (&mut **x, &mut **a, &mut **b)),
            ) {
                return true;
            }
        }
        let posterior = obs.map(|obs| self.with_rows(&obs.c, &obs.rhs));
        let (kept, head) = posterior.as_ref().unwrap_or(self).eliminate(evo);
        *next = head;
        let Some(kept) = kept else {
            return false;
        };
        *rows = kept;
        let Some((x, a, b)) = terms else {
            return true;
        };
        // The diagonal has passed the effective-rank test, so no solve meets
        // a zero pivot; if one did, the state would surface as rank
        // deficient like any state without a row.
        x.clone_from(&rows.off);
        b.clone_from(&rows.rhs);
        let inverted = tri::solve_upper_in_place(&rows.diag, x)
            .and_then(|()| tri::solve_upper_in_place(&rows.diag, b))
            .and_then(|()| tri::inv_gram_upper(&rows.diag));
        match inverted {
            Ok(gram) => {
                *a = gram;
                true
            }
            Err(_) => false,
        }
    }

    /// Marginalizes the head's state out through the whitened evolution
    /// connecting it to the next state: one forward step of the sequential
    /// Paige–Saunders sweep (a square-root information filter step).
    /// QR-eliminates the current state's columns from
    ///
    /// ```text
    /// [ C   0 | d ]      (the head)
    /// [-B   D | r ]      (whitened evolution rows, as in §3 of the paper)
    /// ```
    ///
    /// and returns the top `n_cur` transformed rows — the state's permanent
    /// block row of `R`, from which back substitution recovers it — together
    /// with the head on the next state, condensed from the rows below.
    ///
    /// The rows are `None` when `[C; -B]` does not determine the current
    /// state (fewer rows than columns, or a negligible diagonal entry of
    /// its triangular factor): no later data can change that, so a solve
    /// reaching this state reports it as rank deficient.  The head is then
    /// condensed by a *rank-revealing* (column-pivoted) QR instead: only
    /// the top `rank([C; -B])` rows of the transformed system involve the
    /// marginalized state, so exactly those are dropped and everything
    /// below survives as the marginal on the next state.  Dropping a fixed
    /// `n_cur` rows would be wrong there — an underdetermined head advanced
    /// through a singular evolution (`F` with a zero row, a stream with no
    /// prior): the evolution rows acting on `ker F` carry information about
    /// the *next* state only, and sit below the eliminated block's rank.
    ///
    /// Which arithmetic runs is read off the head's own entries, so it is a
    /// function of the inputs alone (a head restored from a snapshot takes
    /// the path the original took).  When `C` is a square upper triangle —
    /// what [`InfoHead::absorb`] leaves on every observed step — and the
    /// evolution has rows, the stack `[C; -B]` has the triangular-pentagonal
    /// shape and is eliminated in place by [`qr_tri_stack_applying`]:
    /// reflectors of length `1 + ℓ` instead of `n + ℓ − j`, nothing stacked
    /// and nothing cut out — the transformed tops *are* `R_jj`,
    /// `R_{j,j+1}` and the rhs segment, the bottoms *are* the next head.
    /// Every other head (fewer than `n` rows while a no-prior stream warms
    /// up, the dense square head an unobserved step leaves, a triangular
    /// one whose factor fails the rank test) goes through the stacked
    /// general QR and, rank deficient, the column-pivoted one: those bodies
    /// stay because they are the only ones that run on such inputs.
    pub fn eliminate(&self, evo: &WhitenedEvo) -> (Option<EliminatedRows>, InfoHead) {
        let n_cur = self.state_dim();
        let n_next = evo.d.cols();
        debug_assert_eq!(evo.b.cols(), n_cur, "eliminate dimension mismatch");
        if let Some((kept, next)) = self.eliminate_triangular(evo) {
            return (Some(kept), next);
        }
        let (mut stack, mut companion) = self.stacked_with(evo);
        let rows = stack.rows();
        if rows >= n_cur {
            let diag = QrFactor::new_applying(stack, &mut [&mut companion]).r();
            if has_full_rank(&diag, rows) {
                let kept = EliminatedRows {
                    diag,
                    off: companion.sub_matrix(0, 0, n_cur, n_next),
                    rhs: companion.sub_matrix(0, n_next, n_cur, 1),
                };
                return (Some(kept), InfoHead::below(&companion, n_cur));
            }
            (stack, companion) = self.stacked_with(evo);
        }
        let qr = ColPivQr::new(stack);
        let rank = qr.rank();
        if rank >= rows {
            // The eliminated state absorbs every row: no information flows
            // forward.
            return (None, InfoHead::empty(n_next));
        }
        // The pivoting permutes only the eliminated state's columns, which
        // are discarded wholesale, so the companion needs no permutation.
        qr.apply_qt(&mut companion);
        (None, InfoHead::below(&companion, rank))
    }

    /// The structured body of [`InfoHead::eliminate`]; `None` when the head
    /// is not a square upper triangle, the evolution has no rows, or the
    /// triangular factor fails the rank test.
    fn eliminate_triangular(&self, evo: &WhitenedEvo) -> Option<(EliminatedRows, InfoHead)> {
        let n = self.state_dim();
        if self.c.rows() != n || evo.b.rows() == 0 || !self.c.is_upper_triangular() {
            return None;
        }
        // The kernel works in place: its six blocks are pooled copies.
        let mut diag = self.c.clone(); // lint: allow(alloc, "pooled matrix of one state's size")
        let mut below = -&evo.b;
        let mut off = Matrix::zeros(n, evo.d.cols());
        let mut rhs = self.d.clone(); // lint: allow(alloc, "pooled column of one state's size")
        let mut next_c = evo.d.clone(); // lint: allow(alloc, "pooled matrix of one state's size")
        let mut next_d = evo.rhs.clone(); // lint: allow(alloc, "pooled column of one state's size")
        qr_tri_stack_applying(
            &mut diag,
            &mut below,
            &mut [(&mut off, &mut next_c), (&mut rhs, &mut next_d)],
        );
        has_full_rank(&diag, n + below.rows()).then(|| {
            let next = InfoHead::condensed(next_c, next_d);
            (EliminatedRows { diag, off, rhs }, next)
        })
    }

    /// [`InfoHead::eliminate`] for callers that only carry the head forward.
    pub fn advance(&self, evo: &WhitenedEvo) -> InfoHead {
        self.eliminate(evo).1
    }

    /// The stacked block column `[C; -B]` of [`InfoHead::eliminate`] and
    /// its companion `[0 d; D r]`.
    fn stacked_with(&self, evo: &WhitenedEvo) -> (Matrix, Matrix) {
        let n_next = evo.d.cols();
        let stack = Matrix::vstack(&[&self.c, &evo.b.scaled(-1.0)]);
        let mut companion = Matrix::zeros(stack.rows(), n_next + 1);
        companion.set_block(0, n_next, &self.d);
        companion.set_block(self.c.rows(), 0, &evo.d);
        companion.set_block(self.c.rows(), n_next, &evo.rhs);
        (stack, companion)
    }

    /// The head on the next state from rows `from..` of a transformed
    /// companion `[C' | d']`.
    fn below(companion: &Matrix, from: usize) -> InfoHead {
        let n = companion.cols() - 1;
        let kept = companion.rows() - from;
        InfoHead::condensed(
            companion.sub_matrix(from, 0, kept, n),
            companion.sub_matrix(from, n, kept, 1),
        )
    }
}

/// `true` when no diagonal entry of the triangular factor `r` of an
/// `rows`-row block is negligible — the effective-rank test of
/// [`QrFactor::solve_r_in_place`] and [`ColPivQr::rank`].
fn has_full_rank(r: &Matrix, rows: usize) -> bool {
    let tol = effective_rank_tol(r, rows);
    (0..r.rows()).all(|j| r[(j, j)].abs() > tol)
}

/// One ingestion event of a streaming smoother.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// A new state arrives, evolving from the previous one.
    Evolve(crate::Evolution),
    /// The newest state is observed (several per state stack).
    Observe(Observation),
}

/// A [`StreamEvent`] borrowed: how a live stream's buffered window is read
/// (to encode it, say) without copying its matrices.
#[derive(Debug, Clone, Copy)]
pub enum StreamEventRef<'a> {
    /// A borrowed [`StreamEvent::Evolve`].
    Evolve(&'a crate::Evolution),
    /// A borrowed [`StreamEvent::Observe`].
    Observe(&'a Observation),
}

impl StreamEventRef<'_> {
    /// The owned event.
    pub fn to_event(self) -> StreamEvent {
        match self {
            StreamEventRef::Evolve(evo) => StreamEvent::Evolve(evo.clone()),
            StreamEventRef::Observe(obs) => StreamEvent::Observe(obs.clone()),
        }
    }
}

impl<'a> From<&'a StreamEvent> for StreamEventRef<'a> {
    fn from(event: &'a StreamEvent) -> Self {
        match event {
            StreamEvent::Evolve(evo) => StreamEventRef::Evolve(evo),
            StreamEvent::Observe(obs) => StreamEventRef::Observe(obs),
        }
    }
}

/// Serializes a batch model into the event stream that rebuilds it through
/// streaming ingestion (the test/benchmark bridge between the batch and
/// streaming worlds).  The initial state's dimension and prior travel
/// out-of-band: they parameterize the stream's construction.
pub fn events_of(model: &LinearModel) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for (i, step) in model.steps.iter().enumerate() {
        if i > 0 {
            if let Some(evo) = &step.evolution {
                events.push(StreamEvent::Evolve(evo.clone()));
            }
        }
        if let Some(obs) = &step.observation {
            events.push(StreamEvent::Observe(obs.clone()));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble_dense, CovarianceSpec};
    use kalman_dense::matmul_tn;

    fn head_with(c_rows: &[&[f64]], d: &[f64]) -> InfoHead {
        InfoHead::from_rows(Matrix::from_rows(c_rows), Matrix::col_from_slice(d))
    }

    #[test]
    fn empty_head_has_no_rows() {
        let h = InfoHead::empty(3);
        assert!(h.is_empty());
        assert_eq!(h.state_dim(), 3);
        assert_eq!(h.rows(), 0);
    }

    #[test]
    fn prior_head_whitens_identity_covariance_trivially() {
        let prior = Prior {
            mean: vec![1.0, -2.0],
            cov: CovarianceSpec::Identity(2),
        };
        let h = InfoHead::from_prior(&prior).unwrap();
        assert_eq!(h.rows(), 2);
        let (c, d) = h.rows_ref();
        assert!(c.approx_eq(&Matrix::identity(2), 0.0));
        assert_eq!(d.col(0), &[1.0, -2.0]);
    }

    /// Absorbing rows must preserve the normal equations CᵀC and Cᵀd.
    #[test]
    fn absorb_preserves_normal_equations() {
        let mut h = head_with(&[&[2.0, 1.0], &[0.0, 3.0]], &[1.0, 2.0]);
        let extra_c = Matrix::from_rows(&[&[1.0, -1.0], &[4.0, 0.5], &[0.0, 2.0]]);
        let extra_d = Matrix::col_from_slice(&[0.5, -1.0, 3.0]);

        let full_c = Matrix::vstack(&[&h.c, &extra_c]);
        let full_d = Matrix::vstack(&[&h.d, &extra_d]);
        let gram = matmul_tn(&full_c, &full_c);
        let moment = matmul_tn(&full_c, &full_d);

        h.absorb(&extra_c, &extra_d);
        assert_eq!(h.rows(), 2, "compressed back to state_dim rows");
        assert!(matmul_tn(&h.c, &h.c).approx_eq(&gram, 1e-10));
        assert!(matmul_tn(&h.c, &h.d).approx_eq(&moment, 1e-10));
    }

    /// Advancing through an evolution must produce the exact marginal: solve
    /// the tiny joint least-squares problem densely and compare.
    #[test]
    fn advance_matches_dense_marginal() {
        // Head: u0 ≈ [1, 2] with a non-trivial C.
        let head = head_with(&[&[1.5, 0.3], &[0.0, 0.9]], &[1.0, 2.0]);
        // Evolution u1 = F u0 + c + noise(I), as whitened rows.
        let f = Matrix::from_rows(&[&[0.8, -0.2], &[0.1, 1.1]]);
        let evo = WhitenedEvo {
            b: f.clone(),
            d: Matrix::identity(2),
            rhs: Matrix::col_from_slice(&[0.3, -0.4]),
        };
        let next = head.advance(&evo);
        assert_eq!(next.state_dim(), 2);
        assert_eq!(next.rows(), 2);

        // Dense reference: minimize ‖[C 0; -B D][u0; u1] - [d; r]‖ over u0
        // for each u1 — the marginal normal matrix is the Schur complement.
        let mut joint = Matrix::zeros(4, 4);
        joint.set_block(0, 0, &head.c);
        joint.set_block(2, 0, &f.scaled(-1.0));
        joint.set_block(2, 2, &Matrix::identity(2));
        let rhs = Matrix::col_from_slice(&[1.0, 2.0, 0.3, -0.4]);
        let gram = matmul_tn(&joint, &joint);
        let moment = matmul_tn(&joint, &rhs);
        // Schur complement S = A11 - A10 A00⁻¹ A01 on the u1 block.
        let a00 = gram.sub_matrix(0, 0, 2, 2);
        let a01 = gram.sub_matrix(0, 2, 2, 2);
        let a10 = gram.sub_matrix(2, 0, 2, 2);
        let a11 = gram.sub_matrix(2, 2, 2, 2);
        let a00_inv = kalman_dense::Cholesky::new(&a00).unwrap().inverse();
        let s = &a11 - &kalman_dense::matmul(&a10, &kalman_dense::matmul(&a00_inv, &a01));
        let m0 = moment.sub_matrix(0, 0, 2, 1);
        let m1 = moment.sub_matrix(2, 0, 2, 1);
        let sm = &m1 - &kalman_dense::matmul(&a10, &kalman_dense::matmul(&a00_inv, &m0));

        let (nc, nd) = next.rows_ref();
        assert!(matmul_tn(nc, nc).approx_eq(&s, 1e-10), "marginal Gram");
        assert!(matmul_tn(nc, nd).approx_eq(&sm, 1e-10), "marginal moment");
    }

    /// Regression: an *empty* head advanced through a singular evolution
    /// must keep the evolution rows acting on `ker F` — they constrain the
    /// next state only.  (The pre-rank-revealing implementation returned
    /// the empty head whenever `rows <= n_cur`, silently dropping them.)
    #[test]
    fn advance_of_empty_head_through_singular_f_keeps_process_information() {
        let head = InfoHead::empty(2);
        // u1 = F u0 + [0, 5] + noise(I), F = [[1,0],[0,0]]: component 1 of
        // u1 is pure process mean, u1[1] ≈ 5 with unit precision.
        let evo = WhitenedEvo {
            b: Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]),
            d: Matrix::identity(2),
            rhs: Matrix::col_from_slice(&[0.0, 5.0]),
        };
        let next = head.advance(&evo);
        assert_eq!(next.rows(), 1, "one surviving information row");
        let (nc, nd) = next.rows_ref();
        let gram = matmul_tn(nc, nc);
        let expect = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0]]);
        assert!(gram.approx_eq(&expect, 1e-12), "marginal Gram {gram:?}");
        let moment = matmul_tn(nc, nd);
        assert!((moment[(0, 0)]).abs() < 1e-12);
        assert!((moment[(1, 0)] - 5.0).abs() < 1e-12);
    }

    /// Regression: an underdetermined head stacked against a singular `F`
    /// (a rank-deficient `[C; -B]`) must keep `rows - rank` rows, not
    /// `rows - n` — here that is the difference between the exact marginal
    /// and losing one of two information rows.
    #[test]
    fn advance_rank_deficient_stack_matches_dense_marginal() {
        // Head knows only u0[0] ≈ 2; F's second row is zero.
        let head = head_with(&[&[1.0, 0.0]], &[2.0]);
        let evo = WhitenedEvo {
            b: Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]),
            d: Matrix::identity(2),
            rhs: Matrix::col_from_slice(&[0.3, 5.0]),
        };
        let next = head.advance(&evo);
        assert_eq!(next.rows(), 2, "both next-state directions informed");
        let (nc, nd) = next.rows_ref();
        // By hand: u1[0] = u0[0] + w with u0[0] ≈ 2 (unit noise) gives
        // u1[0] ≈ 2.3 at precision 1/2; u1[1] ≈ 5 at precision 1.
        let gram = matmul_tn(nc, nc);
        let expect = Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 1.0]]);
        assert!(gram.approx_eq(&expect, 1e-12), "marginal Gram {gram:?}");
        let moment = matmul_tn(nc, nd);
        assert!((moment[(0, 0)] - 1.15).abs() < 1e-12);
        assert!((moment[(1, 0)] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn advance_of_uninformative_head_is_empty() {
        let head = InfoHead::empty(2);
        let evo = WhitenedEvo {
            b: Matrix::identity(2),
            d: Matrix::identity(2),
            rhs: Matrix::zeros(2, 1),
        };
        let next = head.advance(&evo);
        assert!(next.is_empty());
    }

    /// Sweeping a whole model forward from its prior must leave an `R`
    /// factor with the normal equations of the batch assembly: the kept
    /// rows of every eliminated state plus the last head's rows.
    #[test]
    fn sweep_of_whole_model_matches_batch_assembly() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let model = crate::generators::paper_benchmark(&mut rng, 2, 4, true);
        let sys = assemble_dense(&model).unwrap();

        let total = model.total_state_dim();
        let mut col_off = vec![0usize];
        for s in &model.steps {
            col_off.push(col_off.last().unwrap() + s.state_dim);
        }
        let mut rows: Vec<(Matrix, Matrix)> = Vec::new();
        let mut head = InfoHead::from_prior(model.prior.as_ref().unwrap()).unwrap();
        for (j, step) in model.steps.iter().enumerate() {
            if let Some(obs) = &step.observation {
                head.absorb_observation(obs, j).unwrap();
            }
            let Some(next) = model.steps.get(j + 1) else {
                break;
            };
            let evo =
                WhitenedEvo::from_evolution(next.evolution.as_ref().unwrap(), next.state_dim, j)
                    .unwrap();
            let (kept, next_head) = head.eliminate(&evo);
            let kept = kept.expect("a prior determines every state");
            let mut block = Matrix::zeros(kept.diag.rows(), total);
            block.set_block(0, col_off[j], &kept.diag);
            block.set_block(0, col_off[j + 1], &kept.off);
            rows.push((block, kept.rhs));
            head = next_head;
        }
        let (c, d) = head.into_rows();
        let mut block = Matrix::zeros(c.rows(), total);
        block.set_block(0, col_off[model.steps.len() - 1], &c);
        rows.push((block, d));

        let mats: Vec<&Matrix> = rows.iter().map(|(m, _)| m).collect();
        let rhss: Vec<&Matrix> = rows.iter().map(|(_, r)| r).collect();
        let r = Matrix::vstack(&mats);
        let b = Matrix::vstack(&rhss);
        assert_eq!(r.rows(), total, "R is square");
        assert!(matmul_tn(&r, &r).approx_eq(&matmul_tn(&sys.a, &sys.a), 1e-10));
        assert!(matmul_tn(&r, &b).approx_eq(&matmul_tn(&sys.a, &sys.b), 1e-10));
    }

    /// An underdetermined stack keeps no rows for the eliminated state but
    /// still hands the exact marginal forward.
    #[test]
    fn eliminate_keeps_rows_only_for_determined_states() {
        let evo = WhitenedEvo {
            b: Matrix::identity(2),
            d: Matrix::identity(2),
            rhs: Matrix::col_from_slice(&[0.5, -0.5]),
        };
        let (kept, next) = head_with(&[&[1.0, 0.0]], &[2.0]).eliminate(&evo);
        let kept = kept.expect("three rows on two columns");
        assert_eq!(
            (kept.diag.rows(), kept.off.cols(), kept.rhs.rows()),
            (2, 2, 2)
        );
        assert_eq!(kept.diag[(1, 0)], 0.0, "R_jj is upper triangular");
        assert_eq!(next.rows(), 1);

        let singular = WhitenedEvo {
            b: Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]),
            ..evo
        };
        let (kept, next) = InfoHead::empty(2).eliminate(&singular);
        assert!(kept.is_none(), "u0[1] appears in no equation");
        assert_eq!(next.rows(), 1, "the ker F row still informs the next state");
    }

    #[test]
    fn events_roundtrip_counts() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        let model = crate::generators::sparse_observations(&mut rng, 2, 6, 2);
        let events = events_of(&model);
        let evolves = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Evolve(_)))
            .count();
        let observes = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Observe(_)))
            .count();
        assert_eq!(evolves, 6);
        assert_eq!(observes, 4); // steps 0, 2, 4, 6
    }
}
