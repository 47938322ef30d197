//! The top-down half: back substitution and odd-even block SelInv (the
//! paper's Algorithm 2, §4) in one pass over the pair tree.
//!
//! SelInv computes the blocks of `S = (RᵀR)⁻¹` that are nonzero in `R` — in
//! particular the diagonal blocks, which are the covariances `cov(û_i)` of
//! the smoothed states.  `R` maps onto the `LDLᵀ` form SelInv expects via
//! `D_ii = R_iiᵀR_ii`, `L_ij = R_jiᵀR_jj⁻ᵀ`; in terms of `R` the recurrences
//! become, next to the back substitution for the means,
//!
//! ```text
//! S_{j,I} = −R_jj⁻¹ R_{j,I} S_{I,I}
//! S_jj    =  R_jj⁻¹R_jj⁻ᵀ − S_{j,I} (R_jj⁻¹R_{j,I})ᵀ
//! û_j     =  R_jj⁻¹ (ρ_j − R_{j,I} û_I)
//! ```
//!
//! where `I` indexes the (at most two) off-diagonal blocks of block row `j`:
//! the chain neighbours of column `j` when it was eliminated.  In the pair
//! tree those are the survivor `c` of the node that eliminated `j` and the
//! subtree's left boundary `b` (state `lo − 1`), so a subtree needs exactly
//! three blocks from above — `S_bb`, `S_cc` and the cross block between
//! them (for the means, `û_b` and `û_c`) — and hands each child subtree its
//! own three by reference.  The walk is ancestors-first: a node solves the
//! columns it eliminated, then descends; an off-diagonal `S` block lives no
//! longer than its node's children, and no table of them exists.  `|I| ≤ 2`
//! makes each step a constant number of small triangular solves and
//! multiplications, so the arithmetic stays `Θ(kn³)` and, forked above
//! `grain` leaves, the critical path `Θ(log k · n log n)`.  The
//! multiplications are plain [`gemm`] calls, which pick their body from
//! the blocks' shapes (a 4×4 or 8×8 product runs the register-resident
//! kernel whatever the rest of the chain's dimensions are).

use crate::plan::PlanSchedule;
use crate::rfactor::{OddEvenR, RRow};
use kalman_dense::{gemm, tri, Matrix, Trans};
use kalman_model::{KalmanError, Result};
use kalman_par::{join, ExecPolicy};

/// One solved column: its estimates (each present when the walk was asked
/// for it) and the `S` blocks coupling it to the neighbours it was solved
/// against.  Lives on the stack of the node that solved it, for as long as
/// that node's children need it.
struct Solved {
    /// The state this is the estimate of.
    col: usize,
    /// `û_col` (`n × 1`).
    mean: Option<Matrix>,
    /// `S_{col,col}` (symmetric).
    cov: Option<Matrix>,
    /// `(a, S_{col,a})` for each off-diagonal target `a` of row `col`, in
    /// the order of `RRow::off`.
    cross: [Option<(usize, Matrix)>; 2],
}

impl Solved {
    fn cross_to(&self, state: usize) -> Option<&Matrix> {
        let (_, block) = self.cross.iter().flatten().find(|(a, _)| *a == state)?;
        Some(block)
    }
}

/// `S_{b,a}` between two columns solved further up: the diagonal block, or
/// the cross block from whichever of the two rows holds it — consumed as
/// stored, transposed by flag, never copied.
fn s_block<'a>(b: &'a Solved, a: &'a Solved) -> Option<(&'a Matrix, Trans)> {
    if b.col == a.col {
        return Some((b.cov.as_ref()?, Trans::No));
    }
    match b.cross_to(a.col) {
        Some(s_ba) => Some((s_ba, Trans::No)),
        None => Some((a.cross_to(b.col)?, Trans::Yes)),
    }
}

/// The output slots of one subtree's states, each kind present when asked
/// for.
struct Slots<'a> {
    /// State index of the first slot.
    lo: usize,
    means: Option<&'a mut [Vec<f64>]>,
    covs: Option<&'a mut [Matrix]>,
}

impl Slots<'_> {
    /// The slots of the first `mid` states, and the rest.
    fn split_at(&mut self, mid: usize) -> (Slots<'_>, Slots<'_>) {
        let (means, means_hi) = self
            .means
            .as_deref_mut()
            .map(|m| m.split_at_mut(mid))
            .unzip();
        let (covs, covs_hi) = self
            .covs
            .as_deref_mut()
            .map(|c| c.split_at_mut(mid))
            .unzip();
        let lo = self.lo;
        (
            Slots { lo, means, covs },
            Slots {
                lo: lo + mid,
                means: means_hi,
                covs: covs_hi,
            },
        )
    }

    /// Moves a solved column's estimates out; its cross blocks end here.
    fn store(&mut self, solved: Solved) {
        let at = solved.col - self.lo;
        if let (Some(means), Some(mean)) = (self.means.as_deref_mut(), &solved.mean) {
            means[at].extend_from_slice(mean.col(0));
        }
        if let (Some(covs), Some(cov)) = (self.covs.as_deref_mut(), solved.cov) {
            covs[at] = cov;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Off-diagonal `S` blocks alive on this thread: `(now, peak)`.
    static LIVE_CROSS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Counts `born` blocks alive until the returned guard drops.
#[cfg(test)]
fn track_cross(born: usize) -> impl Drop {
    struct Alive(usize);
    impl Drop for Alive {
        fn drop(&mut self) {
            LIVE_CROSS.with(|c| c.set((c.get().0 - self.0, c.get().1)));
        }
    }
    LIVE_CROSS.with(|c| {
        let (now, peak) = c.get();
        c.set((now + born, peak.max(now + born)));
    });
    Alive(born)
}

/// One top-down walk of a factored pair tree.
struct Walk<'a> {
    schedule: &'a PlanSchedule,
    rows: &'a [RRow],
    policy: ExecPolicy,
    means: bool,
    covs: bool,
}

// lint: allow(alloc, "error path: allocates only for a hand-built factor whose rows are not an odd-even factor's")
fn malformed(j: usize) -> KalmanError {
    KalmanError::InvalidModel(format!(
        "R row {j} is not a row of an odd-even factor: it couples to more than its chain neighbours"
    ))
}

impl Walk<'_> {
    /// Solves column `j` against `above`, the already-solved columns its
    /// row may couple to.
    fn solve_column(&self, j: usize, above: [Option<&Solved>; 2]) -> Result<Solved> {
        let row = &self.rows[j];
        let singular = |_| KalmanError::RankDeficient { state: j };
        // |off| ≤ 2 is a structural invariant of the odd-even
        // factorization; the inline arrays below rely on it.
        if row.off.len() > 2 {
            return Err(malformed(j));
        }
        let mut nbrs: [Option<&Solved>; 2] = [None, None];
        for (slot, (target, _)) in nbrs.iter_mut().zip(&row.off) {
            let nbr = above.iter().flatten().find(|s| s.col == *target);
            *slot = Some(*nbr.ok_or_else(|| malformed(j))?);
        }
        let nbrs = || nbrs.iter().flatten();

        let mut mean = None;
        if self.means {
            // lint: allow(alloc, "owned per-column solution; bounded by one state's rhs (n_j x 1), pooled")
            let mut b = row.rhs.clone();
            for ((_, block), nbr) in row.off.iter().zip(nbrs()) {
                let y = nbr.mean.as_ref().expect("a means walk solves every column");
                block.sub_mul_vec_into(y.col(0), b.col_mut(0));
            }
            tri::solve_upper_in_place(&row.diag, &mut b).map_err(singular)?;
            mean = Some(b);
        }

        let mut cov = None;
        let mut cross: [Option<(usize, Matrix)>; 2] = [None, None];
        if self.covs {
            // R_jj⁻¹R_jj⁻ᵀ, and R_jj⁻¹ itself where the blocked kernel forms
            // it on the way.
            let (mut diag, inverse) =
                tri::inv_gram_upper_with_inverse(&row.diag).map_err(singular)?;
            // X_a = R_jj⁻¹ R_{j,a} for each target a: one product with the
            // inverse, else a triangular solve.
            let mut xs: [Option<Matrix>; 2] = [None, None];
            for (slot, (_, block)) in xs.iter_mut().zip(&row.off) {
                let x = match &inverse {
                    Some(w) => tri::upper_mul(w, block),
                    None => {
                        // lint: allow(alloc, "owned input to the in-place triangular solve; bounded by one off-diagonal block (n_j x n_a), pooled")
                        let mut x = block.clone();
                        tri::solve_upper_in_place(&row.diag, &mut x).map_err(singular)?;
                        x
                    }
                };
                *slot = Some(x);
            }
            // S_{j,a} = −Σ_b X_b S_{b,a}, accumulated in place through
            // `gemm` (no temporaries, transposed blocks read directly).
            for (slot, a) in cross.iter_mut().zip(nbrs()) {
                let na = self.rows[a.col].diag.cols();
                let mut acc = Matrix::zeros(row.diag.cols(), na);
                for (xb, b) in xs.iter().flatten().zip(nbrs()) {
                    let (s_ba, trans) = s_block(b, a).ok_or_else(|| malformed(j))?;
                    gemm(-1.0, xb, Trans::No, s_ba, trans, 1.0, &mut acc);
                }
                *slot = Some((a.col, acc));
            }
            // S_jj = R_jj⁻¹R_jj⁻ᵀ − Σ_a S_{j,a} X_aᵀ.
            for ((_, s_ja), xa) in cross.iter().flatten().zip(xs.iter().flatten()) {
                gemm(-1.0, s_ja, Trans::No, xa, Trans::Yes, 1.0, &mut diag);
            }
            diag.symmetrize();
            cov = Some(diag);
        }
        Ok(Solved {
            col: j,
            mean,
            cov,
            cross,
        })
    }

    /// Solves every column eliminated inside the subtree of node `idx`,
    /// given its own column `own` and its left boundary `left` (state
    /// `lo − 1`, if any), into the subtree's `slots`.
    fn descend(
        &self,
        idx: usize,
        own: &Solved,
        left: Option<&Solved>,
        mut slots: Slots<'_>,
    ) -> Result<()> {
        let nodes = self.schedule.nodes();
        let node = nodes[idx];
        let Some(ch) = node.children else {
            return Ok(());
        };
        let (l, r) = (nodes[ch.left], nodes[ch.right]);
        // The even column of the pair couples to the boundary and to the
        // survivor; the partnerless last column to the survivor alone.
        let even = self.solve_column(l.col, [left, Some(own)])?;
        let lone = match ch.lone {
            Some(t) => Some(self.solve_column(nodes[t].col, [Some(own), None])?),
            None => None,
        };
        #[cfg(test)]
        let _alive = track_cross(
            (even.cross.iter().chain(lone.iter().flat_map(|t| &t.cross)))
                .flatten()
                .count(),
        );

        // Each child subtree's column, boundary and the block between them.
        let (slots_l, mut rest) = slots.split_at(l.leaves);
        let (slots_r, slots_t) = rest.split_at(r.leaves);
        let policy = self.policy.for_len(node.leaves);
        let (down_l, (down_r, down_t)) = join(
            policy,
            || self.descend(ch.left, &even, left, slots_l),
            || {
                join(
                    policy,
                    || self.descend(ch.right, own, Some(&even), slots_r),
                    || match (ch.lone, &lone) {
                        (Some(t), Some(lone)) => self.descend(t, lone, Some(own), slots_t),
                        _ => Ok(()),
                    },
                )
            },
        );
        down_l.and(down_r).and(down_t)?;
        slots.store(even);
        lone.into_iter().for_each(|t| slots.store(t));
        Ok(())
    }
}

/// The first state, in the order the level-major recurrences would reach
/// them (root level first, chain order within a level), whose diagonal
/// block is singular.
fn first_singular(r: &OddEvenR) -> Option<usize> {
    let singular = |j: &&usize| {
        let diag = &r.rows[**j].diag;
        (0..diag.rows()).any(|i| diag[(i, i)] == 0.0)
    };
    r.levels.iter().rev().flatten().find(singular).copied()
}

/// One top-down walk of the factored tree: the smoothed means and/or the
/// covariances `cov(û_i) = S_ii`, whichever is asked for, into reused
/// storage (one slot per state; capacity is retained across calls, so
/// repeated walks of same-shaped factors allocate nothing beyond pooled
/// matrices).  `schedule` must be the one `r` was factored under.  On
/// error the outputs' contents are unspecified.
///
/// # Errors
///
/// [`KalmanError::RankDeficient`] naming the first singular diagonal block;
/// [`KalmanError::InvalidModel`] for an `r` that is not an odd-even factor.
pub(crate) fn top_down(
    schedule: &PlanSchedule,
    r: &OddEvenR,
    policy: ExecPolicy,
    mut means: Option<&mut Vec<Vec<f64>>>,
    mut covs: Option<&mut Vec<Matrix>>,
) -> Result<()> {
    let k1 = r.num_states();
    if let Some(means) = means.as_deref_mut() {
        means.truncate(k1);
        means.resize_with(k1, Vec::new);
        means.iter_mut().for_each(Vec::clear);
    }
    if let Some(covs) = covs.as_deref_mut() {
        covs.truncate(k1);
        covs.resize_with(k1, || Matrix::zeros(0, 0));
    }
    let walk = Walk {
        schedule,
        rows: &r.rows,
        policy,
        means: means.is_some(),
        covs: covs.is_some(),
    };
    let mut slots = Slots {
        lo: 0,
        means: means.map(Vec::as_mut_slice),
        covs: covs.map(Vec::as_mut_slice),
    };
    let root = walk.solve_column(schedule.root().col, [None, None]);
    let walked = root.and_then(|root| {
        let (all, _) = slots.split_at(k1);
        walk.descend(schedule.nodes().len() - 1, &root, None, all)?;
        slots.store(root);
        Ok(())
    });
    walked.map_err(|e| match e {
        // Whichever singular block the walk met first, report the one the
        // level-by-level order would have.
        KalmanError::RankDeficient { state } => KalmanError::RankDeficient {
            state: first_singular(r).unwrap_or(state),
        },
        e => e,
    })
}

/// Computes the diagonal blocks `cov(û_i) = S_ii` of `S = (RᵀR)⁻¹`.
///
/// # Errors
///
/// [`KalmanError::RankDeficient`] naming the first singular diagonal block.
pub fn selinv_diag(r: &OddEvenR, policy: ExecPolicy) -> Result<Vec<Matrix>> {
    let mut out = Vec::new();
    top_down(&r.schedule(), r, policy, None, Some(&mut out))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::factor_odd_even;
    use kalman_model::{generators, whiten_model};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn dense_cov_blocks(model: &kalman_model::LinearModel) -> Vec<Matrix> {
        kalman_model::solve_dense(model)
            .unwrap()
            .covariances
            .unwrap()
    }

    #[test]
    fn matches_dense_inverse_blocks_small() {
        for (k, seed) in [
            (1usize, 20u64),
            (2, 21),
            (3, 22),
            (5, 23),
            (8, 24),
            (13, 25),
        ] {
            let model = generators::paper_benchmark(&mut rng(seed), 3, k, false);
            let steps = whiten_model(&model).unwrap();
            let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
            let covs = selinv_diag(&r, ExecPolicy::Seq).unwrap();
            let expect = dense_cov_blocks(&model);
            for (i, (a, b)) in covs.iter().zip(&expect).enumerate() {
                assert!(
                    a.approx_eq(b, 1e-8 * (1.0 + b.max_abs())),
                    "cov block {i} mismatch at k={k}: {}",
                    a.max_abs_diff(b)
                );
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let model = generators::paper_benchmark(&mut rng(30), 4, 29, true);
        let steps = whiten_model(&model).unwrap();
        let r = factor_odd_even(&steps, ExecPolicy::par()).unwrap();
        let seq = selinv_diag(&r, ExecPolicy::Seq).unwrap();
        let par = selinv_diag(&r, ExecPolicy::par_with_grain(1)).unwrap();
        for (a, b) in seq.iter().zip(&par) {
            assert!(a.approx_eq(b, 1e-14));
        }
    }

    #[test]
    fn works_with_dimension_changes() {
        let model = generators::dimension_change(&mut rng(31), 2, 9);
        let steps = whiten_model(&model).unwrap();
        let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        let covs = selinv_diag(&r, ExecPolicy::Seq).unwrap();
        let expect = dense_cov_blocks(&model);
        for (a, b) in covs.iter().zip(&expect) {
            assert!(a.approx_eq(b, 1e-8 * (1.0 + b.max_abs())));
        }
    }

    #[test]
    fn covariances_are_symmetric_positive() {
        let model = generators::paper_benchmark(&mut rng(32), 3, 40, false);
        let steps = whiten_model(&model).unwrap();
        let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        let covs = selinv_diag(&r, ExecPolicy::Seq).unwrap();
        for c in &covs {
            assert!(c.approx_eq(&c.transpose(), 1e-12));
            // Positive diagonal (necessary for PD).
            for (i, d) in c.diag().iter().enumerate() {
                assert!(*d > 0.0, "non-positive variance at {i}");
            }
        }
    }

    #[test]
    fn singular_r_is_reported() {
        let model = generators::paper_benchmark(&mut rng(33), 2, 5, false);
        let steps = whiten_model(&model).unwrap();
        let mut r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        let root = *r.levels.last().unwrap().first().unwrap();
        r.rows[root].diag.fill(0.0);
        match selinv_diag(&r, ExecPolicy::Seq) {
            Err(KalmanError::RankDeficient { state }) => assert_eq!(state, root),
            other => panic!("expected rank deficiency, got {other:?}"),
        }
    }

    /// Of several singular blocks the one reported is the first in the
    /// level-by-level order (root level first, chain order within a level),
    /// whichever the walk meets first and under either policy.
    #[test]
    fn singular_state_reported_follows_level_order() {
        let model = generators::paper_benchmark(&mut rng(34), 2, 15, false);
        let steps = whiten_model(&model).unwrap();
        let mut r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        assert_eq!(r.levels[2], vec![3, 11]);
        // Depth first, state 0 (level 0, left half) is solved long before
        // state 11 (level 2, right half).
        r.rows[0].diag.fill(0.0);
        r.rows[11].diag.fill(0.0);
        for policy in [ExecPolicy::Seq, ExecPolicy::par_with_grain(1)] {
            for result in [selinv_diag(&r, policy).map(drop), r.solve(policy).map(drop)] {
                match result {
                    Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 11),
                    other => panic!("expected rank deficiency, got {other:?}"),
                }
            }
        }
    }

    /// A row that couples to a state that was not its chain neighbour is
    /// refused, not indexed into.
    #[test]
    fn rows_of_no_odd_even_factor_are_refused() {
        let model = generators::paper_benchmark(&mut rng(35), 2, 7, false);
        let steps = whiten_model(&model).unwrap();
        let mut r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        r.rows[0].off[0].0 = 5;
        assert!(matches!(
            selinv_diag(&r, ExecPolicy::Seq),
            Err(KalmanError::InvalidModel(_))
        ));
        assert!(matches!(
            r.solve(ExecPolicy::Seq),
            Err(KalmanError::InvalidModel(_))
        ));
    }

    /// The top-down pass keeps its off-diagonal `S` blocks on the stack of
    /// the node that made them: walking 1000 states, no more than three per
    /// level of the tree (an even column's two and a lone column's one) are
    /// ever alive together, out of the ≈ 2000 the pass computes.
    #[test]
    fn off_diagonal_blocks_alive_at_once_are_logarithmic() {
        let k1 = 1000usize;
        let model = generators::paper_benchmark(&mut rng(36), 2, k1 - 1, true);
        let steps = whiten_model(&model).unwrap();
        let r = factor_odd_even(&steps, ExecPolicy::Seq).unwrap();
        let computed: usize = r.rows.iter().map(|row| row.off.len()).sum();
        assert!(computed > 3 * k1 / 2, "{computed} off-diagonal blocks");
        LIVE_CROSS.with(|c| c.set((0, 0)));
        selinv_diag(&r, ExecPolicy::Seq).unwrap();
        let (now, peak) = LIVE_CROSS.with(std::cell::Cell::get);
        assert_eq!(now, 0, "every block died with its node");
        let depth = k1.ilog2() as usize;
        assert!(
            (depth..=3 * depth).contains(&peak),
            "peak {peak} live blocks over {depth} levels"
        );
        // The means-only walk makes none.
        LIVE_CROSS.with(|c| c.set((0, 0)));
        r.solve(ExecPolicy::Seq).unwrap();
        assert_eq!(LIVE_CROSS.with(std::cell::Cell::get), (0, 0));
    }
}
