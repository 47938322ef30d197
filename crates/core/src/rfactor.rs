//! The sparse `R` factor produced by the odd-even QR factorization.

use crate::plan::PlanSchedule;
use kalman_dense::Matrix;
use kalman_model::Result;
use kalman_par::ExecPolicy;

/// One permanent block row of `R`, belonging to the state that was
/// eliminated when the row was produced.
#[derive(Debug, Clone)]
pub struct RRow {
    /// The square upper-triangular diagonal block `R_jj`.
    pub diag: Matrix,
    /// Off-diagonal blocks `(target state, R_{j,target})`.  Targets are the
    /// chain neighbours at elimination time; they are always eliminated at
    /// deeper levels, which makes `R` upper triangular under the odd-even
    /// permutation.  At most 2 entries.
    pub off: Vec<(usize, Matrix)>,
    /// Transformed right-hand-side segment `(QᵀUb)_j` (`n_j × 1`).
    pub rhs: Matrix,
    /// Elimination level (0 = first round of even columns; the root of the
    /// recursion has the largest level).
    pub level: usize,
}

/// The complete odd-even `R` factor: one [`RRow`] per state plus the
/// elimination-order level structure.
///
/// An `OddEvenR` is reusable output storage: a [`crate::SmoothPlan`]
/// overwrites the row slots and level lists of the one it holds in place,
/// so a caller that factors same-shaped problems repeatedly churns no
/// containers.  `Default` is the empty factor to start
/// from.
#[derive(Debug, Clone, Default)]
pub struct OddEvenR {
    /// Block rows indexed by original state index.
    pub rows: Vec<RRow>,
    /// `levels[l]` lists the states eliminated at level `l`, in chain order.
    pub levels: Vec<Vec<usize>>,
}

impl OddEvenR {
    /// Number of states (block columns).
    pub fn num_states(&self) -> usize {
        self.rows.len()
    }

    /// The states in elimination (permuted) order: level 0's evens first,
    /// then level 1's, …, ending with the root column.  This is the column
    /// order under which `R` is upper triangular (the order of the paper's
    /// Figure 1).
    pub fn elimination_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.num_states());
        for level in &self.levels {
            order.extend_from_slice(level);
        }
        order
    }

    /// The schedule this factor was produced under, re-derived from its
    /// block dimensions (the pair tree is a function of the shape alone).
    pub(crate) fn schedule(&self) -> PlanSchedule {
        let dims: Vec<usize> = self.rows.iter().map(|row| row.diag.cols()).collect();
        PlanSchedule::build(&dims)
    }

    /// Back substitution: solves `R Pᵀ û = QᵀUb` down the pair tree — the
    /// root (eliminated last) first, every other column after the two chain
    /// neighbours its row couples to, sibling subtrees in parallel.
    ///
    /// # Errors
    ///
    /// [`KalmanError::RankDeficient`] naming the first state whose diagonal
    /// block is singular; [`KalmanError::InvalidModel`] when the rows are
    /// not those of an odd-even factorization.
    ///
    /// [`KalmanError::RankDeficient`]: kalman_model::KalmanError::RankDeficient
    /// [`KalmanError::InvalidModel`]: kalman_model::KalmanError::InvalidModel
    pub fn solve(&self, policy: ExecPolicy) -> Result<Vec<Vec<f64>>> {
        let mut y: Vec<Vec<f64>> = Vec::new();
        crate::selinv::top_down(&self.schedule(), self, policy, Some(&mut y), None)?;
        Ok(y)
    }

    /// The block sparsity structure of `R` in permuted order, for
    /// regenerating the paper's Figure 1: returns `(row, col)` pairs of
    /// nonzero blocks, where indices are positions in
    /// [`OddEvenR::elimination_order`].
    pub fn structure(&self) -> Vec<(usize, usize)> {
        let order = self.elimination_order();
        let mut pos = vec![0usize; self.num_states()];
        for (p, &j) in order.iter().enumerate() {
            pos[j] = p;
        }
        let mut blocks = Vec::new();
        for (j, row) in self.rows.iter().enumerate() {
            blocks.push((pos[j], pos[j]));
            for (target, _) in &row.off {
                blocks.push((pos[j], pos[*target]));
            }
        }
        blocks.sort_unstable();
        blocks
    }

    /// Materializes `R Pᵀ`-style dense matrix in *original* column order and
    /// permuted row order (test helper; `Θ((kn)²)` memory).
    ///
    /// The rows are orthogonal-transform images of `U·A`'s rows, so
    /// `(RPᵀ)ᵀ(RPᵀ) = (UA)ᵀ(UA)` — the invariant the tests check.
    pub fn to_dense_original_order(&self, state_dims: &[usize]) -> Matrix {
        let total: usize = state_dims.iter().sum();
        let mut offsets = Vec::with_capacity(state_dims.len() + 1);
        let mut acc = 0;
        for &d in state_dims {
            offsets.push(acc);
            acc += d;
        }
        offsets.push(acc);
        let mut out = Matrix::zeros(total, total);
        let mut r0 = 0usize;
        for &j in &self.elimination_order() {
            let row = &self.rows[j];
            out.set_block(r0, offsets[j], &row.diag);
            for (target, block) in &row.off {
                out.set_block(r0, offsets[*target], block);
            }
            r0 += row.diag.rows();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_model::KalmanError;

    fn tiny() -> OddEvenR {
        // Two states; state 0 eliminated at level 0 with coupling to state 1.
        OddEvenR {
            rows: vec![
                RRow {
                    diag: Matrix::from_rows(&[&[2.0]]),
                    off: vec![(1, Matrix::from_rows(&[&[1.0]]))],
                    rhs: Matrix::col_from_slice(&[4.0]),
                    level: 0,
                },
                RRow {
                    diag: Matrix::from_rows(&[&[4.0]]),
                    off: vec![],
                    rhs: Matrix::col_from_slice(&[8.0]),
                    level: 1,
                },
            ],
            levels: vec![vec![0], vec![1]],
        }
    }

    #[test]
    fn solve_tiny_by_hand() {
        // y1 = 8/4 = 2; y0 = (4 − 1·2)/2 = 1.
        let y = tiny().solve(ExecPolicy::Seq).unwrap();
        assert_eq!(y[1], vec![2.0]);
        assert_eq!(y[0], vec![1.0]);
        let y_par = tiny().solve(ExecPolicy::par()).unwrap();
        assert_eq!(y, y_par);
    }

    #[test]
    fn elimination_order_and_structure() {
        let r = tiny();
        assert_eq!(r.elimination_order(), vec![0, 1]);
        assert_eq!(r.structure(), vec![(0, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn singular_diag_reports_state() {
        let mut r = tiny();
        r.rows[1].diag = Matrix::from_rows(&[&[0.0]]);
        match r.solve(ExecPolicy::Seq) {
            Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 1),
            other => panic!("expected rank deficiency, got {other:?}"),
        }
    }

    #[test]
    fn dense_reconstruction_layout() {
        let r = tiny();
        let d = r.to_dense_original_order(&[1, 1]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(0, 1)], 1.0);
        assert_eq!(d[(1, 1)], 4.0);
        assert_eq!(d[(1, 0)], 0.0);
    }
}
