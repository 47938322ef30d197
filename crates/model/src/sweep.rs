//! The downward half of the sequential Paige–Saunders sweep.
//!
//! [`InfoHead::step_into`] is the forward half: one call per state leaves
//! the state's block row of the block-bidiagonal `R` factor, or — with
//! covariances wanted — its [`SweepTerms`].  What is left is a walk from the
//! newest state down: [`InfoHead::solve_newest`] on the head of the state
//! with no successor, then per block row [`SweepTerms::mean_into`] and
//! [`SweepTerms::selinv_into`], the mean `m_j = b_j − X_j m_{j+1}` and the
//! block `S_jj = A_j + X_j S_{j+1,j+1} X_jᵀ` of the bidiagonal SelInv
//! recursion (the paper's Algorithm 1).
//!
//! Two loops run these steps: a streaming window's flush
//! (`kalman-stream`'s ring), and the whole-problem driver
//! `kalman_seq::paige_saunders_smooth`.  Each keeps its own bookkeeping;
//! the arithmetic is this module's, so a window that covers a whole
//! problem computes it bit for bit as the batch baseline does.

use crate::{InfoHead, KalmanError, Result};
use kalman_dense::{effective_rank_tol, fixed, gemm, tri, Matrix, QrFactor, Trans};

/// What the downward sweep reads of block row `j`, formed with the row by
/// [`InfoHead::step_into`] from one `R_jj⁻¹`: all three are functions of
/// the row alone, so a caller that keeps them need not keep the row.
#[derive(Debug, Clone, Default)]
pub struct SweepTerms {
    /// `X_j = R_jj⁻¹ R_{j,j+1}`.
    pub x: Matrix,
    /// `A_j = R_jj⁻¹ R_jj⁻ᵀ`.
    pub a: Matrix,
    /// `b_j = R_jj⁻¹ rhs_j`.
    pub b: Matrix,
}

impl SweepTerms {
    /// The three blocks in the order [`InfoHead::step_into`] takes them.
    pub fn parts(&mut self) -> (&mut Matrix, &mut Matrix, &mut Matrix) {
        (&mut self.x, &mut self.a, &mut self.b)
    }

    /// `mean ← b − X·next`: the fixed-size body where the blocks have its
    /// shape, a mat-vec otherwise.
    pub fn mean_into(&self, next: &[f64], mean: &mut Vec<f64>) {
        if fixed::mean_step(&self.x, &self.b, next, mean) {
            return;
        }
        mean.clear();
        // lint: allow(alloc, "refills the caller's reused mean, which grows only past its high-water length")
        mean.extend_from_slice(self.b.col(0));
        self.x.sub_mul_vec_into(next, mean);
    }

    /// `s ← sym(A + X·next·Xᵀ)`: the fixed-size body where the blocks have
    /// its shape, `gemm` through the working block `xs` otherwise.
    pub fn selinv_into(&self, next: &Matrix, s: &mut Matrix, xs: &mut Matrix) {
        if fixed::selinv_step(&self.x, &self.a, next, s) {
            return;
        }
        xs.clone_from(&self.x); // shapes the block; β = 0 overwrites it
        gemm(1.0, &self.x, Trans::No, next, Trans::No, 0.0, xs);
        s.clone_from(&self.a);
        gemm(1.0, xs, Trans::No, &self.x, Trans::Yes, 1.0, s);
        s.symmetrize();
    }
}

impl InfoHead {
    /// The top of the downward sweep: the mean of the state this head
    /// constrains, as the newest state of a chain (it has no successor),
    /// into `mean` through the working column `y` — and, when `cov` is
    /// given, its covariance `R⁻¹R⁻ᵀ` there.  A square upper triangle (what
    /// every observed step leaves) is solved as it is; any other head is
    /// QR-factored first.
    ///
    /// # Errors
    ///
    /// [`KalmanError::RankDeficient`] naming `state` when the head does
    /// not determine the state: fewer rows than columns, or a negligible
    /// diagonal entry in its triangle.
    pub fn solve_newest(
        &self,
        state: usize,
        mean: &mut Vec<f64>,
        y: &mut Matrix,
        cov: Option<&mut Matrix>,
    ) -> Result<()> {
        let deficient = |_| KalmanError::RankDeficient { state };
        let (c, d) = self.rows_ref();
        if c.rows() < c.cols() {
            return Err(KalmanError::RankDeficient { state });
        }
        y.clone_from(d);
        let triangle = if c.is_square() && c.is_upper_triangular() {
            let tol = effective_rank_tol(c, c.rows());
            if (0..c.rows()).any(|j| c[(j, j)].abs() <= tol) {
                return Err(KalmanError::RankDeficient { state });
            }
            tri::solve_upper_in_place(c, y).map_err(deficient)?;
            None
        } else {
            let qr = QrFactor::new_applying(c.clone(), &mut [&mut *y]); // lint: allow(alloc, "pooled matrix of one state's size")
            qr.solve_r_in_place(y).map_err(deficient)?;
            Some(qr.r())
        };
        mean.clear();
        // lint: allow(alloc, "refills the caller's reused mean, which grows only past its high-water length")
        mean.extend_from_slice(y.col(0));
        if let Some(cov) = cov {
            *cov = tri::inv_gram_upper(triangle.as_ref().unwrap_or(c)).map_err(deficient)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_dense::{matmul_tn, LuFactor};

    /// A two-state `R = [R_00 R_01; 0 R_11]` with its right-hand side, the
    /// terms of row 0 and the head of state 1.
    fn sample() -> (Matrix, Matrix, SweepTerms, InfoHead) {
        let r00 = Matrix::from_rows(&[&[2.0, 0.5], &[0.0, 1.5]]);
        let r01 = Matrix::from_rows(&[&[0.2, -0.1], &[0.4, 0.3]]);
        let r11 = Matrix::from_rows(&[&[1.0, -0.3], &[0.0, 2.5]]);
        let (rhs0, rhs1) = (
            Matrix::col_from_slice(&[1.0, 2.0]),
            Matrix::col_from_slice(&[3.0, 4.0]),
        );
        let mut dense = Matrix::zeros(4, 4);
        dense.set_block(0, 0, &r00);
        dense.set_block(0, 2, &r01);
        dense.set_block(2, 2, &r11);
        let rhs = Matrix::vstack(&[&rhs0, &rhs1]);
        let (mut x, mut b) = (r01, rhs0);
        tri::solve_upper_in_place(&r00, &mut x).unwrap();
        tri::solve_upper_in_place(&r00, &mut b).unwrap();
        let a = tri::inv_gram_upper(&r00).unwrap();
        (
            dense,
            rhs,
            SweepTerms { x, a, b },
            InfoHead::from_rows(r11, rhs1),
        )
    }

    #[test]
    fn mean_steps_match_dense_solve() {
        let (dense, rhs, terms, head) = sample();
        let mut means = vec![Vec::new(); 2];
        head.solve_newest(1, &mut means[1], &mut Matrix::default(), None)
            .unwrap();
        let (first, newest) = means.split_at_mut(1);
        terms.mean_into(&newest[0], &mut first[0]);
        let expect = QrFactor::new(dense).solve_ls(&rhs).unwrap();
        for (i, v) in means.concat().iter().enumerate() {
            assert!((v - expect[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn selinv_steps_match_dense_inverse() {
        let (dense, _, terms, head) = sample();
        let mut s11 = Matrix::default();
        head.solve_newest(1, &mut Vec::new(), &mut Matrix::default(), Some(&mut s11))
            .unwrap();
        let mut s00 = Matrix::default();
        terms.selinv_into(&s11, &mut s00, &mut Matrix::default());
        let inverse = LuFactor::new(matmul_tn(&dense, &dense)).unwrap().inverse();
        assert!(s00.approx_eq(&inverse.sub_matrix(0, 0, 2, 2), 1e-10));
        assert!(s11.approx_eq(&inverse.sub_matrix(2, 2, 2, 2), 1e-10));
    }

    #[test]
    fn singular_head_is_reported_with_its_state() {
        let singular = Matrix::from_rows(&[&[2.0, 0.5], &[0.0, 0.0]]);
        let short = Matrix::from_rows(&[&[2.0, 0.5]]);
        for (c, rows) in [(singular, 2), (short, 1)] {
            let head = InfoHead::from_rows(c, Matrix::zeros(rows, 1));
            match head.solve_newest(7, &mut Vec::new(), &mut Matrix::default(), None) {
                Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 7),
                other => panic!("expected rank deficiency, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_block() {
        let head =
            InfoHead::from_rows(Matrix::from_rows(&[&[2.0]]), Matrix::col_from_slice(&[4.0]));
        let (mut mean, mut cov) = (Vec::new(), Matrix::default());
        head.solve_newest(0, &mut mean, &mut Matrix::default(), Some(&mut cov))
            .unwrap();
        assert_eq!(mean, vec![2.0]);
        assert!((cov[(0, 0)] - 0.25).abs() < 1e-15);
    }
}
