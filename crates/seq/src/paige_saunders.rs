//! The sequential Paige–Saunders QR smoother.
//!
//! A single forward sweep absorbs, state by state, the evolution and
//! observation rows into a block-bidiagonal triangular factor
//! ([`BidiagonalR`]); back substitution yields the smoothed means and
//! sequential SelInv the covariances.  `Θ(kn³)` work, `Θ(k·n log n)`
//! critical path — the sequential baseline the odd-even algorithm is
//! measured against (§2.2, §5.4).

use crate::bidiag::BidiagonalR;
use kalman_dense::{Matrix, QrFactor};
use kalman_model::{whiten_model, LinearModel, Result, Smoothed, WhitenedStep};

/// Options shared by the QR smoothers.
#[derive(Debug, Clone, Copy)]
pub struct SmootherOptions {
    /// Compute `cov(û_i)` in a separate final phase.  `false` gives the
    /// paper's "NC" variant, used inside Levenberg–Marquardt nonlinear
    /// smoothers where covariances are not needed (§5.4).
    pub covariances: bool,
}

impl Default for SmootherOptions {
    fn default() -> Self {
        SmootherOptions { covariances: true }
    }
}

/// Pads `m` (and `rhs`) with zero rows up to `rows` if shorter.
///
/// Zero rows are zero equations: they do not change the least-squares
/// problem, but keep every diagonal block square so rank deficiency is
/// detected uniformly at solve time instead of mid-factorization.
fn pad_rows(m: Matrix, rhs: Matrix, rows: usize) -> (Matrix, Matrix) {
    if m.rows() >= rows {
        return (m, rhs);
    }
    let deficit = rows - m.rows();
    let zm = Matrix::zeros(deficit, m.cols());
    let zr = Matrix::zeros(deficit, rhs.cols());
    (Matrix::vstack(&[&m, &zm]), Matrix::vstack(&[&rhs, &zr]))
}

/// Runs the Paige–Saunders forward factorization sweep on whitened steps,
/// producing the block-bidiagonal `R` factor and transformed right-hand side.
pub fn factor_bidiagonal(steps: &[WhitenedStep]) -> BidiagonalR {
    let k1 = steps.len();
    let mut diag: Vec<Matrix> = Vec::with_capacity(k1);
    let mut offdiag: Vec<Matrix> = Vec::with_capacity(k1.saturating_sub(1));
    let mut rhs_out: Vec<Matrix> = Vec::with_capacity(k1);

    // Carry: the not-yet-final rows on the current state (r × n_i) + rhs.
    let mut carry: Option<(Matrix, Matrix)> =
        steps[0].obs.as_ref().map(|o| (o.c.clone(), o.rhs.clone()));

    for i in 1..k1 {
        let n_prev = steps[i - 1].state_dim;
        let n_cur = steps[i].state_dim;
        let evo = steps[i].evo.as_ref().expect("validated: evolution exists");
        let _l = evo.b.rows();

        // Stack the carry rows with the evolution rows:
        //   left column (state i−1): [carry; −B_i], right: [0; D_i].
        let neg_b = evo.b.scaled(-1.0);
        let (left, mut stacked_rhs, carry_rows) = match carry.take() {
            Some((c, crhs)) => {
                let rows = c.rows();
                (
                    Matrix::vstack(&[&c, &neg_b]),
                    Matrix::vstack(&[&crhs, &evo.rhs]),
                    rows,
                )
            }
            None => (neg_b, evo.rhs.clone(), 0),
        };
        let (left, padded_rhs) = pad_rows(left, stacked_rhs, n_prev);
        stacked_rhs = padded_rhs;
        let total_rows = left.rows();

        // Companion block on state i: zeros for carry rows, D_i below, then padding.
        let mut companion = Matrix::zeros(total_rows, n_cur);
        companion.set_block(carry_rows, 0, &evo.d);

        // Factor the left column; apply Qᵀ to companion and rhs.
        let qr = QrFactor::new(left);
        qr.apply_qt(&mut companion);
        qr.apply_qt(&mut stacked_rhs);

        diag.push(qr.r());
        offdiag.push(companion.sub_matrix(0, 0, n_prev, n_cur));
        rhs_out.push(stacked_rhs.sub_matrix(0, 0, n_prev, 1));

        // Residual rows on state i: D̃ = rows below n_prev, plus observation rows.
        let resid_rows = total_rows - n_prev;
        let d_tilde = companion.sub_matrix(n_prev, 0, resid_rows, n_cur);
        let r_tilde = stacked_rhs.sub_matrix(n_prev, 0, resid_rows, 1);
        let (new_carry, new_rhs) = match &steps[i].obs {
            Some(o) => (
                Matrix::vstack(&[&d_tilde, &o.c]),
                Matrix::vstack(&[&r_tilde, &o.rhs]),
            ),
            None => (d_tilde, r_tilde),
        };
        // Compress to at most n_cur rows (restores the invariant that the
        // carry stays O(n) — the same trick the odd-even recursion uses).
        let mut rhs_m = new_rhs;
        let compressed = kalman_dense::compress_rows(&new_carry, &mut rhs_m);
        let kept = compressed.rows();
        carry = Some((compressed, rhs_m.sub_matrix(0, 0, kept, 1)));
    }

    // Finalize the last state: its carry becomes R_kk.
    let n_last = steps[k1 - 1].state_dim;
    let (c, crhs) = carry
        .take()
        .unwrap_or_else(|| (Matrix::zeros(0, n_last), Matrix::zeros(0, 1)));
    let (c, crhs) = pad_rows(c, crhs, n_last);
    if c.rows() == n_last && c.is_upper_triangular() {
        diag.push(c);
        rhs_out.push(crhs);
    } else {
        let qr = QrFactor::new(c);
        let mut r = crhs;
        qr.apply_qt(&mut r);
        diag.push(qr.r());
        rhs_out.push(r.sub_matrix(0, 0, n_last, 1));
    }

    BidiagonalR {
        diag,
        offdiag,
        rhs: rhs_out,
    }
}

/// Smooths `model` with the sequential Paige–Saunders algorithm.
///
/// # Errors
///
/// Model validation errors, covariance failures, and
/// [`kalman_model::KalmanError::RankDeficient`] for underdetermined data.
pub fn paige_saunders_smooth(model: &LinearModel, options: SmootherOptions) -> Result<Smoothed> {
    let steps = whiten_model(model)?;
    let r = factor_bidiagonal(&steps);
    let means = r.solve()?;
    let covariances = if options.covariances {
        Some(r.selinv_diag()?)
    } else {
        None
    };
    Ok(Smoothed { means, covariances })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_model::{generators, solve_dense, KalmanError};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn matches_dense_oracle_on_paper_benchmark() {
        let model = generators::paper_benchmark(&mut rng(1), 3, 9, false);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(
            ps.max_mean_diff(&dense) < 1e-9,
            "means {}",
            ps.max_mean_diff(&dense)
        );
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-9);
    }

    #[test]
    fn matches_dense_with_prior() {
        let model = generators::paper_benchmark(&mut rng(2), 4, 7, true);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-9);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-9);
    }

    #[test]
    fn nc_variant_matches_means_without_covs() {
        let model = generators::paper_benchmark(&mut rng(3), 3, 6, false);
        let full = paige_saunders_smooth(&model, SmootherOptions { covariances: true }).unwrap();
        let nc = paige_saunders_smooth(&model, SmootherOptions { covariances: false }).unwrap();
        assert!(nc.covariances.is_none());
        assert!(full.max_mean_diff(&nc) == 0.0);
    }

    #[test]
    fn handles_missing_observations() {
        let model = generators::sparse_observations(&mut rng(4), 2, 15, 4);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-9);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn handles_dimension_changes() {
        let model = generators::dimension_change(&mut rng(5), 2, 9);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-9);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn handles_partial_observations() {
        let p = generators::oscillator(&mut rng(6), 40, 0.05, 2.0, 0.1, 1e-4, 1e-2);
        let ps = paige_saunders_smooth(&p.model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&p.model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-8);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-8);
    }

    #[test]
    fn single_state() {
        let model = generators::paper_benchmark(&mut rng(7), 3, 0, false);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-12);
    }

    #[test]
    fn two_states() {
        let model = generators::paper_benchmark(&mut rng(8), 2, 1, false);
        let ps = paige_saunders_smooth(&model, SmootherOptions::default()).unwrap();
        let dense = solve_dense(&model).unwrap();
        assert!(ps.max_mean_diff(&dense) < 1e-11);
        assert!(ps.max_cov_diff(&dense).unwrap() < 1e-11);
    }

    #[test]
    fn underdetermined_is_detected() {
        // Observation only on state 0; states 1.. unconstrained except by
        // evolution — still full rank actually (evolution chains pin them).
        // Break rank: no observations at all after state 0 and G_0 = 0 rows?
        // Simplest true deficiency: sparse observations with gap > 1 and no
        // prior leaves... evolution rows pin relative motion; with G
        // orthonormal on state 0 the chain is determined. To get genuine
        // deficiency, drop the state-0 observation entirely:
        let mut model = generators::sparse_observations(&mut rng(9), 2, 3, 100);
        model.steps[0].observation = None;
        // Now rows = 3·2 (evolutions) for 8 unknowns → validate() rejects it.
        match paige_saunders_smooth(&model, SmootherOptions::default()) {
            Err(KalmanError::InvalidModel(_)) | Err(KalmanError::RankDeficient { .. }) => {}
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn rank_deficiency_mid_chain_is_detected() {
        // Enough rows but deficient: zero G on state 1 of a 3-state chain
        // with zero F_2 breaks the link: state 1 appears only via D_1 = I
        // and F_2 = 0 rows... keep it simple: zero out both F entering and
        // G at a middle state, making that state's column block zero except
        // D_1 = I (well-determined actually). Use instead zero D (H=0):
        let mut model = generators::paper_benchmark(&mut rng(10), 2, 2, false);
        model.steps[1].evolution.as_mut().unwrap().h = Some(kalman_dense::Matrix::zeros(2, 2));
        model.steps[1].observation = None;
        model.steps[2].evolution.as_mut().unwrap().f = kalman_dense::Matrix::zeros(2, 2);
        // State 1 now appears in no equation with a nonzero coefficient.
        match paige_saunders_smooth(&model, SmootherOptions::default()) {
            Err(KalmanError::RankDeficient { state }) => assert_eq!(state, 1),
            other => panic!("expected rank deficiency, got {other:?}"),
        }
    }
}
