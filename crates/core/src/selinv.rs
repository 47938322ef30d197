//! Parallel odd-even block SelInv (the paper's Algorithm 2, §4).
//!
//! Computes the blocks of `S = (RᵀR)⁻¹` that are nonzero in `R` — in
//! particular the diagonal blocks, which are the covariances `cov(û_i)` of
//! the smoothed states.  `R` maps onto the `LDLᵀ` form SelInv expects via
//! `D_ii = R_iiᵀR_ii`, `L_ij = R_jiᵀR_jj⁻ᵀ`; in terms of `R` the recurrences
//! become
//!
//! ```text
//! S_{j,I} = −R_jj⁻¹ R_{j,I} S_{I,I}
//! S_jj    =  R_jj⁻¹R_jj⁻ᵀ − S_{j,I} (R_jj⁻¹R_{j,I})ᵀ
//! ```
//!
//! where `I` indexes the (at most two) off-diagonal blocks of block row `j`.
//! Processing runs level by level from the recursion's root back to level 0
//! — the reverse of elimination — with all columns of a level handled in
//! parallel: their `I` sets only reference deeper (already processed)
//! columns.  `|I| ≤ 2` makes each step a constant number of small
//! triangular solves and multiplications, so the arithmetic stays `Θ(kn³)`
//! and the critical path `Θ(log k · n log n)`.

use crate::rfactor::OddEvenR;
use kalman_dense::{tri, KernelKind, Matrix, Trans};
use kalman_model::{KalmanError, Result};
use kalman_par::{map_collect_into, ExecPolicy};

/// The computed selected-inverse blocks for one block row.  The off blocks
/// are inline (`|I| ≤ 2` structurally), so an `SRow` owns no containers and
/// overwriting one in the reused table churns nothing but pooled matrices.
#[derive(Debug, Clone)]
struct SRow {
    /// `S_jj` (symmetric).
    diag: Matrix,
    /// `S_{j,a}` for each off-diagonal target `a` of row `j`, in the same
    /// order as `OddEvenR::rows[j].off`.
    off: [Option<(usize, Matrix)>; 2],
}

/// Reusable containers for [`selinv_diag_into_with`]: the selected-inverse
/// row table and per-level batch results.  Carries no state between calls;
/// `Clone` yields a fresh one.
#[derive(Debug, Default)]
pub struct SelinvScratch {
    s: Vec<Option<SRow>>,
    computed: Vec<Option<Result<SRow>>>,
}

impl Clone for SelinvScratch {
    fn clone(&self) -> Self {
        SelinvScratch::default()
    }
}

/// Looks up `S_{a,b}` from already-computed rows (`a != b`): stored either
/// on row `a` (as `(b, S_ab)`) or on row `b` (as `(a, S_ba)`, which the
/// caller consumes transposed via the returned [`Trans`] flag — no copy).
fn lookup_cross(s: &[Option<SRow>], a: usize, b: usize) -> (&Matrix, Trans) {
    if let Some(row) = &s[a] {
        for (t, m) in row.off.iter().flatten() {
            if *t == b {
                return (m, Trans::No);
            }
        }
    }
    if let Some(row) = &s[b] {
        for (t, m) in row.off.iter().flatten() {
            if *t == a {
                return (m, Trans::Yes);
            }
        }
    }
    panic!("SelInv invariant violated: S[{a},{b}] not in the sparsity pattern");
}

/// Computes the diagonal blocks `cov(û_i) = S_ii` of `S = (RᵀR)⁻¹`.
///
/// # Errors
///
/// [`KalmanError::RankDeficient`] naming the first singular diagonal block.
pub fn selinv_diag(r: &OddEvenR, policy: ExecPolicy) -> Result<Vec<Matrix>> {
    let mut out = Vec::new();
    let mut scratch = SelinvScratch::default();
    selinv_diag_into_with(KernelKind::Auto, r, policy, &mut out, &mut scratch)?;
    Ok(out)
}

/// [`selinv_diag`] into reused storage, with plan-time kernel selection:
/// `out` receives one covariance block per state and `scratch` keeps the
/// row table and batch buffers warm, so repeated runs over same-shaped
/// factors allocate nothing beyond pooled matrices.  `kind` binds the GEMM
/// entry once per call (a [`kalman_dense::GemmFn`] pointer), so a
/// monomorphized plan's accumulation updates skip per-call shape dispatch.
///
/// # Errors
///
/// [`KalmanError::RankDeficient`] naming the first singular diagonal block.
pub fn selinv_diag_into_with(
    kind: KernelKind,
    r: &OddEvenR,
    policy: ExecPolicy,
    out: &mut Vec<Matrix>,
    scratch: &mut SelinvScratch,
) -> Result<()> {
    let gemm = kind.gemm();
    let k1 = r.num_states();
    let s = &mut scratch.s;
    s.clear();
    s.resize_with(k1, || None);

    // Root-to-level-0: reverse elimination order.  As in the solve phase,
    // levels that fit in one grain run sequentially (bitwise identical).
    for level in r.levels.iter().rev() {
        let level_policy = policy.for_len(level.len());
        {
            let s_ref = &*s;
            map_collect_into(level_policy, level.len(), &mut scratch.computed, |idx| {
                let j = level[idx];
                let row = &r.rows[j];
                // X_a = R_jj⁻¹ R_{j,a} for each target a (|off| ≤ 2 is a
                // structural invariant of the odd-even factorization; the
                // inline arrays below rely on it).
                debug_assert!(
                    row.off.len() <= 2,
                    "row {j} has {} off blocks",
                    row.off.len()
                );
                let mut xs: [Option<(usize, Matrix)>; 2] = [None, None];
                for (slot, (a, block)) in xs.iter_mut().zip(&row.off) {
                    // lint: allow(alloc, "owned input to the in-place triangular solve; bounded by one off-diagonal block (n_j x n_a)")
                    let mut x = block.clone();
                    tri::solve_upper_in_place(&row.diag, &mut x)
                        .map_err(|_| KalmanError::RankDeficient { state: j })?;
                    *slot = Some((*a, x));
                }
                // S_{j,a} = −Σ_b X_b S_{b,a}, accumulated in place through
                // `gemm` (no temporaries, transposed lookups read directly).
                let mut s_off: [Option<(usize, Matrix)>; 2] = [None, None];
                for (slot, (a, _)) in s_off.iter_mut().zip(xs.iter().flatten()) {
                    let na = r.rows[*a].diag.cols();
                    let mut acc = Matrix::zeros(row.diag.cols(), na);
                    for (b, xb) in xs.iter().flatten() {
                        let (s_ba, trans) = if b == a {
                            let diag = &s_ref[*b]
                                .as_ref()
                                .expect("deeper level already processed")
                                .diag;
                            (diag, Trans::No)
                        } else {
                            lookup_cross(s_ref, *b, *a)
                        };
                        gemm(-1.0, xb, Trans::No, s_ba, trans, 1.0, &mut acc);
                    }
                    *slot = Some((*a, acc));
                }
                // S_jj = R_jj⁻¹R_jj⁻ᵀ − Σ_a S_{j,a} X_aᵀ.
                let mut diag = tri::inv_gram_upper(&row.diag)
                    .map_err(|_| KalmanError::RankDeficient { state: j })?;
                for ((_, s_ja), (_, xa)) in s_off.iter().flatten().zip(xs.iter().flatten()) {
                    gemm(-1.0, s_ja, Trans::No, xa, Trans::Yes, 1.0, &mut diag);
                }
                diag.symmetrize();
                Ok(SRow { diag, off: s_off })
            });
        }
        for (idx, slot) in scratch.computed.iter_mut().enumerate() {
            let row = slot.take().expect("filled above")?;
            s[level[idx]] = Some(row);
        }
    }

    out.clear();
    for row in s.iter_mut() {
        out.push(row.take().expect("all states processed").diag); // lint: allow(alloc, "push into cleared output that retains capacity across windows; amortized, steady-state alloc-free")
    }
    Ok(())
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
}
