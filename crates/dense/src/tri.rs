//! Triangular solves and inverses.
//!
//! These kernels are used heavily by both SelInv variants (which need
//! `R_jj⁻¹ · B`, `R_jj⁻ᵀ · B`, and `R_jj⁻¹R_jj⁻ᵀ`) and by the
//! back-substitution phases of the QR smoothers.  All of them check for zero
//! diagonal entries and report [`DenseError::Singular`].

use crate::{simd, workspace, DenseError, Matrix, Result};

/// Diagonal-block height of the blocked back substitution: one register
/// tile of [`simd::gemm_tile`].
const DIAG_BLOCK: usize = 8;
/// [`solve_upper_in_place`] runs blocked from this order up …
const BLOCKED_SOLVE_MIN_N: usize = 12;
/// … when there are at least this many right-hand sides for the tile to
/// sweep (one or two columns are a back substitution, not a product).
const BLOCKED_SOLVE_MIN_RHS: usize = 4;

fn check_diag(u: &Matrix) -> Result<()> {
    assert!(u.is_square(), "triangular solve requires a square matrix");
    for i in 0..u.rows() {
        if u[(i, i)] == 0.0 {
            return Err(DenseError::Singular { index: i });
        }
    }
    Ok(())
}

/// Solves `U x = b` in place for each column of `b`, with `U` upper triangular.
///
/// Only the upper triangle of `u` is referenced.  Column-oriented (axpy)
/// back substitution: the inner updates sweep contiguous columns of `u`,
/// which vectorizes, unlike the classic strided row-dot formulation.
///
/// # Errors
///
/// [`DenseError::Singular`] if `U` has a zero diagonal entry.
pub fn solve_upper_in_place(u: &Matrix, b: &mut Matrix) -> Result<()> {
    check_diag(u)?;
    let n = u.rows();
    assert_eq!(b.rows(), n, "solve_upper rhs row mismatch");
    let use_simd = simd::simd_active();
    if use_simd && n >= BLOCKED_SOLVE_MIN_N && b.cols() >= BLOCKED_SOLVE_MIN_RHS {
        solve_upper_blocked(u, b, false);
        return Ok(());
    }
    for k in 0..b.cols() {
        let bk = b.col_mut(k);
        for j in (0..n).rev() {
            let uj = u.col(j);
            let xj = bk[j] / uj[j];
            bk[j] = xj;
            if xj != 0.0 {
                if use_simd {
                    simd::axpy(-xj, &uj[..j], &mut bk[..j]);
                } else {
                    for (bi, &uij) in bk[..j].iter_mut().zip(uj) {
                        *bi -= uij * xj;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Inverse of the upper triangular diagonal block `U[i0..i0+nb, i0..i0+nb]`
/// (`nb ≤ DIAG_BLOCK`) into `inv`, column-major with leading dimension
/// `DIAG_BLOCK`; entries below the diagonal are left as they were (zero).
/// The diagonal must be non-zero (`check_diag` ran).
fn invert_diag_block(u: &Matrix, i0: usize, nb: usize, inv: &mut [f64]) {
    for j in 0..nb {
        let col = &mut inv[j * DIAG_BLOCK..][..=j];
        col[j] = 1.0 / u[(i0 + j, i0 + j)];
        for i in (0..j).rev() {
            let mut acc = 0.0;
            for (k, &xk) in col.iter().enumerate().skip(i + 1) {
                acc += u[(i0 + i, i0 + k)] * xk;
            }
            col[i] = -acc / u[(i0 + i, i0 + i)];
        }
    }
}

/// Blocked back substitution `B ← U⁻¹B`: `DIAG_BLOCK`-row diagonal blocks
/// from the bottom up, each applied as its explicit inverse, and everything
/// above a block updated by one tile GEMM.  With `tri_rhs` the right-hand
/// side is itself upper triangular (the identity, on its way to `U⁻¹`), so
/// a block starting at row `i0` only touches columns `i0..` — the rest is
/// structurally zero and stays so.
fn solve_upper_blocked(u: &Matrix, b: &mut Matrix, tri_rhs: bool) {
    let (n, nrhs) = (u.rows(), b.cols());
    let mut inv = workspace::take_f64(DIAG_BLOCK * DIAG_BLOCK);
    // The solved block rows, copied out so the update below can read them
    // while it writes the rows above in the same columns of `b`.
    let mut x = workspace::take_f64(DIAG_BLOCK * nrhs);
    let mut i1 = n;
    while i1 > 0 {
        let i0 = (i1 - 1) / DIAG_BLOCK * DIAG_BLOCK;
        let nb = i1 - i0;
        let c0 = if tri_rhs { i0 } else { 0 };
        let nc = nrhs - c0;
        invert_diag_block(u, i0, nb, &mut inv);
        let xb = &mut x[..DIAG_BLOCK * nc];
        xb.fill(0.0);
        let rows = &b.as_slice()[i0 + c0 * n..];
        simd::gemm_tile(
            nb, nc, nb, 1.0, &inv, DIAG_BLOCK, rows, 1, n, xb, DIAG_BLOCK,
        );
        for (c, xc) in xb.chunks_exact(DIAG_BLOCK).enumerate() {
            b.col_mut(c0 + c)[i0..i1].copy_from_slice(&xc[..nb]);
        }
        let above = &mut b.as_mut_slice()[c0 * n..];
        simd::gemm_tile(
            i0,
            nc,
            nb,
            -1.0,
            &u.as_slice()[i0 * n..],
            n,
            xb,
            1,
            DIAG_BLOCK,
            above,
            n,
        );
        i1 = i0;
    }
    workspace::put_f64(x);
    workspace::put_f64(inv);
}

/// Solves `Uᵀ x = b` in place for each column of `b`, with `U` upper
/// triangular (so `Uᵀ` is lower triangular).  The dot against column `i`
/// of `u` is contiguous.
///
/// # Errors
///
/// [`DenseError::Singular`] if `U` has a zero diagonal entry.
pub fn solve_upper_transpose_in_place(u: &Matrix, b: &mut Matrix) -> Result<()> {
    check_diag(u)?;
    let n = u.rows();
    assert_eq!(b.rows(), n, "solve_upper_transpose rhs row mismatch");
    let use_simd = simd::simd_active();
    for k in 0..b.cols() {
        let bk = b.col_mut(k);
        for i in 0..n {
            let ui = u.col(i);
            let mut acc = bk[i];
            // (Uᵀ)[i][j] = U[j][i] for j < i — a contiguous column prefix.
            if use_simd {
                acc -= simd::dot(&ui[..i], &bk[..i]);
            } else {
                for (&uji, &bj) in ui[..i].iter().zip(bk.iter()) {
                    acc -= uji * bj;
                }
            }
            bk[i] = acc / ui[i];
        }
    }
    Ok(())
}

/// Solves `L x = b` in place for each column of `b`, with `L` lower triangular.
///
/// Only the lower triangle of `l` is referenced.  Column-oriented (axpy)
/// forward substitution with contiguous column updates.
///
/// # Errors
///
/// [`DenseError::Singular`] if `L` has a zero diagonal entry.
pub fn solve_lower_in_place(l: &Matrix, b: &mut Matrix) -> Result<()> {
    check_diag(l)?;
    let n = l.rows();
    assert_eq!(b.rows(), n, "solve_lower rhs row mismatch");
    let use_simd = simd::simd_active();
    for k in 0..b.cols() {
        let bk = b.col_mut(k);
        for j in 0..n {
            let lj = l.col(j);
            let xj = bk[j] / lj[j];
            bk[j] = xj;
            if xj != 0.0 {
                if use_simd {
                    simd::axpy(-xj, &lj[j + 1..], &mut bk[j + 1..]);
                } else {
                    for (bi, &lij) in bk[j + 1..].iter_mut().zip(&lj[j + 1..]) {
                        *bi -= lij * xj;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Solves `Lᵀ x = b` in place for each column of `b`, with `L` lower
/// triangular.  The dot against column `i` of `l` is contiguous.
///
/// # Errors
///
/// [`DenseError::Singular`] if `L` has a zero diagonal entry.
pub fn solve_lower_transpose_in_place(l: &Matrix, b: &mut Matrix) -> Result<()> {
    check_diag(l)?;
    let n = l.rows();
    assert_eq!(b.rows(), n, "solve_lower_transpose rhs row mismatch");
    let use_simd = simd::simd_active();
    for k in 0..b.cols() {
        let bk = b.col_mut(k);
        for i in (0..n).rev() {
            let li = l.col(i);
            let mut acc = bk[i];
            // (Lᵀ)[i][j] = L[j][i] for j > i — a contiguous column suffix.
            if use_simd {
                acc -= simd::dot(&li[i + 1..], &bk[i + 1..]);
            } else {
                for (&lji, &bj) in li[i + 1..].iter().zip(bk[i + 1..].iter()) {
                    acc -= lji * bj;
                }
            }
            bk[i] = acc / li[i];
        }
    }
    Ok(())
}

/// Solves `X U = B` in place on `b` (i.e. `X = B U⁻¹`), `U` upper triangular.
///
/// # Errors
///
/// [`DenseError::Singular`] if `U` has a zero diagonal entry.
pub fn solve_upper_right_in_place(u: &Matrix, b: &mut Matrix) -> Result<()> {
    check_diag(u)?;
    let n = u.rows();
    assert_eq!(b.cols(), n, "solve_upper_right rhs col mismatch");
    // Column j of X depends on earlier columns of X: X[:,j] = (B[:,j] − Σ_{l<j} X[:,l] U[l,j]) / U[j,j].
    for j in 0..n {
        for l in 0..j {
            let ulj = u[(l, j)];
            if ulj != 0.0 {
                let (xl, xj) = b.two_cols_mut(l, j);
                for (xji, &xli) in xj.iter_mut().zip(xl.iter()) {
                    *xji -= xli * ulj;
                }
            }
        }
        let inv = 1.0 / u[(j, j)];
        for v in b.col_mut(j) {
            *v *= inv;
        }
    }
    Ok(())
}

/// Returns `U⁻¹` for upper triangular `U` (result is upper triangular).
///
/// # Errors
///
/// [`DenseError::Singular`] if `U` has a zero diagonal entry.
pub fn invert_upper(u: &Matrix) -> Result<Matrix> {
    let mut inv = Matrix::identity(u.rows());
    solve_upper_in_place(u, &mut inv)?;
    Ok(inv)
}

/// Returns `L⁻¹` for lower triangular `L` (result is lower triangular).
///
/// # Errors
///
/// [`DenseError::Singular`] if `L` has a zero diagonal entry.
pub fn invert_lower(l: &Matrix) -> Result<Matrix> {
    let mut inv = Matrix::identity(l.rows());
    solve_lower_in_place(l, &mut inv)?;
    Ok(inv)
}

/// Computes `(UᵀU)⁻¹ = U⁻¹ U⁻ᵀ` for upper triangular `U`.
///
/// This is the `R_jj⁻¹R_jj⁻ᵀ` kernel from the SelInv recurrences; the result
/// is symmetric.  Both stages exploit the triangular structure: the inverse
/// `W = U⁻¹` is built column by column over its nonzero prefix only, and
/// the product `W Wᵀ` sums over the shared column suffix — together about
/// a third of the flops of a dense inverse-then-multiply.
///
/// # Errors
///
/// [`DenseError::Singular`] if `U` has a zero diagonal entry.
pub fn inv_gram_upper(u: &Matrix) -> Result<Matrix> {
    inv_gram_upper_with_inverse(u).map(|(s, _)| s)
}

/// [`inv_gram_upper`], handing back as well the inverse `W = U⁻¹` the
/// blocked path forms on the way (from n = 12 with the SIMD layer on), so a
/// caller that also needs `U⁻¹B` can take it as one product `W·B`.  `None`
/// below that order and under the reference kernels, where `W` is built a
/// column at a time and the caller's triangular solve stays the method.
///
/// # Errors
///
/// [`DenseError::Singular`] if `U` has a zero diagonal entry.
pub fn inv_gram_upper_with_inverse(u: &Matrix) -> Result<(Matrix, Option<Matrix>)> {
    check_diag(u)?;
    let n = u.rows();
    // W = U⁻¹ (upper triangular): column j solves U x = e_j over rows 0..=j
    // by column-oriented back substitution (contiguous axpy updates).
    let use_simd = simd::simd_active();
    if use_simd && n >= BLOCKED_SOLVE_MIN_N {
        let (s, w) = inv_gram_blocked(u);
        return Ok((s, Some(w)));
    }
    let mut w = Matrix::zeros(n, n);
    for j in 0..n {
        let wj = w.col_mut(j);
        wj[j] = 1.0;
        for k in (0..=j).rev() {
            let uk = u.col(k);
            let xk = wj[k] / uk[k];
            wj[k] = xk;
            if xk != 0.0 {
                if use_simd {
                    simd::axpy(-xk, &uk[..k], &mut wj[..k]);
                } else {
                    for (wi, &uik) in wj[..k].iter_mut().zip(uk) {
                        *wi -= uik * xk;
                    }
                }
            }
        }
    }
    // S = W Wᵀ: S[i,j] = Σ_{k ≥ j} W[i,k]·W[j,k] for i ≤ j (contiguous row
    // pairs would be strided; sum column-wise instead).
    let mut s = Matrix::zeros(n, n);
    for k in 0..n {
        let wk = w.col(k);
        for j in 0..=k {
            let wjk = wk[j];
            if wjk != 0.0 {
                let sj = s.col_mut(j);
                if use_simd {
                    simd::axpy(wjk, &wk[..=j], &mut sj[..=j]);
                } else {
                    for (si, &wik) in sj[..=j].iter_mut().zip(&wk[..=j]) {
                        *si += wik * wjk;
                    }
                }
            }
        }
    }
    // Mirror the lower triangle (accumulated in the upper part above).
    for j in 0..n {
        for i in 0..j {
            s[(j, i)] = s[(i, j)];
        }
    }
    Ok((s, None))
}

/// `U·B` for an upper triangular `U` whose strictly lower part is zero — as
/// in the inverse [`inv_gram_upper_with_inverse`] hands back.  On the SIMD
/// layer the product runs one tile height of rows at a time and skips the
/// zero blocks left of the diagonal, which only ever added exact zeros: the
/// bits are those of the full product on the tile, in about two thirds of
/// its time at n = 48.  Under the reference kernels it is [`gemm`](crate::gemm).
///
/// # Panics
///
/// Panics if `U` is not square or `B` has a different row count.
pub fn upper_mul(u: &Matrix, b: &Matrix) -> Matrix {
    let n = u.rows();
    assert!(u.is_square(), "upper_mul: U must be square");
    assert_eq!(b.rows(), n, "upper_mul: B row mismatch");
    let mut x = Matrix::zeros(n, b.cols());
    if !simd::simd_active() {
        crate::gemm(1.0, u, crate::Trans::No, b, crate::Trans::No, 0.0, &mut x);
        return x;
    }
    let (us, bs, cols) = (u.as_slice(), b.as_slice(), b.cols());
    let xs = x.as_mut_slice();
    let strip = simd::tile_rows();
    for i0 in (0..n).step_by(strip) {
        let rows = strip.min(n - i0);
        simd::gemm_tile(
            rows,
            cols,
            n - i0,
            1.0,
            &us[i0 + i0 * n..],
            n,
            &bs[i0..],
            1,
            n,
            &mut xs[i0..],
            n,
        );
    }
    x
}

/// Column-strip width of the `W·Wᵀ` product: one tile width, which wastes
/// the least work below the diagonal (12 and 24 read 4 % and 20 % slower
/// at n = 48).
const GRAM_STRIP: usize = 6;

/// [`inv_gram_upper`] on the tile: `W = U⁻¹` by the blocked solve on the
/// identity, then the upper triangle of `S = W·Wᵀ` strip by strip — strip
/// `j0..j1` needs rows `0..j1` and, `W` being upper triangular, only
/// `k ≥ j0` of the inner sum.  Returns `S` and `W`.
fn inv_gram_blocked(u: &Matrix) -> (Matrix, Matrix) {
    let n = u.rows();
    let mut w = Matrix::identity(n);
    solve_upper_blocked(u, &mut w, true);
    let mut s = Matrix::zeros(n, n);
    let ws = w.as_slice();
    for j0 in (0..n).step_by(GRAM_STRIP) {
        let j1 = (j0 + GRAM_STRIP).min(n);
        let strip = &mut s.as_mut_slice()[j0 * n..];
        simd::gemm_tile(
            j1,
            j1 - j0,
            n - j0,
            1.0,
            &ws[j0 * n..],
            n,
            &ws[j0 + j0 * n..],
            n,
            1,
            strip,
            n,
        );
    }
    for j in 0..n {
        for i in 0..j {
            s[(j, i)] = s[(i, j)];
        }
    }
    (s, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tn};

    fn upper() -> Matrix {
        Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[0.0, 3.0, 0.5], &[0.0, 0.0, 1.5]])
    }

    fn lower() -> Matrix {
        upper().transpose()
    }

    #[test]
    fn solve_upper_residual() {
        let u = upper();
        let b = Matrix::from_fn(3, 2, |i, j| (i + j + 1) as f64);
        let mut x = b.clone();
        solve_upper_in_place(&u, &mut x).unwrap();
        assert!(matmul(&u, &x).approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_upper_transpose_residual() {
        let u = upper();
        let b = Matrix::from_fn(3, 2, |i, j| (2 * i + j) as f64);
        let mut x = b.clone();
        solve_upper_transpose_in_place(&u, &mut x).unwrap();
        assert!(matmul_tn(&u, &x).approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_lower_residual() {
        let l = lower();
        let b = Matrix::from_fn(3, 2, |i, j| (i * 2 + j + 1) as f64);
        let mut x = b.clone();
        solve_lower_in_place(&l, &mut x).unwrap();
        assert!(matmul(&l, &x).approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_lower_transpose_residual() {
        let l = lower();
        let b = Matrix::from_fn(3, 1, |i, _| (i + 1) as f64);
        let mut x = b.clone();
        solve_lower_transpose_in_place(&l, &mut x).unwrap();
        assert!(matmul(&l.transpose(), &x).approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_upper_right_residual() {
        let u = upper();
        let b = Matrix::from_fn(2, 3, |i, j| (i + 3 * j) as f64 + 0.5);
        let mut x = b.clone();
        solve_upper_right_in_place(&u, &mut x).unwrap();
        assert!(matmul(&x, &u).approx_eq(&b, 1e-12));
    }

    #[test]
    fn invert_upper_gives_inverse() {
        let u = upper();
        let inv = invert_upper(&u).unwrap();
        assert!(matmul(&u, &inv).approx_eq(&Matrix::identity(3), 1e-12));
        // Result stays upper triangular.
        assert_eq!(inv[(2, 0)], 0.0);
        assert_eq!(inv[(1, 0)], 0.0);
    }

    #[test]
    fn invert_lower_gives_inverse() {
        let l = lower();
        let inv = invert_lower(&l).unwrap();
        assert!(matmul(&l, &inv).approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn inv_gram_matches_dense_inverse() {
        let u = upper();
        let s = inv_gram_upper(&u).unwrap();
        // s * (UᵀU) == I
        let gram = matmul_tn(&u, &u);
        assert!(matmul(&s, &gram).approx_eq(&Matrix::identity(3), 1e-12));
    }

    /// The inverse handed back beside `S` is `U⁻¹`, wherever the blocked
    /// path formed one.
    #[test]
    fn inv_gram_hands_back_the_inverse_it_formed() {
        for n in [3usize, 12, 48] {
            let u = crate::QrFactor::new(crate::random::deterministic_well_conditioned(n, n)).r();
            let (s, w) = inv_gram_upper_with_inverse(&u).unwrap();
            assert!(s.approx_eq(&inv_gram_upper(&u).unwrap(), 0.0), "n={n}");
            match w {
                Some(w) => {
                    assert!(n >= BLOCKED_SOLVE_MIN_N && simd::simd_active(), "n={n}");
                    assert!(
                        matmul(&u, &w).approx_eq(&Matrix::identity(n), 1e-12),
                        "n={n}"
                    );
                }
                None => assert!(n < BLOCKED_SOLVE_MIN_N || !simd::simd_active(), "n={n}"),
            }
        }
    }

    /// `upper_mul` skips `U`'s zero blocks and still forms every entry as
    /// the full product does, bit for bit, ragged strips included.
    #[test]
    fn upper_mul_is_the_full_product_bitwise() {
        use crate::gemm::{gemm, gemm_blocked};
        use crate::random::deterministic_well_conditioned as sample;
        for (n, cols) in [(3usize, 2usize), (12, 5), (17, 17), (48, 49)] {
            let u = crate::QrFactor::new(sample(n, n)).r();
            let b = sample(2 * n, cols).sub_matrix(n, 0, n, cols);
            let full = if simd::simd_active() {
                gemm_blocked
            } else {
                gemm
            };
            let mut want = Matrix::zeros(n, cols);
            full(
                1.0,
                &u,
                crate::Trans::No,
                &b,
                crate::Trans::No,
                0.0,
                &mut want,
            );
            let got = upper_mul(&u, &b);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n={n} cols={cols}");
        }
    }

    #[test]
    fn singular_diagonal_is_reported() {
        let mut u = upper();
        u[(1, 1)] = 0.0;
        let mut b = Matrix::col_from_slice(&[1.0, 2.0, 3.0]);
        match solve_upper_in_place(&u, &mut b) {
            Err(DenseError::Singular { index }) => assert_eq!(index, 1),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn lower_ignores_upper_entries() {
        // Garbage above the diagonal must not affect solve_lower.
        let mut l = lower();
        l[(0, 2)] = 99.0;
        let b = Matrix::col_from_slice(&[2.0, 1.0, 3.0]);
        let mut x = b.clone();
        solve_lower_in_place(&l, &mut x).unwrap();
        let mut clean = lower();
        clean[(0, 2)] = 0.0;
        assert!(matmul(&clean, &x).approx_eq(&b, 1e-12));
    }
}
