//! General matrix multiply: the register-tile path ([`simd::gemm_tile`]),
//! the register-resident `N×N` kernel [`simd::gemm_mono`] at `N ∈ {4, 8}`,
//! and the original loop-nest kernel, retained as `gemm_ref` — the
//! reference oracle the property tests compare against, and what tiny
//! products still run.  [`gemm`] picks among them from the operands'
//! shapes alone.

use crate::simd::{self, KernelKind};
use crate::{workspace, Matrix};

/// Transpose option for [`gemm`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as-is.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Trans {
    #[inline]
    fn dims(self, m: &Matrix) -> (usize, usize) {
        match self {
            Trans::No => (m.rows(), m.cols()),
            Trans::Yes => (m.cols(), m.rows()),
        }
    }
}

/// Problems below this `m·k·n` volume use the reference loops: the tile's
/// fixed cost per call (extent checks, masks, one zeroed accumulator set per
/// tile) only pays from about 4×4×4 up.  Read off a sweep of cubes and
/// rectangles on the 2-core container: 2³ 0.84×, 3³ 1.2×, 4³ 1.8×, 6³ 2.0×,
/// 8³ 5×, a 6×1×6 outer product 0.5–0.7×, 8×8×1 1.6×.
const BLOCK_MIN_VOLUME: usize = 64;

fn check_dims(a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, c: &Matrix) -> (usize, usize, usize) {
    let (am, ak) = ta.dims(a);
    let (bk, bn) = tb.dims(b);
    assert_eq!(ak, bk, "gemm inner dimension mismatch: {ak} vs {bk}");
    assert_eq!(c.rows(), am, "gemm output row mismatch");
    assert_eq!(c.cols(), bn, "gemm output col mismatch");
    (am, ak, bn)
}

#[inline]
fn scale_c(beta: f64, c: &mut Matrix) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        c.scale(beta);
    }
}

/// General matrix multiply: `c = alpha * op(a) * op(b) + beta * c`.
///
/// `op(x)` is `x` or `xᵀ` according to the [`Trans`] flags.  The body is
/// chosen from the operands' shapes alone, so the same block takes the same
/// body wherever it shows up: `N×N` products with `N ∈ {4, 8}` and
/// `op(A) = A` run the register-resident [`simd::gemm_mono`], every other
/// product but the tiny ones runs the register tile ([`simd::gemm_tile`]):
/// `A` is read in place, `op(B)` through a stride pair, so only
/// `op(A) = Aᵀ` copies anything (one transpose into a pooled buffer).  Tiny
/// products, and everything under the reference kernels, use [`gemm_ref`].
/// Every path is deterministic: results are bitwise identical run-to-run
/// and across `ExecPolicy` choices.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn gemm(alpha: f64, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, beta: f64, c: &mut Matrix) {
    let (am, ak, bn) = check_dims(a, ta, b, tb, c);
    let reference = workspace::reference_kernels();
    // Tested before `scale_c`: the kernel folds β into its register-resident
    // columns itself.
    if !reference
        && alpha != 0.0
        && ta == Trans::No
        && matches!((am, ak, bn), (4, 4, 4) | (8, 8, 8))
    {
        simd::note_mono();
        let (a, b, b_trans) = (a.as_slice(), b.as_slice(), tb == Trans::Yes);
        if am == 4 {
            simd::gemm_mono::<4>(alpha, a, b, b_trans, beta, c.as_mut_slice());
        } else {
            simd::gemm_mono::<8>(alpha, a, b, b_trans, beta, c.as_mut_slice());
        }
        return;
    }
    scale_c(beta, c);
    if alpha == 0.0 || am == 0 || bn == 0 || ak == 0 {
        return;
    }
    if reference || am * ak * bn < BLOCK_MIN_VOLUME {
        simd::note_scalar();
        accumulate_ref(alpha, a, ta, b, tb, c);
    } else {
        simd::note_simd();
        accumulate_blocked(alpha, a, ta, b, tb, c);
    }
}

impl KernelKind {
    /// [`gemm`] itself, whatever the kind: the body follows the operands'
    /// shapes.  Kept only because the end-to-end benchmark's `dense` probe
    /// (`benchmark/src/probes.rs`) binds its product through it; it goes
    /// with the next revision of that harness (ROADMAP A(2)).
    pub fn gemm(self) -> fn(f64, &Matrix, Trans, &Matrix, Trans, f64, &mut Matrix) {
        gemm
    }
}

/// The register-tile GEMM path unconditionally, regardless of problem
/// volume and of the reference-kernel switch — for callers that know their
/// sizes and for property tests pinning the tile against [`gemm_ref`] on
/// every shape, including ones below the dispatch threshold.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn gemm_blocked(
    alpha: f64,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    beta: f64,
    c: &mut Matrix,
) {
    let (am, ak, bn) = check_dims(a, ta, b, tb, c);
    scale_c(beta, c);
    if alpha == 0.0 || am == 0 || bn == 0 || ak == 0 {
        return;
    }
    accumulate_blocked(alpha, a, ta, b, tb, c);
}

/// The unblocked reference GEMM (`c = alpha * op(a) * op(b) + beta * c`):
/// simple loop nests ordered for contiguous column-major access.  This is
/// the oracle the blocked path is property-tested against, and the kernel
/// the benchmarks call when `KALMAN_REF_KERNELS` is set.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn gemm_ref(
    alpha: f64,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    beta: f64,
    c: &mut Matrix,
) {
    let (am, ak, bn) = check_dims(a, ta, b, tb, c);
    scale_c(beta, c);
    if alpha == 0.0 || am == 0 || bn == 0 || ak == 0 {
        return;
    }
    accumulate_ref(alpha, a, ta, b, tb, c);
}

/// `c += alpha * op(a) * op(b)` with the original loop nests.
fn accumulate_ref(alpha: f64, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, c: &mut Matrix) {
    let (am, ak) = ta.dims(a);
    let bn = tb.dims(b).1;
    match (ta, tb) {
        (Trans::No, Trans::No) => {
            // c[:,j] += alpha * b[l,j] * a[:,l]  — all accesses contiguous.
            for j in 0..bn {
                let bj = b.col(j);
                for (l, &bl) in bj.iter().enumerate().take(ak) {
                    let w = alpha * bl;
                    if w != 0.0 {
                        let al = a.col(l);
                        let cj = c.col_mut(j);
                        for (ci, &ai) in cj.iter_mut().zip(al) {
                            *ci += w * ai;
                        }
                    }
                }
            }
        }
        (Trans::Yes, Trans::No) => {
            // c[i,j] += alpha * dot(a[:,i], b[:,j]) — contiguous dot products.
            for j in 0..bn {
                let bj = b.col(j);
                for i in 0..am {
                    let ai = a.col(i);
                    let mut acc = 0.0;
                    for (&x, &y) in ai.iter().zip(bj) {
                        acc += x * y;
                    }
                    c[(i, j)] += alpha * acc;
                }
            }
        }
        (Trans::No, Trans::Yes) => {
            // c[:,j] += alpha * b[j,l] * a[:,l]
            for l in 0..ak {
                let al = a.col(l);
                let bl = b.col(l); // b[j, l] over j: column l of b.
                for (j, &bjl) in bl.iter().enumerate() {
                    let w = alpha * bjl;
                    if w != 0.0 {
                        let cj = c.col_mut(j);
                        for (ci, &ai) in cj.iter_mut().zip(al) {
                            *ci += w * ai;
                        }
                    }
                }
            }
        }
        (Trans::Yes, Trans::Yes) => {
            // c[i,j] += alpha * dot(a[:,i], b[j,:]); the b access is strided.
            for j in 0..bn {
                for i in 0..am {
                    let ai = a.col(i);
                    let mut acc = 0.0;
                    for (l, &x) in ai.iter().enumerate() {
                        acc += x * b[(j, l)];
                    }
                    c[(i, j)] += alpha * acc;
                }
            }
        }
    }
}

/// `c += alpha * op(a) * op(b)` through the register tile
/// ([`simd::gemm_tile`]).  `A` columns are read where they are and `op(B)`
/// through a stride pair, so `op(A) = A` needs no packing at all; `op(A) =
/// Aᵀ` takes one transposing copy into a pooled buffer.
fn accumulate_blocked(alpha: f64, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, c: &mut Matrix) {
    let (am, ak) = ta.dims(a);
    let bn = tb.dims(b).1;
    let (bks, bjs) = match tb {
        Trans::No => (1, b.rows()),
        Trans::Yes => (b.rows(), 1),
    };
    let at = (ta == Trans::Yes).then(|| {
        let mut at = workspace::take_f64(am * ak);
        for (i, col) in a.as_slice().chunks_exact(ak).enumerate() {
            for (slot, &v) in at[i..].iter_mut().step_by(am).zip(col) {
                *slot = v;
            }
        }
        at
    });
    let a_cols = at.as_deref().unwrap_or(a.as_slice());
    simd::gemm_tile(
        am,
        bn,
        ak,
        alpha,
        a_cols,
        am,
        b.as_slice(),
        bks,
        bjs,
        c.as_mut_slice(),
        am,
    );
    if let Some(at) = at {
        workspace::put_f64(at);
    }
}

/// `a * b` as a new matrix.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(1.0, a, Trans::No, b, Trans::No, 0.0, &mut c);
    c
}

/// `aᵀ * b` as a new matrix.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    gemm(1.0, a, Trans::Yes, b, Trans::No, 0.0, &mut c);
    c
}

/// `a * bᵀ` as a new matrix.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    gemm(1.0, a, Trans::No, b, Trans::Yes, 0.0, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
    }

    fn b() -> Matrix {
        Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[10.0, 11.0, 12.0]])
    }

    #[test]
    fn matmul_nn() {
        let c = matmul(&a(), &b());
        let expect = Matrix::from_rows(&[
            &[27.0, 30.0, 33.0],
            &[61.0, 68.0, 75.0],
            &[95.0, 106.0, 117.0],
        ]);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let c = matmul_tn(&a(), &a());
        let expect = matmul(&a().transpose(), &a());
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let c = matmul_nt(&a(), &a());
        let expect = matmul(&a(), &a().transpose());
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn gemm_accumulates_with_beta() {
        let mut c = Matrix::identity(3);
        gemm(2.0, &a(), Trans::No, &b(), Trans::No, 3.0, &mut c);
        // c = 2*a*b + 3*I
        let ab = matmul(&a(), &b());
        let mut expect = ab.scaled(2.0);
        expect += &Matrix::identity(3).scaled(3.0);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn gemm_alpha_zero_only_scales() {
        let mut c = a();
        gemm(
            0.0,
            &a(),
            Trans::No,
            &Matrix::zeros(2, 2),
            Trans::No,
            0.5,
            &mut c,
        );
        assert!(c.approx_eq(&a().scaled(0.5), 1e-15));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_dim_mismatch_panics() {
        let mut c = Matrix::zeros(3, 3);
        gemm(1.0, &a(), Trans::No, &a(), Trans::No, 0.0, &mut c);
    }

    #[test]
    fn empty_matrices_are_fine() {
        let e = Matrix::zeros(0, 0);
        let c = matmul(&e, &e);
        assert!(c.is_empty());
        let left = Matrix::zeros(2, 0);
        let right = Matrix::zeros(0, 3);
        let c2 = matmul(&left, &right);
        assert_eq!(c2.rows(), 2);
        assert_eq!(c2.cols(), 3);
        assert_eq!(c2.max_abs(), 0.0);
    }

    /// `gemm` on `N×N` operands with `N ∈ {4, 8}` must agree with the
    /// reference loops (both `op(B)` cases, accumulate and overwrite), and
    /// a mismatched shape must take the general ladder and stay correct.
    #[test]
    fn mono_entries_match_reference() {
        for n in [4, 8] {
            let x = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 5) as f64).sin());
            let y = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 11) as f64).cos());
            for tb in [Trans::No, Trans::Yes] {
                for beta in [0.0, 1.0, 0.5] {
                    let mut c_mono = Matrix::from_fn(n, n, |i, j| (i * n + j) as f64);
                    let mut c_ref = c_mono.clone();
                    gemm(1.5, &x, Trans::No, &y, tb, beta, &mut c_mono);
                    gemm_ref(1.5, &x, Trans::No, &y, tb, beta, &mut c_ref);
                    assert!(
                        c_mono.approx_eq(&c_ref, 1e-12 * (1.0 + c_ref.max_abs())),
                        "mono n={n} tb={tb:?} beta={beta}: {}",
                        c_mono.max_abs_diff(&c_ref)
                    );
                }
            }
            let tall = Matrix::from_fn(2 * n, n, |i, j| (i + 2 * j) as f64);
            let mut c_mono = Matrix::zeros(2 * n, n);
            let mut c_ref = Matrix::zeros(2 * n, n);
            gemm(1.0, &tall, Trans::No, &y, Trans::No, 0.0, &mut c_mono);
            gemm_ref(1.0, &tall, Trans::No, &y, Trans::No, 0.0, &mut c_ref);
            assert!(c_mono.approx_eq(&c_ref, 1e-11 * (1.0 + c_ref.max_abs())));
        }
    }

    /// One `N×N` block, one body: `gemm` on `N×N` operands (`N ∈ {4, 8}`,
    /// `op(A) = A`) returns bitwise what [`simd::gemm_mono`] returns on the
    /// same slices, whoever calls it — no caller binds the kernel.
    #[test]
    fn square_products_take_the_mono_body_bitwise() {
        if workspace::reference_kernels() {
            println!("skipped: the reference kernels are forced, so gemm runs its loop nests");
            return;
        }
        for n in [4, 8] {
            let x = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f64).sin());
            let y = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 13) as f64).cos());
            for tb in [Trans::No, Trans::Yes] {
                for beta in [0.0, 1.0, 0.5] {
                    let c0 = Matrix::from_fn(n, n, |i, j| ((i + 3 * j) as f64).sin());
                    let mut got = c0.clone();
                    gemm(-1.25, &x, Trans::No, &y, tb, beta, &mut got);
                    let mut want = c0.into_vec();
                    let (xs, ys, bt) = (x.as_slice(), y.as_slice(), tb == Trans::Yes);
                    if n == 4 {
                        simd::gemm_mono::<4>(-1.25, xs, ys, bt, beta, &mut want);
                    } else {
                        simd::gemm_mono::<8>(-1.25, xs, ys, bt, beta, &mut want);
                    }
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(&want),
                        "n={n} tb={tb:?} beta={beta}"
                    );
                }
            }
        }
    }

    /// The tile path must agree with the reference loops on every
    /// transpose combination and on shapes that exercise every tile edge
    /// (non-multiples of 8 rows and 6 columns, tall, wide, deep).
    #[test]
    fn blocked_path_matches_reference_all_transposes() {
        let shapes = [(17, 13, 19), (33, 5, 64), (4, 100, 4), (65, 65, 1)];
        for (m, k, n) in shapes {
            let x = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) as f64).sin());
            let y = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 3) as f64).cos());
            let xt = x.transpose();
            let yt = y.transpose();
            for (aa, ta, bb, tb) in [
                (&x, Trans::No, &y, Trans::No),
                (&xt, Trans::Yes, &y, Trans::No),
                (&x, Trans::No, &yt, Trans::Yes),
                (&xt, Trans::Yes, &yt, Trans::Yes),
            ] {
                let mut c_blocked = Matrix::from_fn(m, n, |i, j| (i + j) as f64);
                let mut c_ref = c_blocked.clone();
                accumulate_blocked(1.5, aa, ta, bb, tb, &mut c_blocked);
                gemm_ref(1.5, aa, ta, bb, tb, 1.0, &mut c_ref);
                assert!(
                    c_blocked.approx_eq(&c_ref, 1e-11 * (1.0 + c_ref.max_abs())),
                    "mismatch at ({m},{k},{n}) {ta:?}/{tb:?}: {}",
                    c_blocked.max_abs_diff(&c_ref)
                );
            }
        }
    }
}
