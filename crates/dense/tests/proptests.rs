//! Property-based tests for the dense kernels.
//!
//! Strategy: generate random well-scaled matrices and verify algebraic
//! invariants (reconstruction, orthogonality, residuals) rather than
//! comparing against golden values.

use kalman_dense::{
    gemm, gemm_blocked, gemm_ref, matmul, matmul_nt, matmul_tn, random, simd, tri, Cholesky,
    KernelKind, LuFactor, Matrix, QrFactor, Trans,
};
use proptest::prelude::*;

/// A strategy producing an `m × n` matrix with entries in [-10, 10].
fn matrix_strategy(m: usize, n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, m * n)
        .prop_map(move |data| Matrix::from_col_major(m, n, data))
}

/// Dims (m, n) with m >= n >= 1, both small.
fn tall_dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..8).prop_flat_map(|n| (n..12usize, Just(n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The packed/microkernel GEMM must agree with the reference loop nest
    /// on every shape — zero/unit dimensions, non-multiples of the 4×4
    /// register tile and packing blocks, tall and wide operands — for all
    /// four transpose combinations, to 1e-12.
    #[test]
    fn blocked_gemm_matches_reference_all_shapes(
        mi in 0usize..9, ki in 0usize..9, ni in 0usize..9,
        ta_flag: bool, tb_flag: bool,
        seed in 0u64..1000,
    ) {
        let sizes = [0usize, 1, 3, 4, 5, 8, 13, 17, 33];
        let (m, k, n) = (sizes[mi], sizes[ki], sizes[ni]);
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let ta = if ta_flag { Trans::Yes } else { Trans::No };
        let tb = if tb_flag { Trans::Yes } else { Trans::No };
        let a = if ta_flag { random::gaussian(&mut rng, k, m) } else { random::gaussian(&mut rng, m, k) };
        let b = if tb_flag { random::gaussian(&mut rng, n, k) } else { random::gaussian(&mut rng, k, n) };
        let c0 = random::gaussian(&mut rng, m, n);
        let mut c_blk = c0.clone();
        let mut c_ref = c0.clone();
        gemm_blocked(1.3, &a, ta, &b, tb, 0.7, &mut c_blk);
        gemm_ref(1.3, &a, ta, &b, tb, 0.7, &mut c_ref);
        prop_assert!(
            c_blk.approx_eq(&c_ref, 1e-12 * (1.0 + c_ref.max_abs())),
            "({m},{k},{n}) {ta:?}/{tb:?}: {}", c_blk.max_abs_diff(&c_ref)
        );
        // The public dispatching entry agrees with the reference too.
        let mut c_dispatch = c0.clone();
        gemm(1.3, &a, ta, &b, tb, 0.7, &mut c_dispatch);
        prop_assert!(c_dispatch.approx_eq(&c_ref, 1e-12 * (1.0 + c_ref.max_abs())));
    }

    /// Rank-deficient inputs (exactly duplicated columns, so `tau` vanishes
    /// mid-factorization): `Q₁·R` must still reconstruct the input.
    #[test]
    fn qr_reconstructs_rank_deficient_input(base_cols in 1usize..6, seed in 0u64..1000) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let m = 4 * base_cols + 6;
        let base = random::gaussian(&mut rng, m, base_cols);
        // Duplicate every column: n = 2·base_cols, rank = base_cols.
        let mut a = Matrix::zeros(m, 2 * base_cols);
        for j in 0..base_cols {
            a.set_block(0, j, &base.sub_matrix(0, j, m, 1));
            a.set_block(0, base_cols + j, &base.sub_matrix(0, j, m, 1));
        }
        let qr = QrFactor::new(a.clone());
        let q = qr.q_thin();
        prop_assert!(matmul(&q, &qr.r()).approx_eq(&a, 1e-10 * (1.0 + a.max_abs())));
    }

    #[test]
    fn qr_reconstructs_and_q_orthonormal((m, n) in tall_dims(), seed in 0u64..1000) {
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        let rng: &mut rand_chacha::ChaCha8Rng = &mut rng;
        let a = random::gaussian(rng, m, n);
        let qr = QrFactor::new(a.clone());
        let q = qr.q_thin();
        let r = qr.r();
        prop_assert!(matmul(&q, &r).approx_eq(&a, 1e-10 * (1.0 + a.max_abs())));
        prop_assert!(matmul_tn(&q, &q).approx_eq(&Matrix::identity(n), 1e-12));
        // R is upper triangular.
        for j in 0..n {
            for i in (j + 1)..n {
                prop_assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_apply_qt_preserves_norms((m, n) in tall_dims(), seed in 0u64..1000) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let a = random::gaussian(&mut rng, m, n);
        let b = random::gaussian(&mut rng, m, 3);
        let qr = QrFactor::new(a);
        let mut t = b.clone();
        qr.apply_qt(&mut t);
        // Orthogonal transformations preserve column norms.
        for k in 0..3 {
            let before: f64 = b.col(k).iter().map(|v| v * v).sum::<f64>().sqrt();
            let after: f64 = t.col(k).iter().map(|v| v * v).sum::<f64>().sqrt();
            prop_assert!((before - after).abs() < 1e-10 * (1.0 + before));
        }
    }

    #[test]
    fn least_squares_satisfies_normal_equations((m, n) in tall_dims(), seed in 0u64..1000) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let a = random::gaussian(&mut rng, m, n);
        let b = random::gaussian(&mut rng, m, 1);
        let qr = QrFactor::new(a.clone());
        if let Ok(x) = qr.solve_ls(&b) {
            let resid = &matmul(&a, &x) - &b;
            let grad = matmul_tn(&a, &resid);
            prop_assert!(grad.max_abs() < 1e-8 * (1.0 + b.max_abs()),
                "gradient norm {}", grad.max_abs());
        }
    }

    #[test]
    fn gemm_matches_naive(m in 1usize..6, k in 1usize..6, n in 1usize..6,
                          a in proptest::collection::vec(-5.0..5.0f64, 36),
                          b in proptest::collection::vec(-5.0..5.0f64, 36)) {
        let a = Matrix::from_col_major(m, k, a[..m * k].to_vec());
        let b = Matrix::from_col_major(k, n, b[..k * n].to_vec());
        let c = matmul(&a, &b);
        for i in 0..m {
            for j in 0..n {
                let expect: f64 = (0..k).map(|l| a[(i, l)] * b[(l, j)]).sum();
                prop_assert!((c[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gemm_transpose_consistency(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..1000) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let a = random::gaussian(&mut rng, k, m); // will be used transposed
        let b = random::gaussian(&mut rng, k, n);
        let c1 = matmul_tn(&a, &b);
        let c2 = matmul(&a.transpose(), &b);
        prop_assert!(c1.approx_eq(&c2, 1e-12));

        let d = random::gaussian(&mut rng, n, k);
        let e1 = matmul_nt(&b.transpose(), &d);
        let e2 = matmul(&b.transpose(), &d.transpose());
        prop_assert!(e1.approx_eq(&e2, 1e-12));
    }

    #[test]
    fn gemm_beta_accumulation(m in 1usize..5, n in 1usize..5, seed in 0u64..1000) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let a = random::gaussian(&mut rng, m, n);
        let b = random::gaussian(&mut rng, n, m);
        let c0 = random::gaussian(&mut rng, m, m);
        let mut c = c0.clone();
        gemm(2.0, &a, Trans::No, &b, Trans::No, -1.0, &mut c);
        let expect = &matmul(&a, &b).scaled(2.0) - &c0;
        prop_assert!(c.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn lu_solve_and_det(n in 1usize..7, seed in 0u64..1000) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let a = random::gaussian(&mut rng, n, n);
        let b = random::gaussian(&mut rng, n, 2);
        if let Ok(lu) = LuFactor::new(a.clone()) {
            let x = lu.solve(&b);
            prop_assert!(matmul(&a, &x).approx_eq(&b, 1e-7 * (1.0 + b.max_abs())));
            // det(A) via LU equals det via cofactor for n<=2 (sanity anchor).
            if n == 2 {
                let expect = a[(0, 0)] * a[(1, 1)] - a[(0, 1)] * a[(1, 0)];
                prop_assert!((lu.det() - expect).abs() < 1e-9 * (1.0 + expect.abs()));
            }
        }
    }

    #[test]
    fn cholesky_roundtrip(n in 1usize..7, seed in 0u64..1000) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let c = random::spd(&mut rng, n);
        let ch = Cholesky::new(&c).unwrap();
        prop_assert!(kalman_dense::llt(ch.l()).approx_eq(&c, 1e-10));
        let w = ch.inverse_factor();
        // WᵀW·C == I
        let wtw = matmul_tn(&w, &w);
        prop_assert!(matmul(&wtw, &c).approx_eq(&Matrix::identity(n), 1e-6));
    }

    #[test]
    fn triangular_solves_are_inverses(n in 1usize..7, seed in 0u64..1000, mat in matrix_strategy(7, 3)) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        // Well-conditioned upper-triangular: QR of a Gaussian + diagonal boost.
        let g = random::gaussian(&mut rng, n, n);
        let mut u = QrFactor::new(g).r();
        for i in 0..n {
            u[(i, i)] += u[(i, i)].signum() * 1.0;
        }
        let b = mat.sub_matrix(0, 0, n, 3);

        let mut x = b.clone();
        tri::solve_upper_in_place(&u, &mut x).unwrap();
        prop_assert!(matmul(&u, &x).approx_eq(&b, 1e-8 * (1.0 + b.max_abs())));

        let mut xt = b.clone();
        tri::solve_upper_transpose_in_place(&u, &mut xt).unwrap();
        prop_assert!(matmul_tn(&u, &xt).approx_eq(&b, 1e-8 * (1.0 + b.max_abs())));

        let l = u.transpose();
        let mut xl = b.clone();
        tri::solve_lower_in_place(&l, &mut xl).unwrap();
        prop_assert!(matmul(&l, &xl).approx_eq(&b, 1e-8 * (1.0 + b.max_abs())));

        let wide = b.transpose();
        let mut xr = wide.clone();
        tri::solve_upper_right_in_place(&u, &mut xr).unwrap();
        prop_assert!(matmul(&xr, &u).approx_eq(&wide, 1e-8 * (1.0 + b.max_abs())));
    }

    #[test]
    fn compress_rows_preserves_gram_and_norm((m, n) in tall_dims(), seed in 0u64..1000) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let a = random::gaussian(&mut rng, m, n);
        let rhs0 = random::gaussian(&mut rng, m, 1);
        let mut rhs = rhs0.clone();
        let r = kalman_dense::compress_rows(&a, &mut rhs);
        let gram_a = matmul_tn(&a, &a);
        let gram_r = matmul_tn(&r, &r);
        prop_assert!(gram_a.approx_eq(&gram_r, 1e-8 * (1.0 + gram_a.max_abs())));
        prop_assert!((rhs.frob_norm() - rhs0.frob_norm()).abs() < 1e-10 * (1.0 + rhs0.frob_norm()));
        // Also Aᵀ·rhs is preserved in the kept part: Rᵀ·(kept rows of rhs) == Aᵀ·rhs0.
        let kept = rhs.sub_matrix(0, 0, n.min(m), 1);
        let lhs = matmul_tn(&r, &kept);
        let expect = matmul_tn(&a, &rhs0);
        prop_assert!(lhs.approx_eq(&expect, 1e-8 * (1.0 + expect.max_abs())));
    }

    #[test]
    fn orthonormal_products_stay_orthonormal(n in 1usize..8, seed in 0u64..1000) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let q1 = random::orthonormal(&mut rng, n);
        let q2 = random::orthonormal(&mut rng, n);
        let p = matmul(&q1, &q2);
        prop_assert!(matmul_tn(&p, &p).approx_eq(&Matrix::identity(n), 1e-11));
    }
}

// ---------------------------------------------------------------------------
// SIMD microkernels vs. the scalar oracle.
//
// Every explicit-width kernel in `kalman_dense::simd` is pinned here against
// a plain scalar loop over degenerate shapes: empty, length 1, lengths that
// are not a multiple of the 4-lane width (tails), and the transpose cases
// that force the monomorphized GEMM guard to fall back.  FMA contracts
// multiply-add into one rounding, so the comparisons are tolerance-based
// (1e-12 relative), never bitwise — bitwise pins live in determinism tests
// where both sides run the *same* kernel.
// ---------------------------------------------------------------------------

/// Scalar oracle for one Householder reflector applied to one column:
/// returns the updated `(w, col)` per the `reflector_one` contract.
fn reflector_oracle(v: &[f64], tau: f64, w0: f64, col: &[f64]) -> (f64, Vec<f64>) {
    let mut acc = w0;
    for (vi, ci) in v.iter().zip(col) {
        acc += vi * ci;
    }
    let w = tau * acc;
    let mut out = col.to_vec();
    for (ci, vi) in out.iter_mut().zip(v) {
        *ci -= w * vi;
    }
    (w, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `simd::dot` and `simd::axpy` agree with scalar loops on every length,
    /// including 0, 1, and non-multiple-of-4 tails.
    #[test]
    fn simd_dot_axpy_match_scalar(
        li in 0usize..12,
        alpha in -3.0..3.0f64,
        seed in 0u64..1000,
    ) {
        let lens = [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 17, 33];
        let len = lens[li];
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let x: Vec<f64> = random::gaussian(&mut rng, len.max(1), 1).col(0)[..len].to_vec();
        let y: Vec<f64> = random::gaussian(&mut rng, len.max(1), 1).col(0)[..len].to_vec();

        let want_dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let got_dot = simd::dot(&x, &y);
        prop_assert!((got_dot - want_dot).abs() <= 1e-12 * (1.0 + want_dot.abs()),
            "dot len {len}: {got_dot} vs {want_dot}");

        let mut z = y.clone();
        simd::axpy(alpha, &x, &mut z);
        for i in 0..len {
            let want = y[i] + alpha * x[i];
            prop_assert!((z[i] - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "axpy len {len} at {i}");
        }
    }

    /// The 4×4 register microtile matches scalar accumulation over packed
    /// panels at every depth, including depth 0.
    #[test]
    fn simd_microkernel_matches_scalar_accumulation(
        depth in 0usize..9,
        seed in 0u64..1000,
    ) {
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let a_panel: Vec<f64> =
            random::gaussian(&mut rng, (4 * depth).max(1), 1).col(0)[..4 * depth].to_vec();
        let b_panel: Vec<f64> =
            random::gaussian(&mut rng, (4 * depth).max(1), 1).col(0)[..4 * depth].to_vec();
        let acc0 = {
            let m = random::gaussian(&mut rng, 4, 4);
            let mut rows = [[0.0f64; 4]; 4];
            for (i, row) in rows.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    *cell = m[(i, j)];
                }
            }
            rows
        };

        let mut want = acc0;
        for p in 0..depth {
            for i in 0..4 {
                for j in 0..4 {
                    want[i][j] += a_panel[4 * p + i] * b_panel[4 * p + j];
                }
            }
        }
        let mut got = acc0;
        simd::gemm_microkernel_4x4(&a_panel, &b_panel, &mut got);
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((got[i][j] - want[i][j]).abs() <= 1e-12 * (1.0 + want[i][j].abs()),
                    "depth {depth} microtile ({i},{j})");
            }
        }
    }

    /// `reflector_quad` and `reflector_one` agree with the scalar reflector
    /// update on every tail length, including 0 and 1, and on columns longer
    /// than `v` (only the first `v.len()` entries may change).
    #[test]
    fn simd_reflectors_match_scalar(
        li in 0usize..8,
        extra in 0usize..3,
        tau in 0.1..1.9f64,
        seed in 0u64..1000,
    ) {
        let lens = [0usize, 1, 2, 3, 4, 5, 9, 13];
        let len = lens[li];
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let v: Vec<f64> = random::gaussian(&mut rng, len.max(1), 1).col(0)[..len].to_vec();
        let cols_mat = random::gaussian(&mut rng, (len + extra).max(1), 4);
        let pivots = random::gaussian(&mut rng, 4, 1);

        let mut want_w = [0.0f64; 4];
        let mut want_cols: Vec<Vec<f64>> = Vec::new();
        for q in 0..4 {
            let full = &cols_mat.col(q)[..len + extra];
            let (w, head) = reflector_oracle(&v, tau, pivots[(q, 0)], &full[..len]);
            want_w[q] = w;
            let mut col = full.to_vec();
            col[..len].copy_from_slice(&head);
            want_cols.push(col);
        }

        // Quad kernel.
        let mut got_w = [pivots[(0, 0)], pivots[(1, 0)], pivots[(2, 0)], pivots[(3, 0)]];
        let mut data: [Vec<f64>; 4] =
            std::array::from_fn(|q| cols_mat.col(q)[..len + extra].to_vec());
        let [c0, c1, c2, c3] = data.each_mut();
        simd::reflector_quad(
            &v,
            tau,
            &mut got_w,
            [
                c0.as_mut_slice(),
                c1.as_mut_slice(),
                c2.as_mut_slice(),
                c3.as_mut_slice(),
            ],
        );
        for q in 0..4 {
            prop_assert!((got_w[q] - want_w[q]).abs() <= 1e-12 * (1.0 + want_w[q].abs()),
                "quad w[{q}] at len {len}");
            for i in 0..len + extra {
                prop_assert!(
                    (data[q][i] - want_cols[q][i]).abs() <= 1e-12 * (1.0 + want_cols[q][i].abs()),
                    "quad col {q} entry {i} at len {len}"
                );
            }
        }

        // Single-column kernel against the same oracle, column 0.
        let mut w1 = pivots[(0, 0)];
        let mut col1 = cols_mat.col(0)[..len + extra].to_vec();
        simd::reflector_one(&v, tau, &mut w1, &mut col1);
        prop_assert!((w1 - want_w[0]).abs() <= 1e-12 * (1.0 + want_w[0].abs()));
        for i in 0..len + extra {
            prop_assert!(
                (col1[i] - want_cols[0][i]).abs() <= 1e-12 * (1.0 + want_cols[0][i].abs())
            );
        }
    }

    /// The monomorphized N×N GEMM matches the reference loop nest for
    /// N ∈ {4, 8, 16}, both `op(B)` settings, and β ∈ {0, 1, fractional}.
    #[test]
    fn simd_gemm_mono_matches_reference(
        ni in 0usize..3,
        b_trans: bool,
        bi in 0usize..3,
        alpha in -2.0..2.0f64,
        seed in 0u64..1000,
    ) {
        let n = [4usize, 8, 16][ni];
        let beta = [0.0f64, 1.0, 0.5][bi];
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let a = random::gaussian(&mut rng, n, n);
        let b = random::gaussian(&mut rng, n, n);
        let c0 = random::gaussian(&mut rng, n, n);

        let tb = if b_trans { Trans::Yes } else { Trans::No };
        let mut want = c0.clone();
        gemm_ref(alpha, &a, Trans::No, &b, tb, beta, &mut want);

        let mut got = c0.as_slice().to_vec();
        match n {
            4 => simd::gemm_mono::<4>(alpha, a.as_slice(), b.as_slice(), b_trans, beta, &mut got),
            8 => simd::gemm_mono::<8>(alpha, a.as_slice(), b.as_slice(), b_trans, beta, &mut got),
            _ => simd::gemm_mono::<16>(alpha, a.as_slice(), b.as_slice(), b_trans, beta, &mut got),
        }
        let got = Matrix::from_col_major(n, n, got);
        prop_assert!(got.approx_eq(&want, 1e-12 * (1.0 + want.max_abs())),
            "mono n={n} b_trans={b_trans} beta={beta}: {}", got.max_abs_diff(&want));
    }

    /// The plan-bound `KernelKind::gemm` entry matches the reference for
    /// every transpose combination and for shapes that do NOT fit the
    /// monomorphic guard (Aᵀ cases and off-size operands fall back to the
    /// general dispatcher — the strided-transpose escape hatch).
    #[test]
    fn kernel_kind_gemm_matches_reference(
        ki in 0usize..4,
        mi in 0usize..5,
        ta_flag: bool, tb_flag: bool,
        seed in 0u64..1000,
    ) {
        let kind = [KernelKind::Auto, KernelKind::Mono4, KernelKind::Mono8, KernelKind::Mono16][ki];
        let n = [3usize, 4, 5, 8, 16][mi];
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let ta = if ta_flag { Trans::Yes } else { Trans::No };
        let tb = if tb_flag { Trans::Yes } else { Trans::No };
        let a = random::gaussian(&mut rng, n, n);
        let b = random::gaussian(&mut rng, n, n);
        let c0 = random::gaussian(&mut rng, n, n);

        let mut want = c0.clone();
        gemm_ref(1.3, &a, ta, &b, tb, 0.7, &mut want);
        let mut got = c0.clone();
        (kind.gemm())(1.3, &a, ta, &b, tb, 0.7, &mut got);
        prop_assert!(got.approx_eq(&want, 1e-12 * (1.0 + want.max_abs())),
            "{kind:?} n={n} {ta:?}/{tb:?}: {}", got.max_abs_diff(&want));
    }
}
