//! Property-based tests for the dense kernels.
//!
//! Strategy: generate random well-scaled matrices and verify algebraic
//! invariants (reconstruction, orthogonality, residuals) rather than
//! comparing against golden values.

use kalman_dense::{
    gemm, gemm_blocked, gemm_ref, matmul, matmul_nt, matmul_tn, qr_tri_stack_applying, random,
    set_reference_kernels, simd, tri, Cholesky, DenseError, LuFactor, Matrix, QrFactor, Trans,
};
use proptest::prelude::*;

/// Runs `f` on the unblocked scalar oracle (`set_reference_kernels(true)`),
/// restoring the switch afterwards.  The switch is process-global and the
/// test harness is multi-threaded: the lock keeps the blocked-vs-oracle
/// comparisons below from flipping it under each other (every other test
/// holds in either mode — the `KALMAN_REF_KERNELS=1` CI leg runs them all
/// that way — so they need no part in it).
fn on_reference_kernels<R>(f: impl FnOnce() -> R) -> R {
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = SWITCH
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let before = kalman_dense::reference_kernels();
    set_reference_kernels(true);
    let out = f();
    set_reference_kernels(before);
    out
}

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

    /// The tile GEMM must agree with the reference loop nest on every
    /// shape — zero/unit dimensions, every remainder of the 8×6 register
    /// tile (m mod 8, n mod 6), k = 1, one-column right-hand sides, tall
    /// and wide operands — for all four transpose combinations, to 1e-12.
    #[test]
    fn blocked_gemm_matches_reference_all_shapes(
        mi in 0usize..14, ki in 0usize..14, ni in 0usize..14,
        ta_flag: bool, tb_flag: bool,
        seed in 0u64..1000,
    ) {
        let sizes = [0usize, 1, 3, 4, 5, 6, 7, 8, 9, 13, 17, 33, 49, 65];
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
        let r = kalman_dense::compress_rows_owned(a.clone(), &mut rhs);
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

    /// The 8×6 register tile, called directly on sub-blocks of larger
    /// buffers (padded leading dimensions, both `op(B)` stride pairs),
    /// matches a strided triple loop on every tile remainder and depth —
    /// including k = 0 and 65×65×1 — and leaves the padding untouched.
    #[test]
    fn simd_microkernel_matches_scalar_accumulation(
        mi in 0usize..10, ni in 0usize..10, ki in 0usize..6,
        pad in 0usize..3,
        b_trans: bool,
        alpha in -2.0..2.0f64,
        seed in 0u64..1000,
    ) {
        let m = [1usize, 3, 4, 7, 8, 9, 15, 16, 48, 65][mi];
        let n = [1usize, 2, 5, 6, 7, 11, 12, 13, 49, 65][ni];
        let k = [0usize, 1, 2, 8, 9, 48][ki];
        let (m, n, k) = if m * n * k > 65 * 65 { (65, 65, 1) } else { (m, n, k) };
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let (lda, ldc) = (m + pad, m + 2 * pad);
        let a = random::gaussian(&mut rng, lda, k.max(1));
        // `op(B)` is k×n: stored k×n (ld k+pad) or n×k (ld n+pad).
        let (bks, bjs, b) = if b_trans {
            (n + pad, 1, random::gaussian(&mut rng, n + pad, k.max(1)))
        } else {
            (1, k + pad, random::gaussian(&mut rng, k + pad, n))
        };
        let c0 = random::gaussian(&mut rng, ldc, n);

        let mut want = c0.clone();
        for j in 0..n {
            for i in 0..m {
                let sum: f64 = (0..k)
                    .map(|p| a.as_slice()[i + p * lda] * b.as_slice()[p * bks + j * bjs])
                    .sum();
                want[(i, j)] += alpha * sum;
            }
        }
        let mut got = c0.clone();
        simd::gemm_tile(
            m, n, k, alpha, a.as_slice(), lda, b.as_slice(), bks, bjs, got.as_mut_slice(), ldc,
        );
        prop_assert!(
            got.approx_eq(&want, 1e-12 * (1.0 + want.max_abs())),
            "tile ({m},{n},{k}) pad={pad} trans={b_trans}: {}", got.max_abs_diff(&want)
        );
        for j in 0..n {
            for i in m..ldc {
                prop_assert_eq!(got[(i, j)], c0[(i, j)], "padding row {} col {} touched", i, j);
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
    /// N ∈ {4, 8}, both `op(B)` settings, and β ∈ {0, 1, fractional}.
    #[test]
    fn simd_gemm_mono_matches_reference(
        ni in 0usize..2,
        b_trans: bool,
        bi in 0usize..3,
        alpha in -2.0..2.0f64,
        seed in 0u64..1000,
    ) {
        let n = [4usize, 8][ni];
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
            _ => simd::gemm_mono::<8>(alpha, a.as_slice(), b.as_slice(), b_trans, beta, &mut got),
        }
        let got = Matrix::from_col_major(n, n, got);
        prop_assert!(got.approx_eq(&want, 1e-12 * (1.0 + want.max_abs())),
            "mono n={n} b_trans={b_trans} beta={beta}: {}", got.max_abs_diff(&want));
    }

    /// `gemm` matches the reference at the monomorphized square shapes
    /// and around them, for every transpose combination: `N×N` operands
    /// with `op(A) = A` take the register-resident body at N ∈ {4, 8}, and
    /// the `Aᵀ` cases and other sizes take the general ladder.
    #[test]
    fn gemm_matches_reference_at_mono_shapes(
        mi in 0usize..5,
        ta_flag: bool, tb_flag: bool,
        seed in 0u64..1000,
    ) {
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
        gemm(1.3, &a, ta, &b, tb, 0.7, &mut got);
        prop_assert!(got.approx_eq(&want, 1e-12 * (1.0 + want.max_abs())),
            "n={n} {ta:?}/{tb:?}: {}", got.max_abs_diff(&want));
    }
}

// ---------------------------------------------------------------------------
// Level-3 bodies vs. the unblocked oracle.
//
// The compact-WY tri-stack, the blocked back substitution and the blocked
// inverse-Gram are chosen from the operands' shapes alone; the same calls
// under `set_reference_kernels(true)` run the unblocked scalar bodies.  The
// two orders of arithmetic agree to rounding, never bitwise.
// ---------------------------------------------------------------------------

/// A well-conditioned `n×n` upper triangular matrix.
fn upper_triangular(rng: &mut rand_chacha::ChaCha8Rng, n: usize) -> Matrix {
    let mut u = QrFactor::new(random::gaussian(rng, n, n)).r();
    for i in 0..n {
        u[(i, i)] += u[(i, i)].signum();
    }
    u
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked tri-stack vs the unblocked body to 1e-12·scale, plus the
    /// three Gram invariants of the elimination, on shapes that leave a
    /// ragged last panel, `D` taller and shorter than `R`, companion widths
    /// {0, 1, n, 2n+1}, and a structurally zero column inside a panel
    /// (τ = 0 must give a zero column of T, not a NaN).
    #[test]
    fn blocked_tri_stack_matches_unblocked(
        ni in 0usize..4, li in 0usize..4, wi in 0usize..5,
        zero_col in 0usize..24, with_zero_col: bool,
        seed in 0u64..1000,
    ) {
        let n = [24usize, 33, 40, 48][ni];
        let l = [n, 5, n + 7, 2 * n][li];
        let widths: &[usize] = match wi {
            0 => &[2 * n + 1],
            1 => &[n, 1],
            2 => &[0, n, 0],
            3 => &[n, n, 1],
            _ => &[16],
        };
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let mut r0 = upper_triangular(&mut rng, n);
        let mut d0 = random::gaussian(&mut rng, l, n);
        if with_zero_col {
            r0.col_mut(zero_col).fill(0.0);
            d0.col_mut(zero_col).fill(0.0);
        }
        let tops0: Vec<Matrix> = widths.iter().map(|&w| random::gaussian(&mut rng, n, w)).collect();
        let bots0: Vec<Matrix> = widths.iter().map(|&w| random::gaussian(&mut rng, l, w)).collect();

        let run = || {
            let (mut r, mut d) = (r0.clone(), d0.clone());
            let (mut tops, mut bots) = (tops0.clone(), bots0.clone());
            let mut pairs: Vec<_> = tops.iter_mut().zip(bots.iter_mut()).collect();
            qr_tri_stack_applying(&mut r, &mut d, &mut pairs);
            (r, tops, bots)
        };
        let (r, tops, bots) = run();
        let (r_ref, tops_ref, bots_ref) = on_reference_kernels(run);

        let scale = 1.0 + r0.max_abs() + d0.max_abs()
            + tops0.iter().chain(&bots0).map(Matrix::max_abs).fold(0.0, f64::max);
        prop_assert!(r.as_slice().iter().all(|v| v.is_finite()), "non-finite R");
        prop_assert!(r.approx_eq(&r_ref, 1e-12 * scale * n as f64),
            "R n={n} l={l}: {}", r.max_abs_diff(&r_ref));
        for j in 0..n {
            for i in (j + 1)..n {
                prop_assert_eq!(r[(i, j)], 0.0, "({}, {}) filled", i, j);
            }
        }
        // R'ᵀR' == RᵀR + DᵀD.
        let gram = &matmul_tn(&r0, &r0) + &matmul_tn(&d0, &d0);
        prop_assert!(matmul_tn(&r, &r).approx_eq(&gram, 1e-11 * scale * scale * n as f64));
        for c in 0..widths.len() {
            let (top, bot) = (&tops[c], &bots[c]);
            prop_assert!(top.approx_eq(&tops_ref[c], 1e-12 * scale * n as f64),
                "top {c} n={n} l={l}: {}", top.max_abs_diff(&tops_ref[c]));
            prop_assert!(bot.approx_eq(&bots_ref[c], 1e-12 * scale * n as f64),
                "bottom {c} n={n} l={l}: {}", bot.max_abs_diff(&bots_ref[c]));
            // R'ᵀ·top' == RᵀT + DᵀB, and Qᵀ preserves the companion's Gram.
            let cross = &matmul_tn(&r0, &tops0[c]) + &matmul_tn(&d0, &bots0[c]);
            prop_assert!(matmul_tn(&r, top).approx_eq(&cross, 1e-11 * scale * scale * n as f64));
            let before = &matmul_tn(&tops0[c], &tops0[c]) + &matmul_tn(&bots0[c], &bots0[c]);
            let after = &matmul_tn(top, top) + &matmul_tn(bot, bot);
            prop_assert!(after.approx_eq(&before, 1e-11 * scale * scale * n as f64));
        }
    }

    /// Blocked back substitution and inverse-Gram vs the unblocked ones, on
    /// orders with a ragged bottom block and right-hand-side counts on both
    /// sides of the tile width.
    #[test]
    fn blocked_triangular_solves_match_unblocked(
        ni in 0usize..5, ri in 0usize..5,
        seed in 0u64..1000,
    ) {
        let n = [12usize, 17, 24, 48, 50][ni];
        let nrhs = [4usize, 6, 7, 48, 97][ri];
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let u = upper_triangular(&mut rng, n);
        let b = random::gaussian(&mut rng, n, nrhs);

        let solve = || {
            let mut x = b.clone();
            tri::solve_upper_in_place(&u, &mut x).unwrap();
            x
        };
        let (x, x_ref) = (solve(), on_reference_kernels(solve));
        prop_assert!(x.approx_eq(&x_ref, 1e-11 * (1.0 + x_ref.max_abs())),
            "solve n={n} nrhs={nrhs}: {}", x.max_abs_diff(&x_ref));
        prop_assert!(matmul(&u, &x).approx_eq(&b, 1e-10 * (1.0 + b.max_abs())));

        let gram = || tri::inv_gram_upper(&u).unwrap();
        let (s, s_ref) = (gram(), on_reference_kernels(gram));
        prop_assert!(s.approx_eq(&s_ref, 1e-11 * (1.0 + s_ref.max_abs())),
            "inv_gram n={n}: {}", s.max_abs_diff(&s_ref));
        prop_assert!(s.approx_eq(&s.transpose(), 0.0), "inv_gram not symmetric");
    }

    /// A zero diagonal entry is reported with the same index by the blocked
    /// and unblocked solves, and leaves no partial update behind.
    #[test]
    fn blocked_solves_report_the_same_singular_index(
        index in 0usize..48,
        second in 0usize..96,
        seed in 0u64..1000,
    ) {
        let n = 48;
        let mut rng: rand_chacha::ChaCha8Rng = rand::SeedableRng::seed_from_u64(seed);
        let mut u = upper_triangular(&mut rng, n);
        u[(index, index)] = 0.0;
        // Half the cases carry a second zero, before or after the first.
        if second < n {
            u[(second, second)] = 0.0;
        }
        let first = if second < n { index.min(second) } else { index };
        let b = random::gaussian(&mut rng, n, n);
        let attempt = || {
            let mut x = b.clone();
            let solved = tri::solve_upper_in_place(&u, &mut x);
            (solved, x, tri::inv_gram_upper(&u).map(|_| ()))
        };
        for (solved, x, gram) in [attempt(), on_reference_kernels(attempt)] {
            prop_assert_eq!(solved, Err(DenseError::Singular { index: first }));
            prop_assert_eq!(gram, Err(DenseError::Singular { index: first }));
            prop_assert!(x.approx_eq(&b, 0.0), "right-hand side modified before the error");
        }
    }
}
