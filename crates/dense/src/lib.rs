//! Dense linear-algebra kernels for the odd-even parallel Kalman smoother.
//!
//! This crate is the reproduction's substitute for the vendor BLAS/LAPACK
//! libraries (MKL, ARM Performance Libraries) that the paper's C
//! implementation calls for its Θ(n³) block operations.  It provides exactly
//! the kernels the smoothers need:
//!
//! * [`Matrix`] — a column-major `f64` matrix with block get/set helpers,
//! * [`gemm`] — general matrix multiply with transpose options,
//! * [`QrFactor`] — plain Householder QR (one factorization, one packed
//!   representation) with application of `Qᵀ`/`Q` to right-hand-side
//!   blocks (the workhorse of the odd-even factorization),
//! * [`LuFactor`] — LU with partial pivoting (used by the associative
//!   smoother's combination formulas),
//! * [`Cholesky`] — for SPD covariance matrices and inverse factors,
//! * triangular solves and inverses ([`tri`]),
//! * random matrix generators ([`random`]) for the paper's synthetic
//!   benchmark problems (random orthonormal evolution/observation matrices).
//!
//! All matrices are dense and owned; the smoothers operate on many small
//! blocks (the paper uses n = 6, 48 and 500).  The kernels are tuned for
//! that regime, from both ends: at serving dimensions, four-column
//! Householder applications, a triangular-pentagonal stack elimination
//! ([`qr_tri_stack_applying`], monomorphized for the `n ∈ {8, 16}` square
//! stacks) and a fixed-size `n ∈ {4, 8}` product under [`gemm`]; at batch
//! dimensions, level-3 bodies on one register-tile GEMM
//! ([`simd::gemm_tile`]: 8×6 on AVX2/FMA, 16×8 where AVX-512F is present,
//! the same bits either way) — the product itself, a compact-WY body for the
//! stack elimination (one tile height of pivots per panel), a blocked back
//! substitution and inverse-Gram
//! ([`tri`]) — chosen from the operands' shapes alone; for a stream's
//! flush at `n ∈ {4, 8}`, whole steps on fixed-size stack-resident columns
//! ([`fixed`]); and under all of it
//! a thread-local buffer-recycling [`workspace`] that makes steady-state
//! loops allocation-free — while staying dependency-free (see DESIGN.md
//! §"Dense kernels").
//!
//! # Example
//!
//! ```
//! use kalman_dense::{Matrix, QrFactor};
//!
//! // Solve a small least-squares problem min ||Ax - b||.
//! let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
//! let b = Matrix::col_from_slice(&[6.0, 0.0, 0.0]);
//! let qr = QrFactor::new(a);
//! let x = qr.solve_ls(&b).unwrap();
//! assert_eq!(x.rows(), 2);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the `simd` module is the crate's single audited
// exemption (`#[allow(unsafe_code)]` + kalman-lint `forbid_exempt`, see
// docs/LINTS.md §Unsafe) — it holds the `core::arch` AVX2/FMA intrinsic
// tiles and the target-feature wrappers of the `fixed` bodies.  Every other
// module still rejects `unsafe` at compile time, and CI fails on the
// attribute anywhere else.
#![deny(unsafe_code)]

mod chol;
mod error;
pub mod fixed;
mod gemm;
mod lu;
mod matrix;
mod qr;
pub mod random;
pub mod simd;
pub mod tri;
pub mod workspace;

pub use chol::{llt, Cholesky};
pub use error::DenseError;
pub use gemm::{gemm, gemm_blocked, gemm_ref, matmul, matmul_nt, matmul_tn, Trans};
pub use lu::{solve, LuFactor};
pub use matrix::Matrix;
pub use qr::{
    compress_rows_owned, effective_rank_tol, qr_tri_stack_applying, qr_tri_stack_applying_with,
    qr_tri_stack_unblocked, tri_stack_panel_depth, ColPivQr, QrFactor,
};
pub use simd::{kernel_dispatch_counts, simd_backend, KernelKind};
pub use workspace::{
    arena_active, arena_scope, budget_for_len, pooling_enabled, reference_kernels,
    register_workspace_gauges, set_pooling, set_reference_kernels, ArenaScope, Workspace,
};

/// Result type for fallible dense operations (singular / not-SPD inputs).
pub type Result<T> = std::result::Result<T, DenseError>;
