//! The Odd-Even parallel-in-time Kalman smoother — the paper's contribution.
//!
//! The smoother computes the generalized least-squares estimate
//! `û = argmin ‖U(Au − b)‖₂` via a specialized sparse QR factorization of a
//! *column permutation* of `U·A` (§3 of the paper).  A recursive odd-even
//! permutation of block columns — inspired by block cyclic reduction —
//! exposes parallelism: at every level all even block columns can be
//! eliminated concurrently by small Householder QR factorizations, the odd
//! columns form the next level's chain, and the recursion bottoms out at a
//! single column.  A column of one level depends only on its aligned pair one
//! level down, so the recursion is a binary-tree reduction; this crate walks
//! that tree depth first (forking sibling subtrees under a parallel policy)
//! rather than level by level, which computes the same bits out of cache.
//!
//! * Work: `Θ(k n³)` — same asymptotic work as the sequential
//!   Paige–Saunders algorithm, with a small constant-factor overhead
//!   (measured at 1.8–2.5× in the paper and in this reproduction's
//!   benchmarks).
//! * Critical path: `Θ(log k · n log n)` versus `Θ(k · n log n)`
//!   sequentially.
//!
//! Covariances `cov(û_i)` are the diagonal blocks of `(RᵀR)⁻¹`, computed by
//! a parallel adaptation of the SelInv selected-inversion algorithm
//! specialized to the odd-even structure (the paper's Algorithm 2, §4);
//! this phase is separable and can be skipped (the "NC" variant).
//!
//! The engine is built as a plan/execute split in the style of sparse
//! direct solvers: a symbolic [`PlanSchedule`] captures everything that
//! depends only on the problem *shape* (the odd-even pair tree and the
//! block dimensions), and a [`SmoothPlan`] walks it — bottom-up to factor,
//! top-down for means and covariances — into a reused `R` factor: build
//! once per shape, execute many, bitwise identical to the one-shot entry
//! points below (which build a transient plan).  A plan refuses any other
//! shape; a caller with a new shape builds a new plan.  See DESIGN.md
//! §"Odd-even / SelInv layering" and §"Plan/execute lifecycle".
//!
//! # Example
//!
//! ```
//! use kalman_odd_even::{odd_even_smooth, OddEvenOptions};
//! use kalman_model::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let model = generators::paper_benchmark(&mut rng, 4, 100, false);
//! let smoothed = odd_even_smooth(&model, OddEvenOptions::default()).unwrap();
//! assert_eq!(smoothed.len(), 101);
//! assert!(smoothed.covariances.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod factor;
mod plan;
mod rfactor;
mod selinv;
mod smoother;

pub use backend::BackendPolicy;
pub use factor::factor_odd_even;
pub use plan::{PlanSchedule, SmoothPlan};
pub use rfactor::{OddEvenR, RRow};
pub use selinv::selinv_diag;
pub use smoother::{odd_even_smooth, OddEvenOptions};
