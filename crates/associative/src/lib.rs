//! The Särkkä & García-Fernández (2021) parallel-in-time Kalman smoother.
//!
//! The paper's "Associative" comparison algorithm: the forward (filtering)
//! and backward (smoothing) sweeps of a conventional RTS smoother are
//! restructured as *prefix sums* under custom associative operations, then
//! evaluated with a parallel scan (`kalman_par::inclusive_scan_in_place` /
//! `suffix_scan_in_place`), giving a `Θ(log k)` critical path in the number
//! of combine operations.
//!
//! Characteristics relative to the odd-even QR smoother (paper §6):
//!
//! * requires a prior on the initial state and a uniform model
//!   (`H_i = I`, square `F_i`);
//! * states and covariances are computed *together* — there is no cheaper
//!   no-covariance variant;
//! * can handle singular input covariances (like RTS), but nothing is known
//!   about its numerical stability, whereas the QR smoothers are
//!   conditionally backward stable.
//!
//! The smoother runs on a plan/execute split like the odd-even engine's:
//! [`ScanPlan`] executes a symbolic [`ScanSchedule`] against whitened step
//! data with plan-owned scratch.  Its fixed Brent–Kung combine tree makes
//! `Seq ≡ Par` **bitwise** (the one-shot scan helpers in `kalman-par` only
//! promise rounding-level agreement across grains).  [`associative_smooth`]
//! is a thin one-shot wrapper over a transient plan.
//!
//! This crate is the batch *baseline and oracle* of the reproduction
//! (fig2/fig3, `tests/backend_differential.rs`); serving runs the odd-even
//! engine only — see DESIGN.md §"Why serving runs one engine".
//!
//! # Example
//!
//! ```
//! use kalman_associative::{associative_smooth, AssociativeOptions};
//! use kalman_model::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
//! let model = generators::paper_benchmark(&mut rng, 4, 50, true);
//! let smoothed = associative_smooth(&model, AssociativeOptions::default()).unwrap();
//! assert_eq!(smoothed.len(), 51);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod elements;
mod plan;
mod scan;
mod smoother;

pub use elements::{FilterElement, SmoothElement};
pub use plan::{ScanOptions, ScanPlan};
pub use scan::{ScanLevel, ScanSchedule};
pub use smoother::{associative_filter, associative_smooth, AssociativeOptions};
