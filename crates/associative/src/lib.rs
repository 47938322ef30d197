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
//! [`associative_smooth`] builds every filtering element straight from the
//! model ([`FilterElement::for_state`]), runs the forward scan, builds the
//! smoothing elements from the filtered results
//! ([`SmoothElement::for_state`]) and runs the backward (suffix) scan.
//! Both scans run `kalman-par`'s fixed Brent–Kung combine tree under every
//! policy, so `Seq ≡ Par` holds **bitwise**.
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
mod smoother;

pub use elements::{FilterElement, SmoothElement};
pub use smoother::{associative_filter, associative_smooth, AssociativeOptions};
