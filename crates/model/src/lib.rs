//! Linear dynamic-system models for Kalman smoothing.
//!
//! This crate defines the *problem* side of the reproduction: the evolution
//! and observation equations of §2.1 of the paper, covariance
//! specifications, synthetic problem generators matching the paper's
//! benchmarks (§5.2), and a dense reference solver used as a correctness
//! oracle by every algorithm crate.
//!
//! A smoothing problem over states `u_0 … u_k` consists of one
//! [`LinearStep`] per state:
//!
//! * step `i > 0` usually carries an evolution equation
//!   `H_i u_i = F_i u_{i-1} + c_i + ε_i` with `cov(ε_i) = K_i`,
//! * any step may carry an observation equation `o_i = G_i u_i + δ_i` with
//!   `cov(δ_i) = L_i`,
//! * optionally, a Gaussian prior on `u_0` (required by the conventional
//!   RTS and associative smoothers; the QR-based smoothers work without it).
//!
//! # Example
//!
//! ```
//! use kalman_model::{LinearModel, LinearStep, Evolution, Observation, CovarianceSpec};
//! use kalman_dense::Matrix;
//!
//! // A 1-D random walk observed directly, three states.
//! let mut model = LinearModel::new();
//! model.push_step(LinearStep::initial(1).with_observation(Observation {
//!     g: Matrix::identity(1),
//!     o: vec![0.9],
//!     noise: CovarianceSpec::Identity(1),
//! }));
//! for o in [2.1, 2.9] {
//!     model.push_step(
//!         LinearStep::evolving(Evolution::random_walk(1))
//!             .with_observation(Observation {
//!                 g: Matrix::identity(1),
//!                 o: vec![o],
//!                 noise: CovarianceSpec::Identity(1),
//!             }),
//!     );
//! }
//! assert_eq!(model.num_states(), 3);
//! model.validate().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod assemble;
mod covariance;
mod error;
mod estimate;
pub mod generators;
pub mod incremental;
mod model;
mod sweep;
mod whiten;

pub use assemble::{assemble_dense, solve_dense, DenseSystem};
pub use covariance::CovarianceSpec;
pub use error::KalmanError;
pub use estimate::Smoothed;
pub use incremental::{events_of, EliminatedRows, InfoHead, StreamEvent, StreamEventRef};
pub use model::{check_finite, Evolution, LinearModel, LinearStep, Observation, Prior};
pub use sweep::SweepTerms;
pub use whiten::{whiten_model, WhitenedEvo, WhitenedObs, WhitenedStep};

/// Result type for smoother operations.
pub type Result<T> = std::result::Result<T, KalmanError>;
