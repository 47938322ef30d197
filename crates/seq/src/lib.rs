//! Sequential baseline smoothers.
//!
//! Two baselines from the paper's evaluation (§5.4):
//!
//! * [`rts_smooth`] — the conventional Kalman filter plus
//!   Rauch–Tung–Striebel backward pass ("Kalman" in the paper's figures).
//!   Requires a prior and a uniform model (`H_i = I`, square `F_i`); always
//!   produces covariances.
//! * [`paige_saunders_smooth`] — the sequential QR-based smoother of Paige
//!   and Saunders ("Paige-Saunders" in the figures): a driver over the
//!   sweep `kalman-model` shares with the streaming smoother — a forward
//!   pass of square-root information filter steps, then one downward pass
//!   that forms the means and, unless [`SmootherOptions::covariances`] is
//!   `false` (the "NC" variant), the sequential block SelInv of the
//!   paper's Algorithm 1 in the same iteration.
//!
//! Both return the same [`kalman_model::Smoothed`] type and agree to
//! rounding error on models both support; the QR smoother additionally
//! handles problems with no prior, rectangular `H_i`, and missing
//! observations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod paige_saunders;
mod rts;

pub use paige_saunders::{paige_saunders_smooth, SmootherOptions};
pub use rts::{kalman_filter, rts_smooth, FilterResult};
