//! Streaming fixed-lag smoothing by orthogonal transformations.
//!
//! The batch smoothers of this workspace consume a complete
//! [`kalman_model::LinearModel`].  Production serving is different:
//! measurements arrive *incrementally*, per user, and estimates must come
//! back with bounded latency and bounded memory.  This crate provides that
//! online layer (Toledo's UltimateKalman rolling
//! evolve/observe/forget/smooth shape, arXiv 2207.13526, built on the
//! sequential Paige–Saunders sweep):
//!
//! * [`StreamingSmoother`] — ingests steps through
//!   [`StreamingSmoother::evolve`] / [`StreamingSmoother::observe`] (with
//!   missing observations, multiple observations per step, streams with no
//!   prior, and [`StreamingSmoother::drop_last`] rollback), buffers them in
//!   a window, and emits **finalized** estimates for steps falling a fixed
//!   lag `L` behind the newest data.  A flush is an *incremental* sweep:
//!   each step is whitened and QR-eliminated once, when it stops being the
//!   newest, and its block row of the window's bidiagonal `R` factor is
//!   kept; every flush back-substitutes through the kept rows (and runs
//!   the paper's Algorithm 1 for covariances, on per-row terms that were
//!   inverted once, with the row).  The odd-even factorization
//!   — the paper's parallel-in-time result — stays the batch engine
//!   (`kalman-odd-even`); an 18- or 40-step window on one core is where it
//!   "performs more arithmetic than sequential smoothers" without the
//!   cores to earn it back;
//! * **forgetting** — a finalized step's row is dropped and the prior it
//!   was eliminated against (the R-factor head,
//!   [`kalman_model::InfoHead`]) becomes the window's head, so memory stays
//!   `O(L·n²)` no matter how long the stream runs;
//! * one persistent form, [`WindowSnapshot`]: the head plus the buffered
//!   window as replay events.  [`StreamingSmoother::snapshot`] captures a
//!   live stream transparently, [`StreamingSmoother::finish`] returns a
//!   finished stream as a snapshot with nothing buffered, and
//!   [`StreamingSmoother::restore`] continues either;
//! * [`SmootherPool`] — multiplexes many independent streams over the
//!   workspace scheduler, batching every ready window per
//!   [`SmootherPool::poll`] — the serving story for many concurrent users.
//!
//! Finalized estimates match the batch smoother run over all data seen so
//! far *exactly* (the condensation is an orthogonal transformation, not an
//! approximation); they differ from a hindsight batch run over the *whole*
//! stream only through data newer than the lag window, whose influence
//! decays geometrically — pick the lag so that decay is below the accuracy
//! you need (see DESIGN.md §"Streaming").
//!
//! # Example
//!
//! ```
//! use kalman_stream::{StreamingSmoother, StreamOptions};
//! use kalman_model::{CovarianceSpec, Evolution, Observation};
//! use kalman_dense::Matrix;
//!
//! let opts = StreamOptions { lag: 8, flush_every: 4, covariances: true, ..StreamOptions::default() };
//! let mut stream = StreamingSmoother::new(1, opts).unwrap();
//! let mut finalized = Vec::new();
//! for i in 0..40 {
//!     if i > 0 {
//!         finalized.extend(stream.evolve(Evolution::random_walk(1)).unwrap());
//!     }
//!     stream.observe(Observation {
//!         g: Matrix::identity(1),
//!         o: vec![i as f64 * 0.1],
//!         noise: CovarianceSpec::Identity(1),
//!     }).unwrap();
//! }
//! let (tail, finished) = stream.finish().unwrap();
//! finalized.extend(tail);
//! assert_eq!(finalized.len(), 40);
//! assert_eq!(finished.index, 39);
//! assert!(finished.events.is_empty());
//! assert!(finalized[20].covariance.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod options;
mod pool;
mod ring;
mod smoother;
mod snapshot;

// Re-exported because it is the type of a public `StreamOptions` field.
pub use kalman_odd_even::BackendPolicy;
pub use options::{FinalizedStep, LagPolicy, StreamOptions};
pub use pool::{PollBatch, PollEntry, SmootherPool, StreamId};
pub use smoother::{StreamingSmoother, MAX_STATE_DIM};
pub use snapshot::{WindowSnapshot, WindowView};
