//! Async serving front-end for the streaming smoother: sharded pools,
//! bounded-queue ingestion with explicit backpressure, and serving
//! metrics.
//!
//! [`kalman_stream::SmootherPool`] batches the window re-smooths of many
//! streams through one parallel `poll`.  This crate adds the layer that
//! stands between that pool and a network front-end serving millions of
//! users:
//!
//! * [`ShardedPool`] — `N` shards, each owning an independent
//!   `SmootherPool` (streams, reused output batch).  Streams
//!   are placed by a **stable hash** of their key ([`stable_shard`]), so
//!   any number of producers agree on routing with no coordination, and
//!   [`ShardedPool::rebalance`] migrates a stream between shards through
//!   the exact finish → [`kalman_stream::StreamingSmoother::restore`]
//!   path: a finished stream is a [`kalman_stream::WindowSnapshot`] with
//!   nothing buffered.
//! * [`Ingress`] — the cloneable producer handle.  Each shard's queue is
//!   **bounded**: [`Ingress::try_submit`] fails fast with
//!   [`SubmitError::WouldBlock`] when the queue is full, and the async
//!   [`Ingress::submit`] parks the producer task until the consumer makes
//!   room.  Overload slows producers down; it never grows server memory.
//! * [`ShardedPool::drain`] — the serving tick: empty every queue into its
//!   streams, then batch-flush every full window through the pool's
//!   allocation-free `poll_into` path, and before returning run the
//!   forward steps of every stream it evolved, so later flushes are only
//!   the downward sweep.  A steady-state drain performs **zero heap
//!   allocations** end to end.
//! * [`Stats`] — a per-shard/aggregate metrics snapshot (queue depth and
//!   throttling, flush latency, flushed steps).
//!
//! The async machinery is deliberately minimal — a waker-correct executor
//! and a bounded channel (the vendored `futures` subset) — because the
//! hot path is synchronous batch work; async exists to *pace producers*,
//! not to schedule numerics.
//!
//! # Example
//!
//! Producers as cooperative tasks, paced by the queue bound:
//!
//! ```
//! use futures::executor::LocalPool;
//! use kalman_serve::{ServeConfig, ShardedPool};
//! use kalman_stream::{StreamOptions, StreamingSmoother};
//! use kalman_model::{CovarianceSpec, Evolution, Observation, StreamEvent};
//! use kalman_par::ExecPolicy;
//! use kalman_dense::Matrix;
//!
//! let cfg = ServeConfig { shards: 2, queue_capacity: 8, policy: ExecPolicy::Seq };
//! let (mut pool, ingress) = ShardedPool::new(cfg);
//! let opts = StreamOptions { lag: 4, flush_every: 2, policy: ExecPolicy::Seq,
//!                            ..StreamOptions::default() };
//! for key in 0..4u64 {
//!     pool.insert(key, StreamingSmoother::with_prior(
//!         vec![0.0], CovarianceSpec::Identity(1), opts).unwrap()).unwrap();
//! }
//!
//! let mut tasks = LocalPool::new();
//! let spawner = tasks.spawner();
//! for key in 0..4u64 {
//!     let mut tx = ingress.clone();
//!     spawner.spawn_local(async move {
//!         for i in 0..20 {
//!             if i > 0 {
//!                 tx.evolve(key, Evolution::random_walk(1)).await.unwrap();
//!             }
//!             tx.observe(key, Observation {
//!                 g: Matrix::identity(1),
//!                 o: vec![i as f64 * 0.1],
//!                 noise: CovarianceSpec::Identity(1),
//!             }).await.unwrap();
//!         }
//!     });
//! }
//!
//! let mut finalized = 0;
//! while !tasks.is_empty() {
//!     tasks.run_until_stalled();       // producers fill the bounded queues
//!     finalized += pool.drain().flushed_steps; // consumer applies + flushes
//! }
//! for key in 0..4u64 {
//!     finalized += pool.finish(key).unwrap().0.len();
//! }
//! assert_eq!(finalized, 4 * 20);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ingress;
mod sharded;
mod stats;

pub use ingress::{Ingress, SubmitError, TrySubmitError};
pub use sharded::{stable_shard, DrainSummary, ServeConfig, ShardedPool};
pub use stats::{ShardStats, Stats};
