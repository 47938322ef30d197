//! Fault-tolerant cross-process serving for streaming Kalman smoothing.
//!
//! `kalman-cluster` moves the sharded serving front-end of
//! [`kalman_serve`] across process boundaries: a [`Supervisor`] spawns
//! one worker process per shard slot (a re-exec of the current binary,
//! gated by the [`SOCKET_ENV`] environment variable), routes stream
//! events to them over [`kalman_wire`]-framed Unix sockets, and — the
//! point of the exercise — survives worker crashes without losing or
//! duplicating a single output.
//!
//! # The recovery contract
//!
//! Three mechanisms combine into exactly-once, bitwise-reproducible
//! serving (the integration tests pin all of it):
//!
//! 1. **Write-ahead log.** Every insert/event/finish is logged by the
//!    supervisor before it is sent.
//! 2. **Snapshot checkpoints.** Periodically each worker ships a
//!    bitwise-transparent [`kalman_stream::WindowSnapshot`] of every
//!    resident stream (having first shipped all pending outputs, so the
//!    ack never outruns data); the supervisor then truncates the covered
//!    log prefix.
//! 3. **Restart + replay.** A dead worker (kill -9, hang-up, corrupt
//!    frame, heartbeat miss) is restarted with bounded exponential
//!    backoff and fed each stream of the last acked snapshot as an
//!    ordinary insert (a [`StreamInit::Resume`] spec), then the logged
//!    suffix.  Replayed outputs regenerate bitwise-identically (the
//!    flush cadence is canonical), and a per-key output cursor drops
//!    what the caller already saw.
//!
//! A finished stream is a snapshot with nothing buffered:
//! [`Supervisor::finish`] returns it, and a [`StreamInit::Resume`] spec
//! continues it.  Its key is free again once no log entry mentions it.
//!
//! A slot that exhausts its [`ClusterConfig::crash_budget`] **degrades**
//! to an in-process shard rebuilt from the same inserts and log —
//! service continues, still without data loss.  A worker and a degraded
//! slot run the same shard host, so both apply each logged entry alike
//! and report the same outputs, stream errors and finish results.
//!
//! Deterministic fault injection ([`FaultPlan`]) scripts worker kills,
//! frame corruption/truncation, and swallowed acks so tests exercise
//! every recovery path reproducibly.
//!
//! See `DESIGN.md` §"Cross-process serving" for the frame layout and
//! recovery state machine, and `docs/GUIDE.md` for a walkthrough from
//! in-process [`kalman_serve::ShardedPool`] to a supervised cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fault;
mod host;
pub mod proto;
mod supervisor;
mod worker;

pub use error::{ClusterError, Result};
pub use fault::{FaultPlan, FrameFault};
pub use proto::{StreamInit, StreamSpec};
pub use supervisor::{ClusterConfig, ClusterStats, Supervisor};
pub use worker::{worker_entry_from_env, SOCKET_ENV};
