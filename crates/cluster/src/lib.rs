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
//! 1. **Write-ahead log.** Every insert/event/finish is encoded once by
//!    the supervisor, and its frame is logged before any reply is read.
//! 2. **Snapshot checkpoints.** Periodically each worker ships a
//!    bitwise-transparent [`kalman_stream::WindowSnapshot`] of every
//!    resident stream (having first shipped all pending outputs, so the
//!    ack never outruns data), each as the ordinary insert payload that
//!    restores it (a [`StreamInit::Resume`] spec); the supervisor keeps
//!    those bytes undecoded and truncates the covered log prefix.
//! 3. **Restart + replay.** A dead worker (kill -9, hang-up, corrupt
//!    frame, heartbeat miss) is restarted with bounded exponential
//!    backoff and sent the last ack's inserts, then the logged frames,
//!    byte for byte.  Replayed outputs regenerate bitwise-identically
//!    (the flush cadence is canonical), and a per-key output cursor drops
//!    what the caller already saw.
//!
//! A finished stream is a snapshot with nothing buffered:
//! [`Supervisor::finish`] returns it, and a [`StreamInit::Resume`] spec
//! continues it.  Its key is free again once no log entry mentions it.
//!
//! The supervisor reaches a slot only through its *link*: send a frame,
//! receive frames until a deadline, kill, respawn, and whether the host
//! can die.  A worker process sits behind a socket link; an in-memory
//! link runs the worker's own frame handler (decode → shard host →
//! encode) in the supervisor's process, over the same CRC-checked frames.
//! A slot that exhausts its [`ClusterConfig::crash_budget`] **degrades**
//! to an in-memory link that cannot die, rebuilt from the same inserts
//! and log — service continues, still without data loss, and the slot
//! reports the same outputs, stream errors and finish results a worker
//! does.  Whether the host can die is what decides whether a slot keeps
//! a log, so a degraded slot keeps none.
//!
//! Deterministic fault injection ([`FaultPlan`]) scripts host kills,
//! frame corruption/truncation, and swallowed acks so tests exercise
//! every recovery path reproducibly — on worker processes, or on a
//! simulated supervisor ([`Supervisor::in_memory`]) whose in-memory links
//! die under the same scripts without spawning a process or waiting on a
//! timeout.
//!
//! See `DESIGN.md` §"Cross-process serving" for the frame layout and
//! recovery state machine, and `docs/GUIDE.md` for a walkthrough from
//! in-process [`kalman_serve::ShardedPool`] to a supervised cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fault;
mod host;
mod link;
pub mod proto;
mod supervisor;
mod worker;

pub use error::{ClusterError, Result};
pub use fault::{FaultPlan, FrameFault};
pub use proto::{StreamInit, StreamSpec};
pub use supervisor::{ClusterConfig, ClusterStats, Supervisor};
pub use worker::{worker_entry_from_env, SOCKET_ENV};
