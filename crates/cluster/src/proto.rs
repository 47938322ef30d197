//! The supervisor ↔ worker protocol: frame kinds and message payloads.
//!
//! Built entirely on [`kalman_wire`] primitives — every payload is a
//! sequence of wire codec values, and every frame is CRC-framed by
//! [`kalman_wire::FrameWriter`].  The protocol is strictly
//! request-driven: workers only speak when spoken to.  A `Finish` is
//! answered with the outputs its drain banked, then `Finished` or the
//! finish's own `StreamError`.  See
//! DESIGN.md §"Cross-process serving" for the full state machine.

use crate::error::{ClusterError, Result};
use kalman_model::CovarianceSpec;
use kalman_stream::{Checkpoint, FinalizedStep, StreamOptions, StreamingSmoother, WindowSnapshot};
use kalman_wire::{codec, Reader, WireError, Writer};

/// Supervisor → worker: serving configuration (must precede anything
/// else on a fresh connection).
pub const K_CONFIG: u8 = 1;
/// Supervisor → worker: register a stream (`key`, [`StreamSpec`]).
pub const K_INSERT: u8 = 2;
/// Supervisor → worker: one stream event (`key`, event).
pub const K_EVENT: u8 = 3;
/// Supervisor → worker: drain and report all pending outputs.
pub const K_POLL: u8 = 4;
/// Supervisor → worker: drain, then snapshot every resident stream
/// (`seq` echoes back in the ack).
pub const K_SNAPSHOT_REQ: u8 = 5;
/// Supervisor → worker: restore one stream from a snapshot (`key`,
/// options, snapshot) — the recovery path on a fresh worker.
pub const K_RESTORE: u8 = 6;
/// Supervisor → worker: finish a stream (`key`).
pub const K_FINISH: u8 = 7;
/// Supervisor → worker: liveness probe.
pub const K_PING: u8 = 8;
/// Supervisor → worker: exit cleanly.
pub const K_SHUTDOWN: u8 = 9;

/// Worker → supervisor: first frame after connecting.
pub const K_HELLO: u8 = 16;
/// Worker → supervisor: a batch of finalized outputs.
pub const K_OUTPUTS: u8 = 17;
/// Worker → supervisor: snapshot of every resident stream.
pub const K_SNAPSHOT_ACK: u8 = 18;
/// Worker → supervisor: a stream finished (`key`, tail, checkpoint).
pub const K_FINISHED: u8 = 19;
/// Worker → supervisor: liveness reply.
pub const K_PONG: u8 = 20;
/// Worker → supervisor: a stream-level error (`key`, message).
pub const K_STREAM_ERROR: u8 = 21;

const INIT_FRESH: u8 = 0;
const INIT_PRIOR: u8 = 1;
const INIT_RESUME: u8 = 2;

/// How a stream starts.
#[derive(Debug, Clone)]
pub enum StreamInit {
    /// No prior on the initial state (dimension `dim`).
    Fresh {
        /// State dimension.
        dim: usize,
    },
    /// A Gaussian prior on the initial state.
    WithPrior {
        /// Prior mean.
        mean: Vec<f64>,
        /// Prior covariance.
        cov: CovarianceSpec,
    },
    /// Continue from a finished stream's checkpoint.
    Resume {
        /// The condensed prior stream.
        checkpoint: Checkpoint,
    },
}

/// A serializable stream registration: everything a worker needs to
/// construct the [`StreamingSmoother`] the supervisor wants resident.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// How the stream starts.
    pub init: StreamInit,
    /// The stream's options.
    pub opts: StreamOptions,
}

impl StreamSpec {
    /// Index of the first step this stream will emit (for output
    /// dedup accounting).
    pub fn first_index(&self) -> u64 {
        match &self.init {
            StreamInit::Resume { checkpoint } => checkpoint.index + 1,
            _ => 0,
        }
    }

    /// Constructs the smoother this spec describes.
    ///
    /// # Errors
    ///
    /// As the [`StreamingSmoother`] constructors (degenerate options or
    /// dimensions).
    pub fn build(&self) -> kalman_model::Result<StreamingSmoother> {
        match &self.init {
            StreamInit::Fresh { dim } => StreamingSmoother::new(*dim, self.opts),
            StreamInit::WithPrior { mean, cov } => {
                StreamingSmoother::with_prior(mean.clone(), cov.clone(), self.opts)
            }
            StreamInit::Resume { checkpoint } => {
                StreamingSmoother::resume(checkpoint.clone(), self.opts)
            }
        }
    }
}

/// Appends a [`StreamSpec`].
pub fn encode_spec(w: &mut Writer, spec: &StreamSpec) {
    match &spec.init {
        StreamInit::Fresh { dim } => {
            w.put_u8(INIT_FRESH);
            w.put_u32(*dim as u32);
        }
        StreamInit::WithPrior { mean, cov } => {
            w.put_u8(INIT_PRIOR);
            codec::encode_vec_f64(w, mean);
            codec::encode_cov(w, cov);
        }
        StreamInit::Resume { checkpoint } => {
            w.put_u8(INIT_RESUME);
            codec::encode_checkpoint(w, checkpoint);
        }
    }
    codec::encode_stream_options(w, &spec.opts);
}

/// Decodes a [`StreamSpec`].
pub fn decode_spec(r: &mut Reader<'_>) -> kalman_wire::Result<StreamSpec> {
    let init = match r.get_u8()? {
        INIT_FRESH => StreamInit::Fresh {
            dim: r.get_u32()? as usize,
        },
        INIT_PRIOR => StreamInit::WithPrior {
            mean: codec::decode_vec_f64(r)?,
            cov: codec::decode_cov(r)?,
        },
        INIT_RESUME => StreamInit::Resume {
            checkpoint: codec::decode_checkpoint(r)?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "stream init",
                tag,
            })
        }
    };
    let opts = codec::decode_stream_options(r)?;
    Ok(StreamSpec { init, opts })
}

/// A decoded worker → supervisor message.
#[derive(Debug)]
pub enum Incoming {
    /// First frame on a fresh connection.
    Hello,
    /// A batch of finalized outputs.
    Outputs(Vec<(u64, FinalizedStep)>),
    /// A whole-worker snapshot.
    SnapshotAck {
        /// Echo of the requested sequence number.
        seq: u64,
        /// Every resident stream's live window.
        snapshots: Vec<(u64, WindowSnapshot)>,
    },
    /// One stream finished.
    Finished {
        /// The finished stream's key.
        key: u64,
        /// Remaining finalized steps (the closing window).
        tail: Vec<FinalizedStep>,
        /// The resumable condensation of the whole stream.
        checkpoint: Checkpoint,
    },
    /// Liveness reply.
    Pong,
    /// A stream-level error the worker absorbed (the stream keeps
    /// serving; this mirrors in-process `last_errors`).
    StreamError {
        /// The affected stream's key.
        key: u64,
        /// Human-readable failure.
        message: String,
    },
}

/// Decodes a worker → supervisor frame.
///
/// # Errors
///
/// [`ClusterError::Protocol`] on a frame kind workers never send;
/// [`ClusterError::Wire`] on payload defects.
pub fn decode_incoming(kind: u8, payload: &[u8]) -> Result<Incoming> {
    let mut r = Reader::new(payload);
    let msg = match kind {
        K_HELLO => Incoming::Hello,
        K_PONG => Incoming::Pong,
        K_OUTPUTS => {
            let count = r.get_u32()? as usize;
            let mut out = Vec::with_capacity(count.min(r.remaining()));
            for _ in 0..count {
                let key = r.get_u64()?;
                let step = codec::decode_finalized_step(&mut r)?;
                out.push((key, step));
            }
            Incoming::Outputs(out)
        }
        K_SNAPSHOT_ACK => {
            let seq = r.get_u64()?;
            let count = r.get_u32()? as usize;
            let mut snapshots = Vec::with_capacity(count.min(r.remaining()));
            for _ in 0..count {
                let key = r.get_u64()?;
                let snap = codec::decode_window_snapshot(&mut r)?;
                snapshots.push((key, snap));
            }
            Incoming::SnapshotAck { seq, snapshots }
        }
        K_FINISHED => {
            let key = r.get_u64()?;
            let count = r.get_u32()? as usize;
            let mut tail = Vec::with_capacity(count.min(r.remaining()));
            for _ in 0..count {
                tail.push(codec::decode_finalized_step(&mut r)?);
            }
            let checkpoint = codec::decode_checkpoint(&mut r)?;
            Incoming::Finished {
                key,
                tail,
                checkpoint,
            }
        }
        K_STREAM_ERROR => {
            let key = r.get_u64()?;
            let message = codec::decode_string(&mut r)?;
            Incoming::StreamError { key, message }
        }
        other => {
            return Err(ClusterError::Protocol(format!(
                "unexpected frame kind {other:#04x} from worker"
            )))
        }
    };
    r.finish()?;
    Ok(msg)
}
