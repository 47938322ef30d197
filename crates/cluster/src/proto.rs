//! The supervisor ↔ worker protocol: frame kinds and message payloads.
//!
//! Built entirely on [`kalman_wire`] primitives — every payload is a
//! sequence of wire codec values, and every frame is CRC-framed by
//! [`kalman_wire::FrameWriter`].  The protocol is strictly
//! request-driven: workers only speak when spoken to.  A `Finish` is
//! answered with the outputs its drain banked, then `Finished` or the
//! finish's own `StreamError`.  A snapshot ack carries, per resident
//! stream, the complete `K_INSERT` payload that restores it, which the
//! supervisor keeps and resends without decoding.  See
//! DESIGN.md §"Cross-process serving" for the full state machine.

use crate::error::{ClusterError, Result};
use kalman_model::CovarianceSpec;
use kalman_stream::{FinalizedStep, StreamOptions, StreamingSmoother, WindowSnapshot};
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
/// Worker → supervisor: snapshot of every resident stream, as the
/// `K_INSERT` payloads that restore them.
pub const K_SNAPSHOT_ACK: u8 = 18;
/// Worker → supervisor: a stream finished (`key`, tail, the finished
/// stream's snapshot).
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
    /// Continue a stream from its snapshot: a finished stream's, or a
    /// live one's (how a snapshot ack carries each resident stream, and so
    /// how a crash replay inserts it again).
    Resume {
        /// The stream's state.
        snapshot: WindowSnapshot,
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
            StreamInit::Resume { snapshot } => snapshot.index + snapshot.base_emitted as u64,
            _ => 0,
        }
    }

    /// Constructs the smoother this spec describes, moving its prior or
    /// snapshot into it.
    ///
    /// # Errors
    ///
    /// As the [`StreamingSmoother`] constructors and
    /// [`StreamingSmoother::restore`] (degenerate options, dimensions or
    /// heads).
    pub fn build(self) -> kalman_model::Result<StreamingSmoother> {
        match self.init {
            StreamInit::Fresh { dim } => StreamingSmoother::new(dim, self.opts),
            StreamInit::WithPrior { mean, cov } => {
                StreamingSmoother::with_prior(mean, cov, self.opts)
            }
            StreamInit::Resume { snapshot } => StreamingSmoother::restore(snapshot, self.opts),
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
        StreamInit::Resume { snapshot } => {
            w.put_u8(INIT_RESUME);
            codec::encode_window_snapshot(w, snapshot);
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
            snapshot: codec::decode_window_snapshot(r)?,
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

/// Appends a `K_SNAPSHOT_ACK` payload: `seq`, the stream count, then per
/// resident stream its key and the length-prefixed `K_INSERT` payload
/// that restores it (the key again, then its [`StreamInit::Resume`]
/// spec).  Each stream is encoded straight from its buffer into the
/// frame; the count and each length are patched in behind what they
/// count.
///
/// # Errors
///
/// The first stream whose window could not be read
/// ([`StreamingSmoother::window`]).
pub fn encode_snapshot_ack<'a>(
    w: &mut Writer,
    seq: u64,
    streams: impl IntoIterator<Item = (u64, &'a StreamingSmoother)>,
) -> kalman_model::Result<()> {
    w.put_u64(seq);
    let count_at = w.len();
    w.put_u32(0);
    let mut count = 0;
    for (key, stream) in streams {
        let window = stream.window()?;
        w.put_u64(key);
        let len_at = w.len();
        w.put_u32(0);
        w.put_u64(key);
        w.put_u8(INIT_RESUME);
        let events = window.events();
        codec::encode_window(w, window.index, window.head, window.base_emitted, events);
        codec::encode_stream_options(w, stream.options());
        w.patch_u32(len_at, (w.len() - len_at - 4) as u32);
        count += 1;
    }
    w.patch_u32(count_at, count);
    Ok(())
}

/// Appends a `K_FINISHED` payload: the key, the closing window's
/// finalized steps, and the finished stream's snapshot.
pub fn encode_finished(
    w: &mut Writer,
    key: u64,
    tail: &[FinalizedStep],
    snapshot: &WindowSnapshot,
) {
    w.put_u64(key);
    w.put_u32(tail.len() as u32);
    for step in tail {
        codec::encode_finalized_step(w, step);
    }
    codec::encode_window_snapshot(w, snapshot);
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
        /// Every resident stream's key and the `K_INSERT` payload that
        /// restores it, as the worker encoded it.
        inserts: Vec<(u64, Vec<u8>)>,
    },
    /// One stream finished.
    Finished {
        /// The finished stream's key.
        key: u64,
        /// Remaining finalized steps (the closing window).
        tail: Vec<FinalizedStep>,
        /// The finished stream: its final state, nothing buffered.
        snapshot: WindowSnapshot,
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
            let mut inserts = Vec::with_capacity(count.min(r.remaining()));
            for _ in 0..count {
                let key = r.get_u64()?;
                let len = r.get_u32()? as usize;
                inserts.push((key, r.get_bytes(len)?.to_vec()));
            }
            Incoming::SnapshotAck { seq, inserts }
        }
        K_FINISHED => {
            let key = r.get_u64()?;
            let count = r.get_u32()? as usize;
            let mut tail = Vec::with_capacity(count.min(r.remaining()));
            for _ in 0..count {
                tail.push(codec::decode_finalized_step(&mut r)?);
            }
            let snapshot = codec::decode_window_snapshot(&mut r)?;
            Incoming::Finished {
                key,
                tail,
                snapshot,
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

#[cfg(test)]
mod tests {
    use super::*;
    use kalman_dense::Matrix;
    use kalman_model::InfoHead;

    /// A finished 2-state stream (index 3, `C = [2 0.5; 0 1.5]`,
    /// `d = [1; -1]`, nothing buffered) and its bytes, unchanged since
    /// wire version 3: index, `C` and `d` as `rows cols` + column-major
    /// data, the base-emitted flag, the event count.
    const FINISHED: &str = "0300000000000000 0200000002000000 \
        0000000000000040 0000000000000000 000000000000e03f 000000000000f83f \
        0200000001000000 000000000000f03f 000000000000f0bf 01 00000000";

    fn finished() -> WindowSnapshot {
        WindowSnapshot {
            index: 3,
            head: InfoHead::from_rows(
                Matrix::from_rows(&[&[2.0, 0.5], &[0.0, 1.5]]),
                Matrix::col_from_slice(&[1.0, -1.0]),
            ),
            base_emitted: true,
            events: Vec::new(),
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unspaced(golden: &str) -> String {
        golden.split_whitespace().collect()
    }

    /// A `K_FINISHED` payload: the key, the tail (one step: index, mean,
    /// no covariance), then the finished stream's snapshot.
    #[test]
    fn finished_payload_layout_is_pinned() {
        let tail = [FinalizedStep {
            index: 3,
            mean: vec![0.25, -0.5],
            covariance: None,
        }];
        let mut w = Writer::new();
        encode_finished(&mut w, 9, &tail, &finished());
        let golden = "0900000000000000 01000000 \
            0300000000000000 02000000 000000000000d03f 000000000000e0bf 00";
        assert_eq!(hex(w.as_slice()), unspaced(golden) + &unspaced(FINISHED));
        match decode_incoming(K_FINISHED, w.as_slice()).unwrap() {
            Incoming::Finished {
                key,
                tail,
                snapshot,
            } => {
                assert_eq!((key, tail[0].index, snapshot.index), (9, 3, 3));
                assert!(snapshot.base_emitted && snapshot.events.is_empty());
            }
            other => panic!("decoded as {other:?}"),
        }
    }

    /// An `INIT_RESUME` spec: the tag, the snapshot, then the options
    /// (here the defaults, whose bytes did not move since version 2).
    #[test]
    fn resume_spec_layout_is_pinned() {
        let spec = StreamSpec {
            init: StreamInit::Resume {
                snapshot: finished(),
            },
            opts: StreamOptions::default(),
        };
        let mut w = Writer::new();
        encode_spec(&mut w, &spec);
        let opts = "20000000 00 20000000 00 01 0a000000 01 00";
        let golden = unspaced(&format!("02 {FINISHED} {opts}"));
        assert_eq!(hex(w.as_slice()), golden);
        let back = decode_spec(&mut Reader::new(w.as_slice())).unwrap();
        assert_eq!(
            back.first_index(),
            4,
            "the finished state is not emitted again"
        );
        assert!(back.build().is_ok());
    }

    /// A `K_SNAPSHOT_ACK` payload (wire version 4): the sequence number,
    /// the stream count, then per stream its key, the length of its
    /// `K_INSERT` payload and that payload — the key again and an
    /// `INIT_RESUME` spec.  The supervisor keeps those bytes as they came.
    #[test]
    fn snapshot_ack_payload_layout_is_pinned() {
        let stream = StreamingSmoother::restore(finished(), StreamOptions::default()).unwrap();
        let mut w = Writer::new();
        encode_snapshot_ack(&mut w, 5, [(9, &stream)]).unwrap();
        let opts = "20000000 00 20000000 00 01 0a000000 01 00";
        // 8 (key) + 1 (tag) + 77 (snapshot) + 17 (options) = 103 bytes.
        let insert = unspaced(&format!("0900000000000000 02 {FINISHED} {opts}"));
        let golden = unspaced("0500000000000000 01000000 0900000000000000 67000000") + &insert;
        assert_eq!(hex(w.as_slice()), golden);
        match decode_incoming(K_SNAPSHOT_ACK, w.as_slice()).unwrap() {
            Incoming::SnapshotAck { seq, inserts } => {
                assert_eq!((seq, inserts.len(), inserts[0].0), (5, 1, 9));
                assert_eq!(
                    hex(&inserts[0].1),
                    insert,
                    "the insert bytes pass unchanged"
                );
                let mut r = Reader::new(&inserts[0].1);
                assert_eq!(r.get_u64().unwrap(), 9);
                let back = decode_spec(&mut r).unwrap();
                r.finish().unwrap();
                assert_eq!(back.first_index(), 4);
            }
            other => panic!("decoded as {other:?}"),
        }
    }
}
