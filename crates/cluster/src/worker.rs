//! The worker side: the frame handler every shard host runs, and the
//! socket loop of a worker process around it.
//!
//! [`Handler`] serves one supervisor frame at a time: it decodes the
//! payload, makes one [`ShardHost`] call and encodes the replies.  Its
//! snapshot ack carries every resident stream as the insert payload that
//! restores it, so a replay decodes (and validates) a snapshot only here,
//! where the stream is rebuilt.  A
//! worker process runs it behind its Unix socket, and an in-memory link
//! (a degraded slot, or a slot of a simulated supervisor) runs it behind
//! a byte pipe, so both apply each logged entry alike and report the same
//! outputs, stream errors and finish results.
//!
//! A worker is spawned by the supervisor as a re-exec of the current
//! binary with [`SOCKET_ENV`] pointing at the supervisor's listening
//! Unix socket.  [`worker_entry_from_env`] is the gate: binaries (and
//! the test harness) call it at a known entry point; without the
//! environment variable it is a no-op, with it the process becomes a
//! worker and never returns.
//!
//! Because the single-shard pool applies events under the same canonical
//! flush cadence as any in-process pool, a host's outputs are bitwise
//! identical to in-process serving no matter how its drains interleave
//! with supervisor polls — the property the cluster's recovery tests pin.
//!
//! Exit codes: `0` clean shutdown (or supervisor hang-up between
//! frames), `2` wire-protocol failure (truncation, corruption, version
//! mismatch — the supervisor sees the nonzero exit as a crash), `3`
//! internal serving failure.

use crate::host::ShardHost;
use crate::proto::{
    decode_spec, encode_finished, encode_snapshot_ack, K_CONFIG, K_EVENT, K_FINISH, K_FINISHED,
    K_HELLO, K_INSERT, K_OUTPUTS, K_PING, K_POLL, K_PONG, K_SHUTDOWN, K_SNAPSHOT_ACK,
    K_SNAPSHOT_REQ, K_STREAM_ERROR,
};
use kalman_wire::{codec, FrameReader, FrameWriter, Reader, WireError, Writer};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Environment variable naming the Unix socket a worker connects back
/// to.  Its presence is what turns a process into a worker.
pub const SOCKET_ENV: &str = "KALMAN_CLUSTER_SOCKET";

/// Becomes a cluster worker if [`SOCKET_ENV`] is set: connects back to
/// the supervisor, serves frames until shutdown, and **exits the
/// process** (never returns).  Without the variable, returns `false`
/// immediately — safe to call unconditionally from a binary's `main` or
/// a test-harness entry point.
pub fn worker_entry_from_env() -> bool {
    let Some(path) = std::env::var_os(SOCKET_ENV) else {
        return false;
    };
    let code = match run_worker(Path::new(&path)) {
        Ok(()) => 0,
        Err(WorkerError::Wire(e)) => {
            eprintln!("cluster worker: wire failure: {e}");
            2
        }
        Err(WorkerError::Internal(msg)) => {
            eprintln!("cluster worker: {msg}");
            3
        }
    };
    std::process::exit(code);
}

/// Why a host stopped serving abnormally.
#[derive(Debug)]
pub(crate) enum WorkerError {
    /// The byte stream itself failed (corruption, truncation, transport).
    Wire(WireError),
    /// The serving layer failed in a way the protocol cannot express.
    Internal(String),
}

impl From<WireError> for WorkerError {
    fn from(e: WireError) -> Self {
        WorkerError::Wire(e)
    }
}

/// The socket loop: `Hello`, then every frame through one [`Handler`].
fn run_worker(path: &Path) -> Result<(), WorkerError> {
    let sock = UnixStream::connect(path).map_err(WireError::Io)?;
    let mut tx = FrameWriter::new(sock.try_clone().map_err(WireError::Io)?);
    let mut rx = FrameReader::new(sock);
    tx.send(K_HELLO, &[])?;
    let mut handler = Handler::default();
    // A clean hang-up between frames means the supervisor is gone.
    while let Some((kind, payload)) = rx.next_frame()? {
        if !handler.handle(kind, payload, &mut tx)? {
            break;
        }
    }
    Ok(())
}

/// One shard host behind the framed protocol: `decode → ShardHost →
/// encode`.
#[derive(Default)]
pub(crate) struct Handler {
    /// The shard, built by the configuration frame; its banked outputs
    /// and errors ship on the next poll, snapshot, or finish.
    host: Option<ShardHost>,
    /// Reusable payload buffer for every outbound frame.
    payload: Writer,
}

impl Handler {
    /// Serves one supervisor frame, sending its replies through `tx`.
    /// Returns `false` once the supervisor asks the host to exit.
    pub(crate) fn handle<W: Write>(
        &mut self,
        kind: u8,
        payload: &[u8],
        tx: &mut FrameWriter<W>,
    ) -> Result<bool, WorkerError> {
        let mut r = Reader::new(payload);
        let out = &mut self.payload;
        if kind == K_CONFIG {
            let cap = r.get_u32()? as usize;
            let policy = codec::decode_exec_policy(&mut r)?;
            r.finish()?;
            self.host = Some(ShardHost::new(cap, policy));
            return Ok(true);
        }
        let Some(host) = self.host.as_mut() else {
            return Err(WorkerError::Internal(format!(
                "expected config frame first, got kind {kind:#04x}"
            )));
        };
        match kind {
            K_INSERT => {
                let key = r.get_u64()?;
                let spec = decode_spec(&mut r)?;
                r.finish()?;
                host.insert(key, spec);
            }
            K_EVENT => {
                let key = r.get_u64()?;
                let event = codec::decode_event(&mut r)?;
                r.finish()?;
                host.event(key, event);
            }
            K_POLL => ship_pending(host, out, tx)?,
            K_SNAPSHOT_REQ => {
                let seq = r.get_u64()?;
                r.finish()?;
                // The supervisor truncates its log up to `seq` on this
                // ack, so the snapshot must cover every event delivered
                // before the request — and every output finalized on the
                // way must reach the supervisor no later than the ack.
                ship_pending(host, out, tx)?;
                out.clear();
                (encode_snapshot_ack(out, seq, host.resume_specs()))
                    .map_err(|e| WorkerError::Internal(e.to_string()))?;
                tx.send(K_SNAPSHOT_ACK, out.as_slice())?;
            }
            K_FINISH => {
                let key = r.get_u64()?;
                r.finish()?;
                // The drained outputs ship before the closing window is
                // smoothed, then `Finished` or the finish's own
                // `StreamError`: the supervisor reads the reply as the
                // frame after the outputs.
                ship_pending(host, out, tx)?;
                out.clear();
                match host.finish(key) {
                    Ok((tail, snapshot)) => {
                        encode_finished(out, key, &tail, &snapshot);
                        tx.send(K_FINISHED, out.as_slice())?;
                    }
                    Err(e) => {
                        out.put_u64(key);
                        codec::encode_str(out, &e.to_string());
                        tx.send(K_STREAM_ERROR, out.as_slice())?;
                    }
                }
            }
            K_PING => tx.send(K_PONG, &[])?,
            K_SHUTDOWN => return Ok(false),
            other => {
                return Err(WorkerError::Internal(format!(
                    "unexpected frame kind {other:#04x} from supervisor"
                )))
            }
        }
        Ok(true)
    }
}

/// Applies everything queued, then ships the host's banked stream errors
/// and its banked outputs as frames.
fn ship_pending<W: Write>(
    host: &mut ShardHost,
    out: &mut Writer,
    tx: &mut FrameWriter<W>,
) -> Result<(), WorkerError> {
    host.drain();
    for (key, message) in std::mem::take(&mut host.errors) {
        out.clear();
        out.put_u64(key);
        codec::encode_str(out, &message);
        tx.send(K_STREAM_ERROR, out.as_slice())?;
    }
    out.clear();
    out.put_u32(host.outputs.len() as u32);
    for (key, step) in &host.outputs {
        out.put_u64(*key);
        codec::encode_finalized_step(out, step);
    }
    host.outputs.clear();
    tx.send(K_OUTPUTS, out.as_slice())?;
    Ok(())
}
