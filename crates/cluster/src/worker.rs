//! The worker side: a child process wrapping one shard host — the
//! single-shard [`kalman_serve::ShardedPool`] a degraded slot runs
//! in-process too — behind the framed protocol.
//!
//! A worker is spawned by the supervisor as a re-exec of the current
//! binary with [`SOCKET_ENV`] pointing at the supervisor's listening
//! Unix socket.  [`worker_entry_from_env`] is the gate: binaries (and
//! the test harness) call it at a known entry point; without the
//! environment variable it is a no-op, with it the process becomes a
//! worker and never returns.
//!
//! Each frame handler decodes its payload, makes one host call and
//! encodes the reply; what a shard does with an entry lives in the host.
//! Because the single-shard pool applies events under the same canonical
//! flush cadence as any in-process pool, the worker's outputs
//! are bitwise identical to in-process serving no matter how its drains
//! interleave with supervisor polls — the property the cluster's
//! recovery tests pin.
//!
//! Exit codes: `0` clean shutdown (or supervisor hang-up between
//! frames), `2` wire-protocol failure (truncation, corruption, version
//! mismatch — the supervisor sees the nonzero exit as a crash), `3`
//! internal serving failure.

use crate::host::ShardHost;
use crate::proto::{
    decode_spec, encode_finished, K_CONFIG, K_EVENT, K_FINISH, K_FINISHED, K_HELLO, K_INSERT,
    K_OUTPUTS, K_PING, K_POLL, K_PONG, K_SHUTDOWN, K_SNAPSHOT_ACK, K_SNAPSHOT_REQ, K_STREAM_ERROR,
};
use kalman_wire::{codec, FrameReader, FrameWriter, Reader, WireError, Writer};
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

/// Why a worker run ended abnormally.
#[derive(Debug)]
enum WorkerError {
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

struct Worker {
    /// The shard; its banked outputs and errors ship on the next poll,
    /// snapshot, or finish.
    host: ShardHost,
    tx: FrameWriter<UnixStream>,
    /// Reusable payload buffer for every outbound frame.
    payload: Writer,
}

fn run_worker(path: &Path) -> Result<(), WorkerError> {
    let sock = UnixStream::connect(path).map_err(WireError::Io)?;
    let tx_sock = sock.try_clone().map_err(WireError::Io)?;
    let mut rx = FrameReader::new(sock);
    let mut tx = FrameWriter::new(tx_sock);
    tx.send(K_HELLO, &[])?;

    // The first frame must be the serving configuration.
    let (queue_capacity, policy) = match rx.next_frame()? {
        Some((K_CONFIG, payload)) => {
            let mut r = Reader::new(payload);
            let cap = r.get_u32()? as usize;
            let policy = codec::decode_exec_policy(&mut r)?;
            r.finish()?;
            (cap, policy)
        }
        Some((kind, _)) => {
            return Err(WorkerError::Internal(format!(
                "expected config frame first, got kind {kind:#04x}"
            )))
        }
        None => return Ok(()), // supervisor went away before configuring
    };
    let mut worker = Worker {
        host: ShardHost::new(queue_capacity, policy),
        tx,
        payload: Writer::new(),
    };

    loop {
        let Some((kind, payload)) = rx.next_frame()? else {
            // Clean hang-up between frames: the supervisor is gone.
            return Ok(());
        };
        match kind {
            K_INSERT => worker.on_insert(payload)?,
            K_EVENT => worker.on_event(payload)?,
            K_POLL => worker.on_poll()?,
            K_SNAPSHOT_REQ => worker.on_snapshot(payload)?,
            K_FINISH => worker.on_finish(payload)?,
            K_PING => worker.tx.send(K_PONG, &[])?,
            K_SHUTDOWN => return Ok(()),
            other => {
                return Err(WorkerError::Internal(format!(
                    "unexpected frame kind {other:#04x} from supervisor"
                )))
            }
        }
    }
}

impl Worker {
    /// Ships the host's banked stream errors, then its banked outputs, as
    /// frames.
    fn ship_pending(&mut self) -> Result<(), WorkerError> {
        for (key, message) in std::mem::take(&mut self.host.errors) {
            self.payload.clear();
            self.payload.put_u64(key);
            codec::encode_str(&mut self.payload, &message);
            self.tx.send(K_STREAM_ERROR, self.payload.as_slice())?;
        }
        self.payload.clear();
        self.payload.put_u32(self.host.outputs.len() as u32);
        for (key, step) in &self.host.outputs {
            self.payload.put_u64(*key);
            codec::encode_finalized_step(&mut self.payload, step);
        }
        self.host.outputs.clear();
        self.tx.send(K_OUTPUTS, self.payload.as_slice())?;
        Ok(())
    }

    fn on_insert(&mut self, payload: &[u8]) -> Result<(), WorkerError> {
        let mut r = Reader::new(payload);
        let key = r.get_u64()?;
        let spec = decode_spec(&mut r)?;
        r.finish()?;
        self.host.insert(key, &spec);
        Ok(())
    }

    fn on_event(&mut self, payload: &[u8]) -> Result<(), WorkerError> {
        let mut r = Reader::new(payload);
        let key = r.get_u64()?;
        let event = codec::decode_event(&mut r)?;
        r.finish()?;
        self.host.event(key, event);
        Ok(())
    }

    fn on_poll(&mut self) -> Result<(), WorkerError> {
        self.host.drain();
        self.ship_pending()
    }

    fn on_snapshot(&mut self, payload: &[u8]) -> Result<(), WorkerError> {
        let mut r = Reader::new(payload);
        let seq = r.get_u64()?;
        r.finish()?;
        // Apply everything queued first: the supervisor truncates its log
        // up to `seq` on this ack, so the snapshot must cover every event
        // delivered before the request — and every output finalized on
        // the way must reach the supervisor no later than the ack.
        self.host.drain();
        self.ship_pending()?;
        let snapshots = self.host.snapshots();
        self.payload.clear();
        self.payload.put_u64(seq);
        self.payload.put_u32(snapshots.len() as u32);
        for snapshot in snapshots {
            let (key, snap) = snapshot.map_err(|e| WorkerError::Internal(e.to_string()))?;
            self.payload.put_u64(key);
            codec::encode_window_snapshot(&mut self.payload, &snap);
        }
        self.tx.send(K_SNAPSHOT_ACK, self.payload.as_slice())?;
        Ok(())
    }

    /// Replies with the drained outputs, then `Finished` or the finish's
    /// own `StreamError`: the supervisor reads the reply as the frame
    /// after the outputs.
    fn on_finish(&mut self, payload: &[u8]) -> Result<(), WorkerError> {
        let mut r = Reader::new(payload);
        let key = r.get_u64()?;
        r.finish()?;
        // The outputs ship before the closing window is smoothed, so the
        // supervisor takes them in meanwhile.
        self.host.drain();
        self.ship_pending()?;
        let result = self.host.finish(key);
        self.payload.clear();
        match result {
            Ok((tail, snapshot)) => {
                encode_finished(&mut self.payload, key, &tail, &snapshot);
                self.tx.send(K_FINISHED, self.payload.as_slice())?;
            }
            Err(e) => {
                self.payload.put_u64(key);
                codec::encode_str(&mut self.payload, &e.to_string());
                self.tx.send(K_STREAM_ERROR, self.payload.as_slice())?;
            }
        }
        Ok(())
    }
}
