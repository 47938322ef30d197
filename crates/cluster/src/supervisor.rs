//! The supervisor: cross-process sharded serving with crash recovery.
//!
//! A [`Supervisor`] owns `workers` shard slots.  Each slot normally runs
//! a child process (a re-exec of the current binary gated by
//! [`crate::SOCKET_ENV`]) speaking the framed protocol over a Unix
//! socket.  Keys route to slots by the same [`stable_shard`] hash the
//! in-process [`ShardedPool`] uses.
//!
//! # Durability model
//!
//! Every mutation (insert, event, finish) is appended to the slot's
//! in-memory **write-ahead log before it is sent**.  Periodically (every
//! [`ClusterConfig::checkpoint_every`] events) the supervisor asks the
//! worker for a **snapshot** of every resident stream — the live window,
//! not an early finalization — and on the ack truncates the log prefix
//! the snapshot covers.  A worker death (heartbeat miss, hang-up,
//! nonzero exit, corrupt frame) therefore never loses data: the slot is
//! restarted with bounded exponential backoff, restored from the last
//! acked snapshots, and the logged suffix is replayed.  Replay
//! regenerates exactly the outputs the dead worker would have produced
//! (snapshots are bitwise-transparent and the flush cadence is
//! canonical), and a per-key output cursor drops the prefix the
//! supervisor already delivered — every finalized step is delivered
//! **exactly once**, bitwise equal to in-process serving.
//!
//! After [`ClusterConfig::crash_budget`] consecutive restarts a slot
//! **degrades**: the supervisor rebuilds the shard in-process from the
//! same snapshots + log suffix and keeps serving without worker
//! processes — graceful degradation, still no data loss.

use crate::error::{ClusterError, Result};
use crate::fault::{FaultPlan, FrameFault};
use crate::proto::{
    decode_incoming, encode_spec, Incoming, StreamSpec, K_CONFIG, K_EVENT, K_FINISH, K_INSERT,
    K_PING, K_POLL, K_RESTORE, K_SHUTDOWN, K_SNAPSHOT_REQ,
};
use crate::worker::SOCKET_ENV;
use kalman_model::{KalmanError, StreamEvent};
use kalman_obs::{Counter, Histogram};
use kalman_serve::{stable_shard, Ingress, ServeConfig, ShardedPool};
use kalman_stream::{Checkpoint, FinalizedStep, StreamOptions, StreamingSmoother, WindowSnapshot};
use kalman_wire::{codec, frame_bytes, FrameReader, FrameWriter, Progress, WireError, Writer};
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cluster deployment and recovery policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shard slots (worker processes), ≥ 1.
    pub workers: usize,
    /// Per-worker ingestion queue bound (the worker's internal
    /// [`ShardedPool`] queue).
    pub queue_capacity: usize,
    /// Execution policy of each worker's batched flush.
    pub policy: kalman_par::ExecPolicy,
    /// Events per slot between snapshot checkpoints (≥ 1).  Smaller
    /// means shorter replays after a crash but more snapshot traffic.
    pub checkpoint_every: u64,
    /// Socket read timeout: a worker silent for this long while a reply
    /// is expected counts as a heartbeat miss.
    pub heartbeat_timeout: Duration,
    /// Overall deadline for any single worker reply (a poll of a large
    /// shard legitimately takes longer than one heartbeat).
    pub reply_timeout: Duration,
    /// How long a freshly spawned worker gets to connect back.
    pub spawn_timeout: Duration,
    /// Consecutive restarts after which a slot degrades to in-process
    /// serving.
    pub crash_budget: u32,
    /// First restart backoff; doubles per consecutive restart.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Arguments passed to the re-exec'd worker binary (the test
    /// harness uses a libtest filter to land in the worker entry).
    pub worker_args: Vec<String>,
    /// Deterministic fault injection (tests only; default injects
    /// nothing).
    pub fault_plan: FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 2,
            queue_capacity: 1024,
            policy: kalman_par::ExecPolicy::Seq,
            checkpoint_every: 64,
            heartbeat_timeout: Duration::from_secs(2),
            reply_timeout: Duration::from_secs(30),
            spawn_timeout: Duration::from_secs(10),
            crash_budget: 3,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            worker_args: vec!["cluster_worker_entry".into(), "--exact".into()],
            fault_plan: FaultPlan::default(),
        }
    }
}

/// One durable mutation, logged before it is sent.
#[derive(Debug, Clone)]
enum WalEntry {
    Insert { key: u64, spec: StreamSpec },
    Event { key: u64, event: StreamEvent },
    Finish { key: u64 },
}

/// Cached `kalman-obs` registry handles (lookups once, not per frame).
struct Metrics {
    frames_sent: &'static Counter,
    frames_recv: &'static Counter,
    events: &'static Counter,
    restarts: &'static Counter,
    degraded: &'static Counter,
    snapshots: &'static Counter,
    replay_len: &'static Histogram,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            frames_sent: kalman_obs::counter("wire.frames_sent"),
            frames_recv: kalman_obs::counter("wire.frames_recv"),
            events: kalman_obs::counter("cluster.events"),
            restarts: kalman_obs::counter("cluster.restarts"),
            degraded: kalman_obs::counter("cluster.degraded"),
            snapshots: kalman_obs::counter("cluster.snapshots_acked"),
            replay_len: kalman_obs::histogram("cluster.replay_len"),
        }
    }
}

/// A live connection to a worker process.
struct Conn {
    child: Child,
    tx: FrameWriter<UnixStream>,
    rx: FrameReader<UnixStream>,
    socket_path: PathBuf,
    /// Frames sent on this connection (fault rules index into this).
    frames_sent: u64,
}

impl Conn {
    /// Sends one frame, applying any scripted fault.  A `Truncate` fault
    /// severs the connection and reports the severance as an I/O error
    /// so the caller enters recovery immediately.
    fn send(
        &mut self,
        metrics: &Metrics,
        fault: &mut FaultPlan,
        slot: usize,
        kind: u8,
        payload: &[u8],
    ) -> kalman_wire::Result<()> {
        self.frames_sent += 1;
        metrics.frames_sent.inc();
        match fault.take_frame_fault(slot, self.frames_sent) {
            None => self.tx.send(kind, payload),
            Some(FrameFault::Corrupt) => {
                let mut bytes = frame_bytes(kind, payload);
                // Flip a bit after the CRC was computed; the worker must
                // detect BadCrc and die (its exit is the next failure the
                // supervisor observes).
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
                let sock = self.tx.get_mut();
                sock.write_all(&bytes)?;
                sock.flush()?;
                Ok(())
            }
            Some(FrameFault::Truncate) => {
                let bytes = frame_bytes(kind, payload);
                let cut = (bytes.len() / 2).max(1);
                let sock = self.tx.get_mut();
                sock.write_all(&bytes[..cut])?;
                sock.flush()?;
                let _ = sock.shutdown(std::net::Shutdown::Both);
                Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "fault injection: connection severed mid-frame",
                )))
            }
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

/// A degraded slot: the shard rebuilt in-process.
struct LocalShard {
    pool: ShardedPool,
    ingress: Ingress,
}

enum Mode {
    Remote(Conn),
    Local(LocalShard),
}

struct Slot {
    mode: Mode,
    /// Entries not yet covered by an acked snapshot, oldest first.
    wal: VecDeque<(u64, WalEntry)>,
    /// Next log sequence number.
    next_seq: u64,
    /// Highest sequence number covered by `snapshots`.
    acked_seq: u64,
    /// Every resident stream's state at `acked_seq` (with the options
    /// needed to restore it).
    snapshots: Vec<(u64, StreamOptions, WindowSnapshot)>,
    /// Lifetime event frames delivered (kill-fault rules index this).
    events_delivered: u64,
    /// Events since the last snapshot request.
    events_since_ckpt: u64,
    /// Consecutive restarts (resets never — the budget is lifetime).
    restarts: u32,
}

/// What a pumped worker frame amounted to (after applying it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Outputs,
    Ack,
    Finished(u64),
    Pong,
    StreamError(u64),
    Hello,
}

/// Point-in-time cluster health.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Restarts per slot, lifetime.
    pub restarts: Vec<u32>,
    /// Which slots run in-process after exhausting their crash budget.
    pub degraded: Vec<bool>,
    /// Un-truncated write-ahead entries per slot (replay cost of a crash
    /// right now).
    pub wal_depth: Vec<usize>,
}

/// Fault-tolerant cross-process sharded serving (see the module docs).
pub struct Supervisor {
    cfg: ClusterConfig,
    fault: FaultPlan,
    metrics: Metrics,
    slots: Vec<Slot>,
    /// Options of every live (not yet finished) stream.
    opts: HashMap<u64, StreamOptions>,
    /// Next output index each key owes the caller — the exactly-once
    /// cursor (replayed duplicates fall below it and are dropped).
    next_emit: HashMap<u64, u64>,
    /// Accepted outputs not yet taken by the caller.
    outputs: HashMap<u64, Vec<FinalizedStep>>,
    /// Closing checkpoints of finished streams.
    finished: HashMap<u64, Checkpoint>,
    /// Stream-level errors reported by workers (mirrors the in-process
    /// pool's `last_errors`).
    stream_errors: Vec<(u64, String)>,
}

/// Per-spawn nonce making socket paths unique.  Process-wide, not
/// per-supervisor: the path also carries only the pid and slot, so two
/// supervisors in one process counting from 0 would bind (and on drop
/// unlink) each other's sockets.
static SPAWN_NONCE: AtomicU64 = AtomicU64::new(0);

impl Supervisor {
    /// Spawns every worker and waits for all of them to connect.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] on a degenerate configuration;
    /// [`ClusterError::Spawn`] when a worker cannot be started.
    pub fn new(cfg: ClusterConfig) -> Result<Supervisor> {
        if cfg.workers == 0 {
            return Err(ClusterError::Config("need at least one worker".into()));
        }
        if cfg.checkpoint_every == 0 {
            return Err(ClusterError::Config("checkpoint_every must be ≥ 1".into()));
        }
        if cfg.queue_capacity == 0 {
            return Err(ClusterError::Config("queue_capacity must be ≥ 1".into()));
        }
        let metrics = Metrics::new();
        let fault = cfg.fault_plan.clone();
        let mut sup = Supervisor {
            fault,
            metrics,
            slots: Vec::with_capacity(cfg.workers),
            opts: HashMap::new(),
            next_emit: HashMap::new(),
            outputs: HashMap::new(),
            finished: HashMap::new(),
            stream_errors: Vec::new(),
            cfg,
        };
        for idx in 0..sup.cfg.workers {
            let conn = sup.spawn_conn(idx)?;
            sup.slots.push(Slot {
                mode: Mode::Remote(conn),
                wal: VecDeque::new(),
                next_seq: 0,
                acked_seq: 0,
                snapshots: Vec::new(),
                events_delivered: 0,
                events_since_ckpt: 0,
                restarts: 0,
            });
        }
        Ok(sup)
    }

    /// Number of shard slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// The slot a key routes to (same [`stable_shard`] hash as the
    /// in-process pool).
    pub fn slot_of(&self, key: u64) -> usize {
        stable_shard(key, self.slots.len())
    }

    /// Point-in-time health.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            restarts: self.slots.iter().map(|s| s.restarts).collect(),
            degraded: self
                .slots
                .iter()
                .map(|s| matches!(s.mode, Mode::Local(_)))
                .collect(),
            wal_depth: self.slots.iter().map(|s| s.wal.len()).collect(),
        }
    }

    /// Stream-level errors reported since the last call (cleared on
    /// read; mirrors the in-process pool's `last_errors`).
    pub fn take_stream_errors(&mut self) -> Vec<(u64, String)> {
        std::mem::take(&mut self.stream_errors)
    }

    /// Registers a stream.
    ///
    /// # Errors
    ///
    /// Rejects duplicate keys with [`ClusterError::Kalman`].
    pub fn insert(&mut self, key: u64, spec: StreamSpec) -> Result<()> {
        if self.opts.contains_key(&key) || self.finished.contains_key(&key) {
            return Err(ClusterError::Kalman(KalmanError::Stream(format!(
                "stream key {key} is already registered"
            ))));
        }
        let slot = self.slot_of(key);
        self.opts.insert(key, spec.opts);
        self.next_emit.insert(key, spec.first_index());
        self.log_and_deliver(slot, WalEntry::Insert { key, spec })
    }

    /// Routes one event to its stream.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownKey`] for unregistered keys.  Transport
    /// failures are handled internally (recovery); what surfaces is
    /// recovery itself failing beyond repair.
    pub fn send(&mut self, key: u64, event: StreamEvent) -> Result<()> {
        if !self.opts.contains_key(&key) {
            return Err(ClusterError::UnknownKey(key));
        }
        let slot = self.slot_of(key);
        self.metrics.events.inc();
        self.log_and_deliver(slot, WalEntry::Event { key, event })?;
        self.slots[slot].events_since_ckpt += 1;
        if self.slots[slot].events_since_ckpt >= self.cfg.checkpoint_every {
            self.checkpoint_slot(slot)?;
        }
        Ok(())
    }

    /// Convenience: evolve.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::send`].
    pub fn evolve(&mut self, key: u64, evolution: kalman_model::Evolution) -> Result<()> {
        self.send(key, StreamEvent::Evolve(evolution))
    }

    /// Convenience: observe.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::send`].
    pub fn observe(&mut self, key: u64, observation: kalman_model::Observation) -> Result<()> {
        self.send(key, StreamEvent::Observe(observation))
    }

    /// Forcibly kills a slot's worker process **without** recovering it:
    /// the next poll or heartbeat notices the death and runs the normal
    /// recovery path.  An operational hook (rolling a worker onto a new
    /// binary, or exercising recovery in tests); degraded slots ignore
    /// it.
    pub fn kill_worker(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            if let Mode::Remote(conn) = &mut s.mode {
                let _ = conn.child.kill();
                let _ = conn.child.wait();
            }
        }
    }

    /// Drains every slot and banks the finalized outputs (read them with
    /// [`Supervisor::take_outputs`]).  This is also the liveness probe:
    /// dead workers are discovered and recovered here.
    ///
    /// # Errors
    ///
    /// Only unrecoverable failures (a slot that can neither restart nor
    /// degrade).
    pub fn poll(&mut self) -> Result<()> {
        for slot in 0..self.slots.len() {
            self.poll_slot(slot)?;
        }
        Ok(())
    }

    /// Everything finalized since the last take, keyed and in order,
    /// sorted by key.  Each step appears exactly once across the life of
    /// the supervisor, crashes included.
    pub fn take_outputs(&mut self) -> Vec<(u64, Vec<FinalizedStep>)> {
        let mut out: Vec<(u64, Vec<FinalizedStep>)> = self
            .outputs
            .drain()
            .filter(|(_, v)| !v.is_empty())
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Pings every remote worker; a slot that stays silent past the
    /// heartbeat timeout is declared dead and recovered.
    ///
    /// # Errors
    ///
    /// Only unrecoverable failures.
    pub fn heartbeat(&mut self) -> Result<()> {
        for slot in 0..self.slots.len() {
            if matches!(self.slots[slot].mode, Mode::Local(_)) {
                continue;
            }
            let sent = self.send_frame(slot, K_PING, &[]);
            let alive = match sent {
                Ok(()) => self
                    .pump_until(slot, self.cfg.heartbeat_timeout, |s| *s == Seen::Pong)
                    .is_ok(),
                Err(_) => false,
            };
            if !alive {
                kalman_obs::event("cluster.heartbeat_miss", slot as u64, 0);
                self.recover(slot)?;
            }
        }
        Ok(())
    }

    /// Finishes a stream: applies everything queued for it, returns every
    /// not-yet-taken finalized step (ending with the closing window) and
    /// the resumable checkpoint.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownKey`] for unregistered keys;
    /// [`ClusterError::Kalman`] when the stream's closing flush failed.
    pub fn finish(&mut self, key: u64) -> Result<(Vec<FinalizedStep>, Checkpoint)> {
        if !self.opts.contains_key(&key) {
            return Err(ClusterError::UnknownKey(key));
        }
        let slot = self.slot_of(key);
        self.log_and_deliver(slot, WalEntry::Finish { key })?;
        if !self.finished.contains_key(&key) {
            // Remote mode: the reply may not be in yet (recovery replay
            // pumps it internally; the direct path pumps here).
            if matches!(self.slots[slot].mode, Mode::Remote(_)) {
                let wanted = key;
                let pumped = self.pump_until(
                    slot,
                    self.cfg.reply_timeout,
                    move |s| matches!(s, Seen::Finished(k) | Seen::StreamError(k) if *k == wanted),
                );
                if let Err(e) = pumped {
                    if is_transport(&e) {
                        self.recover(slot)?;
                    } else {
                        return Err(e);
                    }
                }
            }
        }
        self.opts.remove(&key);
        let Some(checkpoint) = self.finished.get(&key).cloned() else {
            let msg = self
                .stream_errors
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|(_, m)| m.clone())
                .unwrap_or_else(|| "worker reported no result".into());
            return Err(ClusterError::Kalman(KalmanError::Stream(format!(
                "finish({key}) failed: {msg}"
            ))));
        };
        let steps = self.outputs.remove(&key).unwrap_or_default();
        Ok((steps, checkpoint))
    }

    /// Stops every worker (clean shutdown frame, then force-kill after a
    /// grace period).  Dropping the supervisor kills workers too; this
    /// is the polite version.
    pub fn shutdown(mut self) {
        for slot in 0..self.slots.len() {
            let _ = self.send_frame(slot, K_SHUTDOWN, &[]);
            if let Mode::Remote(conn) = &mut self.slots[slot].mode {
                let deadline = Instant::now() + Duration::from_secs(2);
                loop {
                    match conn.child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        _ => {
                            let _ = conn.child.kill();
                            let _ = conn.child.wait();
                            break;
                        }
                    }
                }
            }
        }
    }

    // ---- internals ----------------------------------------------------

    /// Appends to the slot's log, then delivers (local slots apply
    /// directly; the log is only kept for remote slots).
    fn log_and_deliver(&mut self, slot: usize, entry: WalEntry) -> Result<()> {
        if matches!(self.slots[slot].mode, Mode::Remote(_)) {
            let seq = self.slots[slot].next_seq;
            self.slots[slot].next_seq += 1;
            self.slots[slot].wal.push_back((seq, entry.clone()));
        }
        self.deliver(slot, &entry)
    }

    /// Delivers one entry; a transport failure triggers recovery, whose
    /// replay re-delivers the (already logged) entry.
    fn deliver(&mut self, slot: usize, entry: &WalEntry) -> Result<()> {
        match &self.slots[slot].mode {
            Mode::Local(_) => self.apply_local(slot, entry),
            Mode::Remote(_) => {
                match self.send_entry(slot, entry) {
                    Ok(()) => {
                        if let WalEntry::Event { .. } = entry {
                            self.slots[slot].events_delivered += 1;
                            let n = self.slots[slot].events_delivered;
                            if self.fault.take_kill(slot, n) {
                                // Scripted kill -9: die now, be discovered
                                // by whatever interaction comes next.
                                if let Mode::Remote(conn) = &mut self.slots[slot].mode {
                                    let _ = conn.child.kill();
                                    let _ = conn.child.wait();
                                }
                            }
                        }
                        Ok(())
                    }
                    Err(_) => self.recover(slot),
                }
            }
        }
    }

    /// Encodes and sends one log entry as its protocol frame.
    fn send_entry(&mut self, slot: usize, entry: &WalEntry) -> kalman_wire::Result<()> {
        let mut payload = Writer::new();
        let kind = match entry {
            WalEntry::Insert { key, spec } => {
                payload.put_u64(*key);
                encode_spec(&mut payload, spec);
                K_INSERT
            }
            WalEntry::Event { key, event } => {
                payload.put_u64(*key);
                codec::encode_event(&mut payload, event);
                K_EVENT
            }
            WalEntry::Finish { key } => {
                payload.put_u64(*key);
                K_FINISH
            }
        };
        self.send_frame_wire(slot, kind, payload.as_slice())
    }

    /// Sends a raw frame to a remote slot (wire-level error).
    fn send_frame_wire(
        &mut self,
        slot: usize,
        kind: u8,
        payload: &[u8],
    ) -> kalman_wire::Result<()> {
        let Supervisor {
            slots,
            fault,
            metrics,
            ..
        } = self;
        match &mut slots[slot].mode {
            Mode::Remote(conn) => conn.send(metrics, fault, slot, kind, payload),
            Mode::Local(_) => Ok(()),
        }
    }

    /// Sends a raw frame, converting the error.
    fn send_frame(&mut self, slot: usize, kind: u8, payload: &[u8]) -> Result<()> {
        self.send_frame_wire(slot, kind, payload)
            .map_err(Into::into)
    }

    /// Polls one slot (drain + collect outputs), recovering it if dead.
    fn poll_slot(&mut self, slot: usize) -> Result<()> {
        // At most one recovery attempt per poll: recovery replay already
        // regenerates and banks pending outputs, so the re-poll after it
        // is ordinary.
        for attempt in 0..2 {
            if matches!(self.slots[slot].mode, Mode::Local(_)) {
                self.collect_local(slot);
                return Ok(());
            }
            let result = self.send_frame(slot, K_POLL, &[]).and_then(|()| {
                self.pump_until(slot, self.cfg.reply_timeout, |s| *s == Seen::Outputs)
            });
            match result {
                Ok(()) => return Ok(()),
                Err(e) if is_transport(&e) && attempt == 0 => self.recover(slot)?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Requests a snapshot of every stream on the slot and, on ack,
    /// truncates the covered log prefix.
    fn checkpoint_slot(&mut self, slot: usize) -> Result<()> {
        if matches!(self.slots[slot].mode, Mode::Local(_)) {
            return Ok(());
        }
        self.slots[slot].events_since_ckpt = 0;
        let seq = self.slots[slot].next_seq.saturating_sub(1);
        let mut payload = Writer::new();
        payload.put_u64(seq);
        let result = self
            .send_frame(slot, K_SNAPSHOT_REQ, payload.as_slice())
            .and_then(|()| self.pump_until(slot, self.cfg.reply_timeout, |s| *s == Seen::Ack));
        match result {
            Ok(()) => Ok(()),
            Err(e) if is_transport(&e) => self.recover(slot),
            Err(e) => Err(e),
        }
    }

    /// Reads and applies worker frames until `want` is satisfied or the
    /// deadline passes.
    fn pump_until(
        &mut self,
        slot: usize,
        timeout: Duration,
        want: impl Fn(&Seen) -> bool,
    ) -> Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            let incoming = {
                let Supervisor { slots, metrics, .. } = &mut *self;
                let Mode::Remote(conn) = &mut slots[slot].mode else {
                    return Err(ClusterError::Protocol("pumping a degraded slot".into()));
                };
                read_incoming(conn, metrics, deadline, slot)?
            };
            let seen = self.apply_incoming(slot, incoming);
            if want(&seen) {
                return Ok(());
            }
        }
    }

    /// Applies one worker message to supervisor state.
    fn apply_incoming(&mut self, slot: usize, incoming: Incoming) -> Seen {
        match incoming {
            Incoming::Hello => Seen::Hello,
            Incoming::Pong => Seen::Pong,
            Incoming::Outputs(batch) => {
                for (key, step) in batch {
                    self.accept_output(key, step);
                }
                Seen::Outputs
            }
            Incoming::StreamError { key, message } => {
                self.stream_errors.push((key, message));
                Seen::StreamError(key)
            }
            Incoming::Finished {
                key,
                tail,
                checkpoint,
            } => {
                // Replays re-deliver this; the first delivery wins (they
                // are bitwise identical anyway).
                if !self.finished.contains_key(&key) {
                    for step in tail {
                        self.accept_output(key, step);
                    }
                    self.finished.insert(key, checkpoint);
                }
                Seen::Finished(key)
            }
            Incoming::SnapshotAck { seq, snapshots } => {
                if self.fault.take_ack_delay(slot) {
                    // Scripted ack loss: behave as if it never arrived —
                    // the log keeps growing and the next crash replays a
                    // longer suffix.
                    kalman_obs::event("cluster.ack_delayed", slot as u64, seq);
                    return Seen::Ack;
                }
                let s = &mut self.slots[slot];
                s.acked_seq = seq;
                s.snapshots.clear();
                for (key, snap) in snapshots {
                    if let Some(opts) = self.opts.get(&key) {
                        s.snapshots.push((key, *opts, snap));
                    }
                }
                while s.wal.front().is_some_and(|(q, _)| *q <= seq) {
                    s.wal.pop_front();
                }
                self.metrics.snapshots.inc();
                kalman_obs::event("cluster.snapshot_ack", slot as u64, seq);
                Seen::Ack
            }
        }
    }

    /// Accepts one finalized step through the exactly-once cursor.
    fn accept_output(&mut self, key: u64, step: FinalizedStep) {
        let Some(cursor) = self.next_emit.get_mut(&key) else {
            return; // unknown (already finished and taken): drop
        };
        if step.index < *cursor {
            return; // replayed duplicate
        }
        *cursor = step.index + 1;
        self.outputs.entry(key).or_default().push(step);
    }

    // ---- recovery -----------------------------------------------------

    /// Brings a dead slot back: restart + restore + replay, with bounded
    /// exponential backoff; past the crash budget, degrade in-process.
    fn recover(&mut self, slot: usize) -> Result<()> {
        loop {
            if let Mode::Remote(conn) = &mut self.slots[slot].mode {
                let _ = conn.child.kill();
                let _ = conn.child.wait();
            }
            self.slots[slot].restarts += 1;
            self.metrics.restarts.inc();
            let restarts = self.slots[slot].restarts;
            kalman_obs::event("cluster.worker_dead", slot as u64, restarts as u64);
            if restarts > self.cfg.crash_budget {
                return self.degrade(slot);
            }
            let backoff = backoff_for(&self.cfg, restarts);
            kalman_obs::event("cluster.restart", slot as u64, backoff.as_millis() as u64);
            std::thread::sleep(backoff);
            match self.respawn_and_replay(slot) {
                Ok(()) => return Ok(()),
                Err(_) => continue, // counts as another restart
            }
        }
    }

    /// One restart attempt: fresh worker, restore snapshots, replay the
    /// logged suffix.
    fn respawn_and_replay(&mut self, slot: usize) -> Result<()> {
        let conn = self.spawn_conn(slot)?;
        self.slots[slot].mode = Mode::Remote(conn);
        self.metrics
            .replay_len
            .record(self.slots[slot].wal.len() as u64);
        kalman_obs::event(
            "cluster.replay",
            slot as u64,
            self.slots[slot].wal.len() as u64,
        );

        // Restore every stream from the last acked snapshot.
        let snapshots = self.slots[slot].snapshots.clone();
        let mut payload = Writer::new();
        for (key, opts, snap) in &snapshots {
            payload.clear();
            payload.put_u64(*key);
            codec::encode_stream_options(&mut payload, opts);
            codec::encode_window_snapshot(&mut payload, snap);
            self.send_frame_wire(slot, K_RESTORE, payload.as_slice())?;
        }

        // Replay the suffix.  Finish entries prompt a reply; pump it so
        // socket buffers never back up, and so `finished` is repopulated
        // before the caller looks.
        let entries: Vec<WalEntry> = self.slots[slot]
            .wal
            .iter()
            .map(|(_, e)| e.clone())
            .collect();
        for entry in &entries {
            self.send_entry(slot, entry)?;
            if let WalEntry::Event { .. } = entry {
                self.slots[slot].events_delivered += 1;
            }
            if let WalEntry::Finish { key } = entry {
                let wanted = *key;
                self.pump_until(
                    slot,
                    self.cfg.reply_timeout,
                    move |s| matches!(s, Seen::Finished(k) | Seen::StreamError(k) if *k == wanted),
                )?;
            }
        }
        Ok(())
    }

    /// Rebuilds the shard in-process from snapshots + log suffix and
    /// serves it there from now on.  Queued history is fully replayed —
    /// degradation sheds the process boundary, not data.
    fn degrade(&mut self, slot: usize) -> Result<()> {
        self.metrics.degraded.inc();
        kalman_obs::event(
            "cluster.degraded",
            slot as u64,
            self.slots[slot].wal.len() as u64,
        );
        let (pool, ingress) = ShardedPool::new(ServeConfig {
            shards: 1,
            queue_capacity: self.cfg.queue_capacity,
            policy: self.cfg.policy,
        });
        let snapshots = std::mem::take(&mut self.slots[slot].snapshots);
        let mut local = LocalShard { pool, ingress };
        for (key, opts, snap) in snapshots {
            let stream = StreamingSmoother::restore(snap, opts)?;
            local.pool.insert(key, stream)?;
        }
        self.slots[slot].mode = Mode::Local(local);
        let entries: Vec<WalEntry> = self.slots[slot].wal.drain(..).map(|(_, e)| e).collect();
        for entry in &entries {
            self.apply_local(slot, entry)?;
        }
        self.collect_local(slot);
        Ok(())
    }

    /// Applies one entry to a degraded slot's in-process shard.
    fn apply_local(&mut self, slot: usize, entry: &WalEntry) -> Result<()> {
        // Split borrows: the shard lives in `slots`, the output cursor
        // maps on `self` — collect locally, then bank.
        let mut finished: Option<(u64, Vec<FinalizedStep>, Checkpoint)> = None;
        {
            let Mode::Local(local) = &mut self.slots[slot].mode else {
                return Err(ClusterError::Protocol("slot is not degraded".into()));
            };
            match entry {
                WalEntry::Insert { key, spec } => {
                    if let Err(e) = spec
                        .build()
                        .and_then(|stream| local.pool.insert(*key, stream).map(|_| ()))
                    {
                        self.stream_errors.push((*key, e.to_string()));
                    }
                }
                WalEntry::Event { key, event } => {
                    let submit = local.ingress.try_submit(*key, event.clone());
                    if let Err(e) = submit {
                        if e.is_would_block() {
                            local.pool.drain();
                            // Bank below; retry after the drain made room.
                            if local.ingress.try_submit(*key, e.into_event()).is_err() {
                                self.stream_errors
                                    .push((*key, "queue full after drain".into()));
                            }
                        } else {
                            self.stream_errors.push((*key, "ingress closed".into()));
                        }
                    }
                }
                WalEntry::Finish { .. } => {
                    local.pool.drain();
                    // Bank the drain's outputs before the tail (ordering).
                }
            }
        }
        self.collect_local(slot);
        if let WalEntry::Finish { key } = entry {
            let result = {
                let Mode::Local(local) = &mut self.slots[slot].mode else {
                    return Err(ClusterError::Protocol("slot is not degraded".into()));
                };
                local.pool.finish(*key)
            };
            match result {
                Ok((tail, ckpt)) => finished = Some((*key, tail, ckpt)),
                Err(e) => self.stream_errors.push((*key, e.to_string())),
            }
        }
        if let Some((key, tail, ckpt)) = finished {
            if !self.finished.contains_key(&key) {
                for step in tail {
                    self.accept_output(key, step);
                }
                self.finished.insert(key, ckpt);
            }
        }
        Ok(())
    }

    /// Drains a degraded slot and banks its outputs.
    fn collect_local(&mut self, slot: usize) {
        let mut banked: Vec<(u64, FinalizedStep)> = Vec::new();
        let mut errors: Vec<(u64, String)> = Vec::new();
        {
            let Mode::Local(local) = &mut self.slots[slot].mode else {
                return;
            };
            local.pool.drain();
            for (key, entry) in local.pool.outputs() {
                match entry.result() {
                    Ok(steps) => banked.extend(steps.iter().cloned().map(|s| (key, s))),
                    Err(e) => errors.push((key, e.to_string())),
                }
            }
            for (key, err) in local.pool.last_errors() {
                errors.push((*key, err.to_string()));
            }
        }
        for (key, step) in banked {
            self.accept_output(key, step);
        }
        self.stream_errors.extend(errors);
    }

    // ---- process management -------------------------------------------

    /// Spawns one worker process and completes the handshake (listen,
    /// exec, accept, `Hello`, config).
    fn spawn_conn(&mut self, slot: usize) -> Result<Conn> {
        // Relaxed: only the uniqueness of the fetched value matters; no
        // other memory is published under the counter.
        let nonce = SPAWN_NONCE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "kalman-cluster-{}-{slot}-{nonce}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)
            .map_err(|e| ClusterError::Spawn(format!("bind {}: {e}", path.display())))?;
        listener.set_nonblocking(true)?;
        let exe = std::env::current_exe()
            .map_err(|e| ClusterError::Spawn(format!("current_exe: {e}")))?;
        let mut child = Command::new(exe)
            .args(&self.cfg.worker_args)
            .env(SOCKET_ENV, &path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| ClusterError::Spawn(format!("exec worker: {e}")))?;
        kalman_obs::event("cluster.worker_spawn", slot as u64, child.id() as u64);

        let deadline = Instant::now() + self.cfg.spawn_timeout;
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        let _ = std::fs::remove_file(&path);
                        return Err(ClusterError::Spawn(format!(
                            "worker {slot} did not connect within {:?}",
                            self.cfg.spawn_timeout
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        };
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(self.cfg.heartbeat_timeout))?;
        let tx = FrameWriter::new(stream.try_clone()?);
        let rx = FrameReader::new(stream);
        let mut conn = Conn {
            child,
            tx,
            rx,
            socket_path: path,
            frames_sent: 0,
        };

        // Handshake: Hello in, config out.
        let deadline = Instant::now() + self.cfg.spawn_timeout;
        match read_incoming(&mut conn, &self.metrics, deadline, slot)? {
            Incoming::Hello => {}
            other => {
                return Err(ClusterError::Protocol(format!(
                    "expected Hello, got {other:?}"
                )))
            }
        }
        let mut payload = Writer::new();
        payload.put_u32(self.cfg.queue_capacity as u32);
        codec::encode_exec_policy(&mut payload, self.cfg.policy);
        conn.send(
            &self.metrics,
            &mut self.fault,
            slot,
            K_CONFIG,
            payload.as_slice(),
        )?;
        Ok(conn)
    }
}

/// Reads one worker frame, honoring the deadline across partial reads.
fn read_incoming(
    conn: &mut Conn,
    metrics: &Metrics,
    deadline: Instant,
    slot: usize,
) -> Result<Incoming> {
    loop {
        match conn.rx.poll() {
            Ok(Progress::Frame { kind, payload }) => {
                metrics.frames_recv.inc();
                return decode_incoming(kind, payload);
            }
            Ok(Progress::Pending) => {
                if Instant::now() > deadline {
                    return Err(ClusterError::ReplyTimeout { slot });
                }
            }
            Ok(Progress::Closed) => {
                return Err(ClusterError::Protocol(format!(
                    "worker {slot} hung up between frames"
                )))
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// `true` for failures the supervisor handles by recovering the slot.
fn is_transport(e: &ClusterError) -> bool {
    matches!(
        e,
        ClusterError::Wire(_)
            | ClusterError::Io(_)
            | ClusterError::ReplyTimeout { .. }
            | ClusterError::Protocol(_)
            | ClusterError::Spawn(_)
    )
}

/// Bounded exponential backoff: `base · 2^(restarts-1)`, capped.
fn backoff_for(cfg: &ClusterConfig, restarts: u32) -> Duration {
    let factor = 1u32 << (restarts.saturating_sub(1)).min(16);
    cfg.backoff_base.saturating_mul(factor).min(cfg.backoff_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_exponential() {
        let cfg = ClusterConfig {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(100),
            ..ClusterConfig::default()
        };
        assert_eq!(backoff_for(&cfg, 1), Duration::from_millis(10));
        assert_eq!(backoff_for(&cfg, 2), Duration::from_millis(20));
        assert_eq!(backoff_for(&cfg, 3), Duration::from_millis(40));
        assert_eq!(backoff_for(&cfg, 4), Duration::from_millis(80));
        assert_eq!(backoff_for(&cfg, 5), Duration::from_millis(100));
        assert_eq!(backoff_for(&cfg, 40), Duration::from_millis(100));
    }

    #[test]
    fn config_is_validated() {
        let bad = ClusterConfig {
            workers: 0,
            ..ClusterConfig::default()
        };
        assert!(matches!(Supervisor::new(bad), Err(ClusterError::Config(_))));
        let bad = ClusterConfig {
            checkpoint_every: 0,
            ..ClusterConfig::default()
        };
        assert!(matches!(Supervisor::new(bad), Err(ClusterError::Config(_))));
    }

    /// Worker entry point for the test below: the supervisors re-exec this
    /// test binary with this test's name and the socket variable set.
    #[test]
    fn worker_entry() {
        crate::worker_entry_from_env();
    }

    /// Two supervisors alive in one process (parallel tests) must never
    /// share a socket path: the later one would unlink and rebind the
    /// earlier one's listener, and either drop would unlink a live socket.
    #[test]
    fn live_supervisors_hold_disjoint_socket_paths() {
        let cfg = || ClusterConfig {
            workers: 2,
            worker_args: vec!["supervisor::tests::worker_entry".into(), "--exact".into()],
            ..ClusterConfig::default()
        };
        let paths = |sup: &Supervisor| -> Vec<PathBuf> {
            sup.slots
                .iter()
                .map(|slot| match &slot.mode {
                    Mode::Remote(conn) => conn.socket_path.clone(),
                    _ => panic!("fresh supervisor has a non-remote slot"),
                })
                .collect()
        };
        let first = Supervisor::new(cfg()).unwrap();
        let second = Supervisor::new(cfg()).unwrap();
        let mut all = paths(&first);
        all.extend(paths(&second));
        assert_eq!(all.len(), 4);
        for path in &all {
            assert!(path.exists(), "{} was unlinked", path.display());
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4, "socket paths collide across supervisors");
    }
}
